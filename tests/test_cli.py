"""CLI driver: payload handling, round trips, determinism, exit codes."""

import json

import pytest

from critcenter.cli import run
from critcenter.diffop import Connection, Oper
from critcenter.laurent import LaurentElement as L
from critcenter.modules import ModuleVector


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ss_contains_trace_vector(capsys):
    code, out, _ = _run(capsys, "ss", "--n", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 2
    s1 = data["S"][0]
    rendered = {tuple(entry["word"]) for entry in s1}
    assert rendered == {("e[1,1;-1]",), ("e[2,2;-1]",)}
    assert data["row_property"] == [True, True]


def test_hc_reports_projection_match(capsys):
    code, out, _ = _run(capsys, "hc", "--n", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["projection_matches"] == [True, True, True]


def test_irr_example(capsys):
    chi = Oper([L.monomial(-1), L.monomial(-2)])
    code, out, _ = _run(
        capsys, "irr", "--json", "--data", json.dumps(chi.to_json())
    )
    assert code == 0
    assert json.loads(out) == {"irregularity": 0}


def test_miura_round_trip(capsys):
    payload = [L.monomial(-1).to_json(), L.constant(2).to_json()]
    code, out, _ = _run(capsys, "miura", "--json", "--data", json.dumps(payload))
    assert code == 0
    chi = Oper.from_json(json.loads(out))
    assert chi.a[0] == L.monomial(-1) + L.constant(2)


def test_cyclic_and_oper_pipeline(capsys):
    conn = Connection([[L.zero(), L.zero()], [L.zero(), L.monomial(-1)]])
    code, out, _ = _run(
        capsys, "cyclic", "--json", "--data", json.dumps(conn.to_json())
    )
    assert code == 0
    found = json.loads(out)
    assert [L.from_json(c) for c in found["vector"]] == [L.one(), L.one()]
    payload = {"connection": conn.to_json(), "vector": found["vector"]}
    code, out, _ = _run(capsys, "oper", "--json", "--data", json.dumps(payload))
    assert code == 0
    chi = Oper.from_json(json.loads(out))
    assert all(a.is_zero_mod_precision() for a in chi.a)


def test_act_emits_module_vector(capsys):
    code, out, _ = _run(
        capsys, "act", "--n", "2", "--case", "km0", "--m", "1",
        "--ell", "1", "--N", "0", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["is_zero"] is False
    vec = ModuleVector.from_json(data["vector"])
    assert len(vec.items()) == 2


def test_verify_km0(capsys):
    code, out, _ = _run(
        capsys, "verify", "--case", "km0", "--n", "2", "--m", "1", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["thresholds_theoretical"] == [1, 2]
    assert data["verified"] == [True, True]


def test_report_matches_library(capsys):
    code, out, _ = _run(capsys, "report", "--n", "2", "--m", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["irregularity_bound"] == 0
    assert data["witness_irregularity"] == 0
    assert data["pole_bounds"] == [1, 2]


def test_determinism_byte_identical(capsys):
    _, out1, _ = _run(capsys, "verify", "--case", "congruence", "--n", "2",
                      "--m", "2", "--json")
    _, out2, _ = _run(capsys, "verify", "--case", "congruence", "--n", "2",
                      "--m", "2", "--json")
    assert out1 == out2
    _, out3, _ = _run(capsys, "ss", "--n", "3", "--json")
    _, out4, _ = _run(capsys, "ss", "--n", "3", "--json")
    assert out3 == out4


def test_validation_error_exits_2(capsys):
    code, _out, err = _run(capsys, "irr", "--data", "{not json")
    assert code == 2
    assert json.loads(err)["error"] == "ValidationError"
    code, _out, err = _run(
        capsys, "irr", "--data", json.dumps({"rank": 2, "a": [[[0, "1"]]]})
    )
    assert code == 2


def test_bad_window_and_rationals_exit_2(capsys):
    bad_coefficient = {"rank": 1, "a": [{"terms": [[-1, "1/0"]]}]}
    for argv in (
        ["verify", "--case", "km0", "--n", "2", "--window", "-3", "--json"],
        ["report", "--n", "2", "--m", "1", "--window", "-1", "--json"],
        ["verify", "--case", "moyprasad", "--n", "2", "--x", "a,b", "--json"],
        ["verify", "--case", "moyprasad", "--n", "2", "--r", "1/0", "--json"],
        ["irr", "--data", json.dumps(bad_coefficient), "--json"],
    ):
        code, out, err = _run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert json.loads(err)["error"] == "ValidationError", argv


@pytest.mark.parametrize(
    "argv",
    [
        ["irr", "--data", '{"rank":1,"a":[{"terms":[[-1.5,"1"]]}]}'],
        ["irr", "--data", '{"rank":1,"a":[{"terms":[[true,"1"]]}]}'],
        ["irr", "--data", '{"rank":1,"a":[{"terms":[[-1,"1"]],"precision":2.5}]}'],
        ["irr", "--data", '{"rank":1,"a":[{"terms":[[-1,"1"]],"precision":"x"}]}'],
        ["irr", "--data", '{"rank":"x","a":[{"terms":[[-1,"1"]]}]}'],
        ["irr", "--data", '{"rank":true,"a":[{"terms":[[-1,"1"]]}]}'],
        ["miura", "--data", '[{"terms":[["-1","1"]]}]'],
    ],
)
def test_json_integers_are_validated(capsys, argv):
    code, out, err = _run(capsys, *argv, "--json")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ValidationError"


def test_moyprasad_flags(capsys):
    code, out, _ = _run(
        capsys, "verify", "--case", "moyprasad", "--n", "2", "--m", "1",
        "--x", "1/2,0", "--r", "0", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["thresholds_theoretical"] == [1, 2]
    assert data["verified"] == [True, True]


def test_pretty_output_default(capsys):
    code, out, _ = _run(capsys, "ss", "--n", "2")
    assert code == 0
    assert "S_1 = e[1,1;-1] + e[2,2;-1]" in out


def test_payload_from_file_and_stdin(tmp_path, capsys, monkeypatch):
    import io

    chi = Oper([L.monomial(-2)])
    path = tmp_path / "oper.json"
    path.write_text(json.dumps(chi.to_json()))
    code, out, _ = _run(capsys, "irr", "--json", "--in", str(path))
    assert code == 0
    assert json.loads(out) == {"irregularity": 1}

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(chi.to_json())))
    code, out, _ = _run(capsys, "irr", "--json")
    assert code == 0
    assert json.loads(out) == {"irregularity": 1}


def test_oper_auto_search_when_vector_omitted(capsys):
    conn = Connection([[L.zero(), L.zero()], [L.zero(), L.monomial(-1)]])
    code, out, _ = _run(
        capsys, "oper", "--json", "--data", json.dumps({"connection": conn.to_json()})
    )
    assert code == 0
    chi = Oper.from_json(json.loads(out))
    assert all(a.is_zero_mod_precision() for a in chi.a)


def test_act_moyprasad_defaults_match_congruence(capsys):
    code, out1, _ = _run(
        capsys, "act", "--n", "2", "--case", "moyprasad", "--m", "2",
        "--ell", "2", "--N", "3", "--json",
    )
    assert code == 0
    code, out2, _ = _run(
        capsys, "act", "--n", "2", "--case", "congruence", "--m", "2",
        "--ell", "2", "--N", "3", "--json",
    )
    assert code == 0
    d1, d2 = json.loads(out1), json.loads(out2)
    assert d1["vector"] == d2["vector"]
    assert d1["is_zero"] == d2["is_zero"]


def test_missing_file_is_validation_error(capsys):
    code, _out, err = _run(capsys, "irr", "--in", "/nonexistent/path.json")
    assert code == 2
    assert json.loads(err)["error"] == "ValidationError"
