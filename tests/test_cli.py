"""CLI driver: payload handling, round trips, determinism, exit codes."""

import hashlib
import importlib.util
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from critcenter import __version__
from critcenter.cli import run
from critcenter.diffop import Connection, Oper, connection_to_oper, cyclic_vector_search
from critcenter.laurent import LaurentElement as L
from critcenter.modules import ModuleVector
from conftest import src_env


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
    payload = [L.monomial(-1).to_json(), L.monomial(0, 2).to_json()]
    code, out, _ = _run(capsys, "miura", "--json", "--data", json.dumps(payload))
    assert code == 0
    chi = Oper.from_json(json.loads(out))
    assert chi.a[0] == L.monomial(-1) + L.monomial(0, 2)


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
        # --x and --r set a Moy-Prasad point; no other case may drop them
        ["verify", "--case", "km0", "--n", "2", "--x", "1/2,0", "--json"],
        ["verify", "--case", "congruence", "--n", "2", "--r", "0", "--json"],
        ["act", "--case", "km0", "--n", "2", "--ell", "1", "--N", "0", "--r", "0", "--json"],
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
        # list-typed fields that are not lists
        ["irr", "--data", '{"a":5}'],
        ["cyclic", "--data", '{"matrix":[5]}'],
        ["cyclic", "--data", '{"matrix":5}'],
        ["oper", "--data", '{"connection":{"matrix":[[[[-1,"1"]]]]},"vector":5}'],
        # one form each: a Laurent element is an object, a miura payload a list
        ["irr", "--data", '{"rank":1,"a":[[[-2,"1"]]]}'],
        ["miura", "--data", '{"h":[{"terms":[[-1,"1"]]}]}'],
    ],
)
def test_json_integers_are_validated(capsys, argv):
    code, out, err = _run(capsys, *argv, "--json")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ValidationError"


def test_undetermined_certificate_is_not_cyclic(capsys):
    # Every entry is O(t^0), so each candidate's certificate determinant is
    # zero up to its precision: nothing is certified and the search runs out.
    unknown = {"terms": [], "precision": 0}
    conn = {"rank": 2, "matrix": [[unknown, unknown], [unknown, unknown]]}
    for command, payload in (("cyclic", conn), ("oper", {"connection": conn})):
        code, out, err = _run(capsys, command, "--json", "--data", json.dumps(payload))
        assert code == 2, command
        assert out == ""
        assert json.loads(err)["error"] == "CyclicVectorNotFoundError"


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
    assert out == (
        "rank 2 Sugawara vectors\n"
        "S_1 = e[1,1;-1] + e[2,2;-1]\n"
        "omega_1 = e[1,1;-1] + e[2,2;-1]\n"
        "S_2 = -e[2,2;-2] + e[1,1;-1]*e[2,2;-1] - e[1,2;-1]*e[2,1;-1]\n"
        "omega_2 = -e[1,1;-2] + e[1,1;-1]*e[2,2;-1]\n"
    )


def test_act_pretty_output(capsys):
    code, out, _ = _run(
        capsys, "act", "--case", "km0", "--n", "3", "--m", "1", "--ell", "3", "--N", "2"
    )
    assert code == 0
    assert out == (
        "S_3,[2] . v0 = 2*e[3,3;0]*v0 + 2*e[1,1;0]*e[3,3;0]*v0"
        " + e[2,2;0]*e[3,3;0]*v0 + e[1,1;0]*e[2,2;0]*e[3,3;0]*v0"
        " - e[1,2;0]*e[2,1;0]*e[3,3;0]*v0\n"
    )


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


def test_undecodable_file_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{")
    code, out, err = _run(capsys, "irr", "--in", str(bad))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ValidationError"


@pytest.mark.parametrize("coeff", ["1e10000000", "2E-1"])
def test_exponent_notation_is_refused_at_once(capsys, coeff):
    # Fraction would build 10**exponent: "1e10000000" took seconds to parse,
    # and "1e999999999" never finished.
    payload = json.dumps({"a": [{"terms": [[0, coeff]]}]})
    start = time.perf_counter()
    code, out, err = _run(capsys, "irr", "--json", "--data", payload)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert json.loads(err) == {
        "error": "ValidationError", "message": f"not a rational number: {coeff!r}",
    }


@pytest.mark.parametrize(
    "argv",
    [
        # a payload starting with "-" is read as an option
        ["irr", "--json", "--data", "-1e+16"],
        ["ss", "--n", "x"],
        ["ss"],
        ["verify", "--case", "bogus", "--n", "2"],
        ["verify", "--case", "km0"],
        ["ss", "--n", "2", "--bogus"],
        ["bogus"],
        [],
    ],
)
def test_usage_errors_are_structured(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1, err
    error = json.loads(lines[0])
    assert error["error"] == "ValidationError"
    assert error["message"].startswith("critcenter")


@pytest.mark.parametrize("argv", [["--help"], ["ss", "--help"], ["--version"]])
def test_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out and not captured.err
    if argv == ["--version"]:
        assert captured.out.strip() == __version__
    else:
        assert captured.out.startswith("usage: critcenter")


def test_cli_import_skips_thread_pool_and_logging():
    # Importing the CLI loads neither concurrent.futures nor logging: every
    # launch would pay for both, and no command uses them.
    code = (
        "import sys, critcenter.cli; "
        "print(sorted(m for m in ('concurrent.futures', 'logging') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=src_env(), capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_PARSER = {"critcenter", "critcenter.cli", "critcenter.errors"}
_ALGEBRA = _PARSER | {f"critcenter.{m}" for m in ("algebra", "lincomb", "pbw", "sugawara")}
_OPER = _PARSER | {f"critcenter.{m}" for m in ("laurent", "lincomb", "diffop")}
_EVERY = _ALGEBRA | _OPER | {"critcenter.modules"}
_IRR = '{"rank":1,"a":[{"terms":[[-2,"1"]]}]}'
_CONN = '{"rank":1,"matrix":[[{"terms":[[-2,"1"]]}]]}'


@pytest.mark.parametrize(
    "argv, expected",
    [
        pytest.param(argv, expected, id=" ".join(argv[:2]) if "--help" in argv else argv[0])
        for argv, expected in [
            (["--version"], _PARSER),
            (["--help"], _PARSER),
            (["ss", "--help"], _PARSER),
            (["ss", "--n", "2"], _ALGEBRA),
            (["hc", "--n", "2", "--json"], _ALGEBRA),
            (["miura", "--data", '[{"terms":[[-1,"1"]]}]'], _OPER),
            (["irr", "--data", _IRR], _OPER),
            (["cyclic", "--data", _CONN], _OPER),
            (["oper", "--data", '{"connection":%s}' % _CONN], _OPER),
            (["act", "--case", "km0", "--n", "2", "--ell", "1", "--N", "0"], _EVERY),
            (["verify", "--case", "km0", "--n", "2"], _EVERY),
            (["report", "--n", "2", "--m", "1"], _EVERY),
        ]
    ],
)
def test_each_subcommand_loads_only_its_layers(argv, expected):
    # The console script's own path: `critcenter.cli:main` in a fresh
    # interpreter, which reports the critcenter modules it loaded at exit.
    code = (
        "import sys\n"
        "from critcenter.cli import main\n"
        "try:\n"
        "    main()\n"
        "finally:\n"
        "    print(*sorted(m for m in sys.modules if m.split('.')[0] == 'critcenter'),"
        " file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], env=src_env(), capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stderr.split()) == expected


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["ss", "--n", "4", "--json"],
        ["irr", "--json", "--data", '{"rank":1,"a":[{"terms":[[-2,"1"]]}]}'],
        ["--version"],  # argparse prints and exits by itself
        ["ss", "--help"],
    ],
)
def test_closed_stdout_exits_without_traceback(argv, unbuffered):
    # `critcenter ... | head` closes the pipe early; here the reader is gone
    # before the child writes a byte.  Buffered, a short output fails only
    # at the final flush.
    proc = subprocess.Popen(
        [sys.executable, "-m", "critcenter.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=src_env(PYTHONUNBUFFERED=unbuffered),
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == "", err


def _benchmark_inputs():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCHMARK_INPUTS = _benchmark_inputs()
CATALOGUE = BENCHMARK_INPUTS.CATALOGUE


@pytest.mark.parametrize("name,argv", CATALOGUE, ids=[name for name, _ in CATALOGUE])
def test_oper_side_output_matches_recorded_digest(capsys, name, argv):
    # the benchmark's recorded stdout digests of every catalogue request, the
    # algebra side (ss, hc, verify, report, act) included, checked in-process;
    # the name predates the algebra-side cases and is kept so the ids of the
    # oper-side cases stay as they were
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == BENCHMARK_INPUTS.load_digests()["cli"][name]


@pytest.mark.parametrize("precision", ["0", "-3"])
def test_oper_nonpositive_precision_names_the_order_given(capsys, precision):
    # the rank-3 connection of the benchmark catalogue has a multi-term,
    # exact certificate determinant, so no order <= 0 can invert it
    conn = BENCHMARK_INPUTS.connection_payload(random.Random("cli:3"), 3)
    code, _out, err = _run(capsys, "oper", "--precision", precision,
                           "--data", json.dumps({"connection": conn}))
    assert code == 2
    data = json.loads(err)
    assert data["error"] == "PrecisionExhaustedError"
    assert f"order {precision}" in data["message"]
    assert "None" not in data["message"]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("rank", (2, 3, 4))
def test_truncated_cyclic_vector_gives_an_agreeing_oper(rank, seed):
    # connection_to_oper takes truncated components: each a_l keeps the
    # coefficients the truncated vector determines, and they are the exact
    # oper's.
    conn = Connection.from_json(BENCHMARK_INPUTS.oper_payload(seed, 0, rank))
    found = cyclic_vector_search(conn)
    exact = connection_to_oper(conn, found)
    for precision in (2, 4, 8):
        chi = connection_to_oper(conn, [c.truncate(precision) for c in found.components])
        assert all(a.precision is not None and list(a.items()) for a in chi.a)
        assert all(a.agrees_with(b) for a, b in zip(chi.a, exact.a)), precision


def test_oper_with_a_vector_zero_to_its_precision_exits_2(capsys):
    payload = {
        "connection": {"matrix": [[{"terms": [[0, "1"]]}]]},
        "vector": [{"terms": [], "precision": 2}],
    }
    code, out, err = _run(capsys, "oper", "--data", json.dumps(payload))
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "UndeterminedValuationError"
