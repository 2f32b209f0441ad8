"""Fuzzed JSON payloads for the payload-driven subcommands.

Every payload, well formed or not, must end in exit 0, or in exit 2 with one
structured error object on stderr; a traceback is a bug.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from critcenter.cli import run

# Any JSON value, kept small.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def _mostly(valid):
    """``valid``, replaced by an arbitrary JSON value one time in twenty."""
    return st.integers(0, 19).flatmap(lambda k: json_values if k == 0 else valid)


exponents = _mostly(st.integers(-4, 4))
coefficients = _mostly(st.sampled_from(["0", "1", "-1", "2", "1/2", "-3/4", "5/3"]))
laurent = _mostly(
    st.fixed_dictionaries(
        {"terms": st.lists(st.tuples(exponents, coefficients).map(list), max_size=3)},
        optional={"precision": _mostly(st.integers(-3, 6))},
    )
)


def _laurent_list(min_size, max_size):
    return st.lists(laurent, min_size=min_size, max_size=max_size)


opers = _mostly(
    st.fixed_dictionaries(
        {"a": _mostly(_laurent_list(0, 3))},
        optional={"rank": _mostly(st.integers(0, 4))},
    )
)


@st.composite
def _square_connections(draw):
    rank = draw(st.integers(0, 3))
    rows = rank + draw(st.sampled_from([0] * 18 + [-1, 1]))
    matrix = [draw(_laurent_list(rank, rank)) for _ in range(rows)]
    return {"rank": rank, "matrix": matrix}


connections = _mostly(_square_connections())
oper_payloads = _mostly(
    st.fixed_dictionaries(
        {"connection": connections},
        optional={"vector": _mostly(_laurent_list(0, 3))},
    )
)
miura_payloads = _mostly(_laurent_list(0, 3))

FUZZ = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _check(command, payload):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run([command, "--json", f"--data={json.dumps(payload)}"])
    assert code in (0, 2), (command, payload, code)
    if code == 2:
        assert out.getvalue() == ""
        error = json.loads(err.getvalue())
        assert set(error) == {"error", "message"}
    else:
        json.loads(out.getvalue())


@FUZZ
@given(payload=opers)
def test_fuzz_irr(payload):
    _check("irr", payload)


@FUZZ
@given(payload=connections)
def test_fuzz_cyclic(payload):
    _check("cyclic", payload)


@FUZZ
@given(payload=oper_payloads)
def test_fuzz_oper(payload):
    _check("oper", payload)


@FUZZ
@given(payload=miura_payloads)
def test_fuzz_miura(payload):
    _check("miura", payload)
