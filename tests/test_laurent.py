"""Exact Laurent arithmetic: worked examples and algebraic laws."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critcenter.errors import (
    PrecisionExhaustedError,
    UndeterminedResidueError,
    UndeterminedValuationError,
    ValidationError,
    ZeroDivisorError,
)
from critcenter.laurent import INFINITY, LaurentElement as L, scalar_from_str


def test_mul_polynomial_product():
    a = L({-1: 1, 0: 1})
    b = L.monomial(1)
    assert a * b == L({0: 1, 1: 1})


def test_mul_zero_annihilates():
    a = L({-3: 2, 4: Fraction(1, 3)})
    z = L.zero()
    assert (z * a).is_zero()
    assert (a * z).is_zero()
    assert (z * a).valuation() is INFINITY


def test_mul_precision_propagation():
    a = L({0: 1, 1: 1}, precision=2)
    b = L({0: 1, 1: -1}, precision=2)
    product = a * b
    assert product == L({0: 1}, precision=2)


def test_mul_precision_with_shifted_valuation():
    a = L.monomial(-2)
    b = L({0: 1, 1: 1}, precision=3)
    assert (a * b).precision == 1


def test_derivative_examples():
    assert L.monomial(-1).derivative() == L.monomial(-2, -1)
    assert L.constant(5).derivative().is_zero()
    assert L({3: 1, 1: 2}).derivative() == L({2: 3, 0: 2})


def test_derivative_precision_drops():
    a = L({0: 1}, precision=4)
    assert a.derivative().precision == 3


def test_residue_examples():
    assert L.monomial(-1).residue() == 1
    assert L({-2: 1, 0: 3}).residue() == 0
    f = L.monomial(-1)
    g = L.monomial(1)
    assert (f * g.derivative()).residue() == 1
    assert (f.derivative() * g).residue() == -1


def test_residue_undetermined():
    with pytest.raises(UndeterminedResidueError):
        L({-3: 1}, precision=-1).residue()
    # precision 0 still determines the t^-1 coefficient
    assert L({-1: 7}, precision=0).residue() == 7


def test_valuation_examples():
    assert L({-3: 1, 1: 1}).valuation() == -3
    assert L.zero().valuation() is INFINITY
    assert L.constant(7).valuation() == 0


def test_valuation_undetermined_for_truncated_zero():
    with pytest.raises(UndeterminedValuationError):
        L({}, precision=5).valuation()


def test_infinity_sentinel_comparisons():
    assert INFINITY > 10**9
    assert not (INFINITY > INFINITY)
    assert INFINITY >= INFINITY
    assert not (INFINITY < -5)


def test_invert_monomials_exact():
    assert L.monomial(1).invert(3) == L.monomial(-1)
    assert L.monomial(-1, 2).invert(2) == L.monomial(1, Fraction(1, 2))


def test_invert_geometric_series():
    inv = L({0: 1, 1: -1}).invert(3)
    assert inv == L({0: 1, 1: 1, 2: 1}, precision=3)
    assert (L({0: 1, 1: -1}) * inv).agrees_with(L.one())


def test_invert_errors():
    with pytest.raises(ZeroDivisorError):
        L.zero().invert(2)
    with pytest.raises(UndeterminedValuationError):
        L({}, precision=3).invert(2)
    with pytest.raises(PrecisionExhaustedError):
        L({0: 1, 1: 1}).invert(0)


def test_coefficient_of_undetermined_position():
    from critcenter.errors import UndeterminedCoefficientError

    a = L({0: 1}, precision=2)
    assert a.coefficient(1) == 0
    with pytest.raises(UndeterminedCoefficientError):
        a.coefficient(2)


def test_json_round_trip():
    a = L({-2: Fraction(3, 4), 5: -2}, precision=7)
    assert L.from_json(a.to_json()) == a
    b = L({0: 1})
    assert L.from_json(b.to_json()) == b


def test_scalar_parse_errors_are_validation_errors():
    assert scalar_from_str(" -3/4") == Fraction(-3, 4)
    for text in ("a", "1/0", "", None):
        with pytest.raises(ValidationError):
            scalar_from_str(text)


# -- randomized laws -------------------------------------------------------

scalars = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)

elements = st.builds(
    lambda d: L(d),
    st.dictionaries(st.integers(min_value=-5, max_value=5), scalars, max_size=5),
)


@given(elements, elements, elements)
def test_mul_associative_and_distributive(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(elements, elements)
def test_mul_commutative(a, b):
    assert a * b == b * a


@given(elements, elements)
def test_leibniz_rule(a, b):
    assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


@given(elements, elements)
def test_residue_integration_by_parts(f, g):
    assert (f * g.derivative()).residue() == -(f.derivative() * g).residue()


def _geometric_invert(a, order):
    """Reference inverse: c0 t^v (1 + u) inverted by the truncated series sum (-u)^k."""
    if a.is_zero():
        raise ZeroDivisorError("cannot invert the zero series")
    v = a.valuation()
    c0 = a._coeff[v]
    if len(a._coeff) == 1 and a.precision is None:
        return L.monomial(-v, Fraction(1) / c0)
    effective = order
    if a.precision is not None:
        effective = min(effective, a.precision - v)
    if effective <= 0:
        raise PrecisionExhaustedError("order exhausted")
    u = L(
        {k - v: Fraction(c) / c0 for k, c in a._coeff.items() if k != v},
        None if a.precision is None else a.precision - v,
    )
    geo = L.one()
    power = L.one()
    k = 1
    while True:
        power = (power * u).truncate(effective)
        if power.is_zero_mod_precision():
            break
        geo = geo + power.scale((-1) ** (k % 2))
        k += 1
    geo = geo.truncate(effective)
    return L({k - v: Fraction(c) / c0 for k, c in geo._coeff.items()}, effective - v)


truncated_elements = st.builds(
    lambda d, p: L(d, p),
    st.dictionaries(st.integers(min_value=-5, max_value=5), scalars, max_size=5),
    st.one_of(st.none(), st.integers(min_value=-4, max_value=8)),
)


def _outcome(fn, *args):
    try:
        result = fn(*args)
    except (ZeroDivisorError, UndeterminedValuationError, PrecisionExhaustedError) as exc:
        return type(exc)
    return dict(result._coeff), result.precision


@settings(max_examples=200)
@given(truncated_elements, st.integers(min_value=-2, max_value=12))
def test_invert_matches_geometric_series(a, order):
    # coefficients, precision and the error raised must all agree
    assert _outcome(L.invert, a, order) == _outcome(_geometric_invert, a, order)


@settings(max_examples=60)
@given(elements, st.integers(min_value=1, max_value=6))
def test_invert_two_sided(a, order):
    if a.is_zero():
        return
    inv = a.invert(order)
    one = L.one()
    assert (a * inv).agrees_with(one)
    assert (inv * a).agrees_with(one)
    assert inv.valuation() == -a.valuation()


# -- canonical coefficients ------------------------------------------------

exact_scalars = st.one_of(st.integers(min_value=-5, max_value=5), scalars)
exact_tables = st.dictionaries(
    st.integers(min_value=-5, max_value=5), exact_scalars, max_size=5
)
precisions = st.one_of(st.none(), st.integers(min_value=-4, max_value=8))


def _assert_canonical(a):
    for c in a._coeff.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c
        assert c != 0


def _results(a, b, k, order):
    yield a + b
    yield a - b
    yield -a
    yield a * b
    yield a.scale(k)
    yield a.scale(Fraction(1, 2))
    yield a.derivative()
    yield a.truncate(order)
    yield L.from_json(a.to_json())
    try:
        yield a.invert(order)
    except (ZeroDivisorError, UndeterminedValuationError, PrecisionExhaustedError):
        pass


def test_canonical_coefficient_examples():
    assert type(L({0: Fraction(3)}).coefficient(0)) is int
    assert type(L.constant(Fraction(4, 2)).scale(Fraction(1, 2)).coefficient(0)) is int
    inv = L({0: 3, 1: 1}).invert(5)
    assert inv.precision == 5
    assert inv.items() == [
        (0, Fraction(1, 3)), (1, Fraction(-1, 9)), (2, Fraction(1, 27)),
        (3, Fraction(-1, 81)), (4, Fraction(1, 243)),
    ]


@settings(max_examples=150)
@given(exact_tables, precisions, exact_tables, precisions,
       st.integers(min_value=-3, max_value=3), st.integers(min_value=-2, max_value=8))
def test_coefficients_stay_canonical(d, p, e, q, k, order):
    # int and Fraction inputs give canonical tables, and the same results
    def fractions(table):
        return {x: Fraction(c) for x, c in table.items()}

    mixed = _results(L(d, p), L(e, q), k, order)
    exact = _results(L(fractions(d), p), L(fractions(e), q), k, order)
    for r, s in zip(mixed, exact, strict=True):
        _assert_canonical(r)
        assert r == s and hash(r) == hash(s)
