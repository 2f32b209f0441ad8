"""Exact Laurent arithmetic: worked examples and algebraic laws."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from critcenter.algebra import Gen
from critcenter.errors import (
    PrecisionExhaustedError,
    UndeterminedCoefficientError,
    UndeterminedValuationError,
    ValidationError,
    ZeroDivisorError,
)
from critcenter.laurent import INFINITY, LaurentElement as L, scalar_from_str
from oracles import laurent_product


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
    assert L.monomial(0, 5).derivative().is_zero()
    assert L({3: 1, 1: 2}).derivative() == L({2: 3, 0: 2})


def test_derivative_precision_drops():
    a = L({0: 1}, precision=4)
    assert a.derivative().precision == 3


def test_residue_examples():
    # the residue is the coefficient of t^-1
    assert L.monomial(-1).coefficient(-1) == 1
    assert L({-2: 1, 0: 3}).coefficient(-1) == 0
    f = L.monomial(-1)
    g = L.monomial(1)
    assert (f * g.derivative()).coefficient(-1) == 1
    assert (f.derivative() * g).coefficient(-1) == -1


def test_residue_undetermined():
    with pytest.raises(UndeterminedCoefficientError):
        L({-3: 1}, precision=-1).coefficient(-1)
    # precision 0 still determines the t^-1 coefficient
    assert L({-1: 7}, precision=0).coefficient(-1) == 7


def test_valuation_examples():
    assert L({-3: 1, 1: 1}).valuation() == -3
    assert L.zero().valuation() is INFINITY
    assert L.monomial(0, 7).valuation() == 0


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
    for text in ("a", "1/0", "", None, "1e2", "2E-1"):
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
    assert (f * g.derivative()).coefficient(-1) == -(f.derivative() * g).coefficient(-1)


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


nonzero_scalars = scalars.filter(bool)
# truncated and exact elements, exact and O(t^p) zeros, exact monomials
quotient_operands = st.one_of(
    truncated_elements,
    st.just(L.zero()),
    st.builds(L.zero, st.integers(min_value=-4, max_value=8)),
    st.builds(L.monomial, st.integers(min_value=-5, max_value=5), nonzero_scalars),
)


@settings(max_examples=400)
@given(quotient_operands, quotient_operands, st.integers(min_value=-3, max_value=12))
# an exact single-monomial divisor of valuation 2 under a truncated dividend:
# the quotient's precision is 3 - 2, not 3
@example(L({0: 1, 1: 2}, 3), L.monomial(2, 3), 5)
def test_divide_matches_product_with_inverse(a, d, order):
    # coefficients, precision and the error raised must all agree, with the
    # inverse and with the independent geometric-series inverse
    quotient = _outcome(L.divide, a, d, order)
    assert quotient == _outcome(lambda: a * d.invert(order))
    assert quotient == _outcome(lambda: a * _geometric_invert(d, order))


def _tail_divide(a, d, order):
    """Reference quotient: the tail-form recurrence that preceded Horner form,

        Q_k = c_0^k s_k - sum_{j=1..k} (c_j c_0^(j-1)) Q_{k-j},

    with the same truncation and errors as ``divide``."""
    if d.is_zero():
        raise ZeroDivisorError("cannot invert the zero series")
    v = d.valuation()
    inverse_prec = None
    if len(d._coeff) > 1 or d.precision is not None:
        effective = order if d.precision is None else min(order, d.precision - v)
        if effective <= 0:
            raise PrecisionExhaustedError("order exhausted")
        inverse_prec = effective - v
    if a.is_zero():
        return L.zero()
    w = min(a._coeff, default=a.precision)
    prec = None if inverse_prec is None else w + inverse_prec
    if a.precision is not None:
        prec = a.precision - v if prec is None else min(prec, a.precision - v)
    if not a._coeff:
        return L({}, prec)
    count = max(a._coeff) - w + 1 if prec is None else prec - w + v
    big_d = lcm(*(Fraction(c).denominator for c in d._coeff.values()))
    big_s = lcm(*(Fraction(c).denominator for c in a._coeff.values()))
    c0 = int(d._coeff[v] * big_d)
    tail = sorted(
        (k - v, int(c * big_d) * c0 ** (k - v - 1)) for k, c in d._coeff.items() if k != v
    )
    dividend = {k - w: int(c * big_s) for k, c in a._coeff.items()}
    quotient, table, power = [], {}, 1
    for k in range(count):
        total = power * dividend.get(k, 0)
        for j, c in tail:
            if j > k:
                break
            total -= c * quotient[k - j]
        quotient.append(total)
        power *= c0
        if total:
            table[w - v + k] = Fraction(total * big_d, power * big_s)
    return L(table, prec)


big_ints = st.integers(min_value=-(2**100), max_value=2**100).filter(bool)
# int coefficients up to 2^100, exact or truncated
big_int_elements = st.builds(
    L,
    st.dictionaries(st.integers(min_value=-5, max_value=5), big_ints, max_size=6),
    st.one_of(st.none(), st.integers(min_value=-4, max_value=10)),
)


@st.composite
def _far_tail_quotients(draw):
    """A dividend over the divisor t^v (c + t^k), k within two of the order."""
    order = draw(st.integers(min_value=1, max_value=14))
    k = draw(st.integers(min_value=max(1, order - 2), max_value=order + 2))
    v = draw(st.integers(min_value=-3, max_value=3))
    c = draw(st.one_of(nonzero_scalars, big_ints))
    precision = draw(st.one_of(st.none(), st.integers(min_value=v + 1, max_value=v + 16)))
    dividend = draw(st.one_of(quotient_operands, big_int_elements))
    return dividend, L({v: c, v + k: draw(st.one_of(nonzero_scalars, big_ints))},
                       precision), order


@settings(max_examples=300)
@given(st.one_of(
    st.tuples(quotient_operands, quotient_operands, st.integers(min_value=-3, max_value=12)),
    st.tuples(big_int_elements, big_int_elements, st.integers(min_value=-3, max_value=14)),
    _far_tail_quotients(),
), st.integers(min_value=1, max_value=6**5))
@example((L({0: 1, 1: 2}, 3), L.monomial(2, 3), 5), 6)
@example((L({0: 2**100, 3: -1}), L({0: 3, 11: 2**99}), 12), 36)
def test_divide_matches_tail_recurrence(operands, scale):
    # Horner form is the same int per coefficient, so the same Fraction,
    # the same precision and the same error; a scale divides the dividend
    a, d, order = operands
    assert _outcome(L.divide, a, d, order) == _outcome(_tail_divide, a, d, order)
    assert _outcome(L._divide, a, d, order, scale) == _outcome(
        _tail_divide, a.scale(Fraction(1, scale)), d, order
    )


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
    try:
        yield a.divide(b, order)
    except (ZeroDivisorError, UndeterminedValuationError, PrecisionExhaustedError):
        pass


def test_canonical_coefficient_examples():
    assert type(L({0: Fraction(3)}).coefficient(0)) is int
    assert type(L.monomial(0, Fraction(4, 2)).scale(Fraction(1, 2)).coefficient(0)) is int
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


@pytest.mark.parametrize(
    "build",
    [
        lambda: L({1.5: 1}),  # printed "t": int() truncated the exponent
        lambda: L.monomial(2.7),  # printed "t^2"
        lambda: L({True: 1}),
        lambda: L({Fraction(2): 1}),
        lambda: L({0: 0.5}),
        lambda: L({0: True}),
        lambda: L.monomial(0, False),
        lambda: L.one().scale(0.25),
    ],
)
def test_inexact_input_is_rejected(build):
    with pytest.raises(ValidationError):
        build()


def test_a_generator_is_not_a_scalar():
    # Gen subclasses int; its code must not scale a Laurent element.
    g = Gen(1, 1, 0)
    with pytest.raises(TypeError):
        L.one() * g
    with pytest.raises(TypeError):
        g * L.one()


# -- fused multiply-accumulate ---------------------------------------------

# exact and truncated elements with int or Fraction coefficients, exact
# zeros and truncated zeros O(t^p); Fractions whose denominators reach about
# 2**200, as the extracted opers' do; pairs of an int and a Fraction operand
big_fractions = st.builds(
    Fraction,
    st.integers(min_value=-(2**200), max_value=2**200),
    st.integers(min_value=1, max_value=2**200),
)
int_operands = st.builds(
    L, st.dictionaries(st.integers(min_value=-5, max_value=5),
                       st.integers(min_value=-(2**70), max_value=2**70), max_size=5),
    precisions,
)
big_operands = st.builds(
    L, st.dictionaries(st.integers(min_value=-5, max_value=5),
                       st.one_of(big_fractions, exact_scalars), min_size=1, max_size=5),
    precisions,
)
dot_operands = st.one_of(
    st.builds(L, exact_tables, precisions),
    big_operands,
    st.just(L.zero()),
    st.builds(L.zero, st.integers(min_value=-4, max_value=8)),
)
dot_pairs = st.one_of(
    st.tuples(dot_operands, dot_operands),
    st.tuples(int_operands, big_operands),
    st.tuples(big_operands, int_operands),
)


def _reference_dot(pairs, start):
    """start + sum a*b: the schoolbook products' tables added in one dict,
    at the least precision of start and the products."""
    terms = [laurent_product(a, b) for a, b in pairs]
    if start is not None:
        terms.append(start)
    table, prec = {}, None
    for x in terms:
        if x.precision is not None:
            prec = x.precision if prec is None else min(prec, x.precision)
        for k, c in x._coeff.items():
            table[k] = table.get(k, 0) + Fraction(c)
    return L(table, prec)


def _exact(element):
    """Coefficients and precision: equality that cannot hide a precision."""
    return dict(element._coeff), element.precision


@settings(max_examples=300)
@given(st.lists(dot_pairs, max_size=4), st.one_of(st.none(), dot_operands))
@example([], None)
@example([(L.zero(), L({0: 1}, 2)), (L({1: 3}), L.zero(-1))], L({-1: Fraction(1, 2)}))
# start's denominator is not that of any product
@example([(L({0: 2, 1: 3}), L({-1: 5}))], L({0: Fraction(1, 7), 2: Fraction(3, 2)}))
@example([(L({0: Fraction(1, 2**200 - 1)}), L({0: 2**200 - 1, 3: 1}))], L({0: -1}))
def test_dot_equals_the_fold_of_sums_and_products(pairs, start):
    fold = L.zero() if start is None else start
    for a, b in pairs:
        fold = fold + a * b
    result = L.dot(pairs, start)
    _assert_canonical(result)
    assert _exact(result) == _exact(_reference_dot(pairs, start)) == _exact(fold)
    assert L.dot(iter(pairs), start) == result  # any iterable of pairs


def test_int_products_cache_denominator_one():
    # the int paths record their denominator, so no later product scans them
    a, b = L({-1: 3, 2: -4}), L({0: 5, 1: 2**80})
    assert a._den is None and a._denominator() == 1 == a._den
    for x in (a * b, a.derivative(), a.scale(7), L.dot([(a, b)], a)):
        assert x._den == 1 and all(type(c) is int for c in x._coeff.values())
    # scaling by an int multiple of a known denominator gives ints too
    half = L({0: Fraction(1, 2), 1: 3})
    assert half.scale(2)._den is None and half.scale(2)._denominator() == 1
    assert (half * half)._denominator() == 4 and half._den == 2
    assert half.scale(6)._den == 1 and half.scale(6) == L({0: 3, 1: 18})
    assert half.scale(3)._den is None and half.scale(3)._denominator() == 2


def test_dot_precision_examples():
    # a truncated zero bounds the precision; an exact zero does not
    assert L.dot([(L.zero(3), L.monomial(-1))]) == L.zero(2)
    assert L.dot([(L.zero(), L({0: 1}, 2))], L.one()) == L.one()
    # the least precision of start and every product wins
    assert L.dot([(L.one(), L({0: 1, 5: 1}, 6))], L({0: 1}, 4)) == L({0: 2}, 4)
    assert L.dot([]) == L.zero() and L.dot([]).is_zero()
