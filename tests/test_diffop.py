"""Opers, connections, the Miura expansion, and the irregularity oracle."""

import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from critcenter.diffop import (
    Connection,
    Oper,
    _cofactor_minors,
    certificate_determinant,
    connection_to_oper,
    cyclic_vector_search,
    irregularity,
    laurent_matrix_det,
    miura,
    newton_polygon_irregularity,
    oper_to_connection,
)
from critcenter.errors import (
    CyclicVectorNotFoundError,
    DimensionMismatchError,
    NotCyclicError,
    PrecisionExhaustedError,
    UndeterminedValuationError,
)
from critcenter.laurent import LaurentElement as L


def _rand_laurent(rng, lo=-3, hi=3, density=0.6):
    table = {}
    for k in range(lo, hi + 1):
        if rng.random() < density:
            table[k] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return L(table)


# -- miura -------------------------------------------------------------------


def test_miura_constants():
    c1, c2 = L.monomial(0, 3), L.monomial(0, 5)
    chi = miura([c1, c2])
    assert chi.a[0] == c1 + c2
    assert chi.a[1] == c1 * c2


def test_miura_rank_one():
    chi = miura([L.monomial(-1)])
    assert chi.a == (L.monomial(-1),)


def test_miura_general_rank_two():
    rng = random.Random(17)
    for _ in range(20):
        e11 = _rand_laurent(rng, -2, 3)
        e22 = _rand_laurent(rng, -2, 3)
        chi = miura([e11, e22])
        assert chi.a[0] == e11 + e22
        assert chi.a[1] == e11 * e22 - e11.derivative()


def test_miura_holomorphic_stays_holomorphic():
    rng = random.Random(23)
    for _ in range(10):
        h = [_rand_laurent(rng, 0, 3) for _ in range(3)]
        chi = miura(h)
        for a in chi.a:
            assert a.is_zero() or a.valuation() >= 0


def test_miura_truncated_component():
    chi = miura([L({-1: 1}, precision=2), L.monomial(0, 2)])
    assert chi.a == (L({-1: 1, 0: 2}, precision=2), L({-2: 1, -1: 2}, precision=1))


_coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=5)

_exact_components = st.builds(
    L, st.dictionaries(st.integers(min_value=-3, max_value=3), _coefficients, max_size=3)
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_exact_components, min_size=1, max_size=5))
def test_miura_matches_connection_extraction(h):
    # D = d + A with h_k on the diagonal of A and 1 below it: e_1 is cyclic
    # with certificate determinant +-1, so the extracted oper is exact, and
    # a_l agrees with miura(h) up to the sign (-1)^(l+1)
    n = len(h)
    matrix = [
        [h[r] if r == c else L.one() if r == c + 1 else L.zero() for c in range(n)]
        for r in range(n)
    ]
    e1 = [L.one() if r == 0 else L.zero() for r in range(n)]
    chi = connection_to_oper(Connection(matrix), e1)
    signs = [1 if ell % 2 else -1 for ell in range(1, n + 1)]
    assert miura(h).a == tuple(a.scale(sign) for a, sign in zip(chi.a, signs))


# -- irregularity ------------------------------------------------------------


def test_irregularity_examples():
    assert irregularity(Oper([L.monomial(-2)])) == 1
    assert irregularity(Oper([L.one(), L.monomial(2)])) == 0
    assert irregularity(Oper([L.zero(), L.monomial(-3)])) == 1


def test_irregularity_undetermined_valuation_propagates():
    with pytest.raises(UndeterminedValuationError):
        irregularity(Oper([L({}, precision=0)]))


def test_irregularity_scalar_and_rescale_invariance():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(1, 3)
        a = [_rand_laurent(rng) for _ in range(n)]
        chi = Oper(a)
        base = irregularity(chi)
        idx = rng.randrange(n)
        scaled = list(a)
        scaled[idx] = scaled[idx].scale(Fraction(rng.randint(1, 5)))
        assert irregularity(Oper(scaled)) == base
        c = Fraction(rng.randint(1, 4))
        rescaled = [
            L({k: v * c**k for k, v in coeff.items()}) for coeff in a
        ]
        assert irregularity(Oper(rescaled)) == base


def test_irregularity_of_miura_with_uniform_pole_order():
    rng = random.Random(37)
    for n in (1, 2, 3):
        for p in (2, 3):
            h = []
            for _ in range(n):
                lead = Fraction(rng.randint(1, 4))
                tail = _rand_laurent(rng, -p + 1, 1)
                h.append(L.monomial(-p, lead) + tail)
            chi = miura(h)
            assert irregularity(chi) == n * (p - 1)
            assert newton_polygon_irregularity(chi) == n * (p - 1)


def test_irregularity_matches_newton_polygon_oracle():
    rng = random.Random(41)
    for _ in range(150):
        n = rng.randint(1, 3)
        a = []
        for _ in range(n):
            if rng.random() < 0.2:
                a.append(L.zero())
            else:
                a.append(_rand_laurent(rng, rng.randint(-4, 0), rng.randint(0, 2)))
        chi = Oper(a)
        if all(c.is_zero() for c in a):
            continue
        assert irregularity(chi) == newton_polygon_irregularity(chi)


# -- connections, cyclic vectors, extraction ---------------------------------


def test_connection_apply_examples():
    conn = Connection([[L.zero()]])
    assert conn.apply([L.monomial(1)]) == [L.one()]
    conn2 = Connection([[L.monomial(-1)]])
    assert conn2.apply([L.one()]) == [L.monomial(-1)]
    diag = Connection(
        [[L.zero(), L.zero()], [L.zero(), L.monomial(-1)]]
    )
    assert diag.apply([L.one(), L.one()]) == [L.zero(), L.monomial(-1)]


def test_connection_apply_dimension_mismatch():
    conn = Connection([[L.zero()]])
    with pytest.raises(DimensionMismatchError):
        conn.apply([L.one(), L.one()])


def test_companion_encoding():
    a1, a2 = L.monomial(-1), L.monomial(2, 3)
    conn = oper_to_connection(Oper([a1, a2]))
    # D e_1 = e_2, D e_2 = a_2 e_1 + a_1 e_2
    assert conn.matrix[1][0] == L.one()
    assert conn.matrix[0][1] == a2
    assert conn.matrix[1][1] == a1


def test_cyclic_search_rank_one():
    conn = Connection([[L.monomial(-2, 5)]])
    found = cyclic_vector_search(conn)
    assert found.components == (L.one(),)


def test_cyclic_search_diagonal_example():
    conn = Connection([[L.zero(), L.zero()], [L.zero(), L.monomial(-1)]])
    # e_1 alone fails
    assert certificate_determinant(conn, [L.one(), L.zero()]).is_zero()
    found = cyclic_vector_search(conn, 3)
    assert found.components == (L.one(), L.one())
    assert found.certificate == L.monomial(-1)


def test_companion_round_trip_is_exact():
    rng = random.Random(43)
    for _ in range(30):
        n = rng.randint(1, 3)
        chi = Oper([_rand_laurent(rng) for _ in range(n)])
        conn = oper_to_connection(chi)
        e1 = [L.one() if r == 0 else L.zero() for r in range(n)]
        assert connection_to_oper(conn, e1) == chi


def test_connection_to_oper_not_cyclic_error():
    conn = Connection([[L.zero(), L.zero()], [L.zero(), L.monomial(-1)]])
    with pytest.raises(NotCyclicError):
        connection_to_oper(conn, [L.one(), L.zero()])


def test_extraction_verified_by_resubstitution():
    rng = random.Random(47)
    for _ in range(12):
        n = rng.randint(2, 3)
        matrix = [
            [_rand_laurent(rng, -1, 1, density=0.4) for _ in range(n)]
            for _ in range(n)
        ]
        conn = Connection(matrix)
        try:
            found = cyclic_vector_search(conn, 2)
        except CyclicVectorNotFoundError:
            continue
        chi = connection_to_oper(conn, found)
        images = [list(found.components)]
        for _ in range(n):
            images.append(conn.apply(images[-1]))
        for r in range(n):
            residual = images[n][r]
            for ell in range(1, n + 1):
                residual = residual - chi.a[ell - 1] * images[n - ell][r]
            assert residual.is_zero_mod_precision()


def test_same_connection_two_cyclic_vectors_same_irregularity():
    # The invariant only samples: independence of the cyclic vector.
    conn = Connection(
        [
            [L.zero(), L.monomial(-3)],
            [L.one(), L.zero()],
        ]
    )
    vec1 = cyclic_vector_search(conn, 2).components
    vec2 = (L.one(), L.one())
    assert not certificate_determinant(conn, vec2).is_zero()
    chi1 = connection_to_oper(conn, vec1)
    chi2 = connection_to_oper(conn, vec2)
    assert irregularity(chi1) == irregularity(chi2)


def test_irregularity_same_for_alternative_cyclic_vectors_sampled():
    # Companion connections carry a known irregularity; extracting through a
    # different cyclic vector must reproduce it.  Truncation can hide a
    # valuation, in which case the sample is retried at higher precision.
    rng = random.Random(53)
    checked = 0
    attempts = 0
    while checked < 12 and attempts < 120:
        attempts += 1
        n = rng.randint(2, 3)
        chi = Oper(
            [_rand_laurent(rng, -rng.randint(1, 3), 1, density=0.7) for _ in range(n)]
        )
        if any(c.is_zero() for c in chi.a):
            continue
        conn = oper_to_connection(chi)
        alt = [L.one()] * n  # all-ones vector, staggered fallback below
        if certificate_determinant(conn, alt).is_zero():
            alt = [L.monomial(k) for k in range(n)]
            if certificate_determinant(conn, alt).is_zero():
                continue
        for precision in (4 * n + 8, 16 * n + 32):
            try:
                extracted = connection_to_oper(conn, alt, working_precision=precision)
                assert irregularity(extracted) == irregularity(chi), chi
                checked += 1
                break
            except UndeterminedValuationError:
                continue
    assert checked >= 8


# -- the minor table against the textbook recursion ---------------------------


def _cofactor_det(matrix):
    """Reference determinant: unmemoised expansion along the first column."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = L.zero()
    for r in range(n):
        if matrix[r][0].is_zero():
            continue
        minor = [row[1:] for i, row in enumerate(matrix) if i != r]
        cof = _cofactor_det(minor)
        if r % 2:
            cof = -cof
        total = total + matrix[r][0] * cof
    return total


def _cramer_oper(conn, vector, order):
    """Reference extraction: n + 1 separate reference determinants."""
    n = conn.rank
    images = [list(vector)]
    for _ in range(n):
        images.append(conn.apply(images[-1]))
    base = [[images[n - 1 - c][r] for c in range(n)] for r in range(n)]
    det = _cofactor_det(base)
    if det.is_zero():
        raise NotCyclicError("certificate determinant vanishes")
    for attempt in range(3):
        try:
            inv = det.invert(order)
            break
        except PrecisionExhaustedError:
            if attempt == 2:
                raise
            order *= 2
    a = []
    for idx in range(n):
        swapped = [
            [images[n][r] if c == idx else base[r][c] for c in range(n)]
            for r in range(n)
        ]
        a.append(_cofactor_det(swapped) * inv)
    return Oper(a)


def _exact(element):
    """Coefficients and precision: equality that cannot hide a precision."""
    return dict(element._coeff), element.precision


# exact zeros, truncated zeros O(t^p), exact polynomials and truncated ones
_entries = st.one_of(
    st.just(L.zero()),
    st.builds(L.zero, st.integers(min_value=-2, max_value=3)),
    st.builds(
        L,
        st.dictionaries(st.integers(min_value=-2, max_value=2), _coefficients,
                        min_size=1, max_size=3),
        st.one_of(st.none(), st.none(), st.integers(min_value=-1, max_value=4)),
    ),
)


@st.composite
def _square_matrices(draw, entries, min_rank, max_rank):
    n = draw(st.integers(min_value=min_rank, max_value=max_rank))
    return [[draw(entries) for _ in range(n)] for _ in range(n)]


@settings(max_examples=150, deadline=None)
@given(_square_matrices(_entries, 1, 5))
def test_determinant_matches_cofactor_recursion(matrix):
    assert _exact(laurent_matrix_det(matrix)) == _exact(_cofactor_det(matrix))


_sparse_entries = st.one_of(
    st.just(L.zero()),
    st.builds(
        L,
        st.dictionaries(st.integers(min_value=-1, max_value=1), _coefficients,
                        min_size=1, max_size=2),
        st.one_of(st.none(), st.none(), st.none(), st.integers(min_value=1, max_value=5)),
    ),
)


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_connection_to_oper_matches_cramer_rule(rank, data):
    conn = Connection(data.draw(_square_matrices(_sparse_entries, rank, rank)))
    exponents = st.integers(min_value=-1, max_value=2)
    vector = [
        L.zero() if e < 0 else L.monomial(e)
        for e in data.draw(st.lists(exponents, min_size=rank, max_size=rank))
    ]
    order = data.draw(st.integers(min_value=2, max_value=12))

    def outcome(extract):
        try:
            chi = extract(conn, vector, order)
        except (NotCyclicError, PrecisionExhaustedError, UndeterminedValuationError) as exc:
            return type(exc)
        return [_exact(a) for a in chi.a]

    assert outcome(connection_to_oper) == outcome(_cramer_oper)


# -- the packed int table against the textbook recursion -----------------------


# exact int entries: the table packs these into one int each
_int_entries = st.one_of(
    st.just(L.zero()),
    st.builds(
        L,
        st.dictionaries(st.integers(min_value=-3, max_value=3),
                        st.integers(min_value=-2**70, max_value=2**70),
                        min_size=1, max_size=3),
    ),
)


def _oper_orders(n):
    """The column orders of connection_to_oper: the determinant, then
    numerator idx with column n in place of column idx."""
    return [range(n)] + [[n if c == idx else c for c in range(n)] for idx in range(n)]


def _assert_minors_match_oracle(rows, orders):
    minors = _cofactor_minors(rows, orders)
    assert len(minors) == len(orders)
    for order, value in zip(orders, minors):
        expected = _cofactor_det([[row[c] for c in order] for row in rows])
        assert _exact(value) == _exact(expected), list(order)


@st.composite
def _int_systems(draw):
    """n x (n+1) int matrices, n = 1..6, with a zero row or column at times."""
    n = draw(st.integers(min_value=1, max_value=6))
    rows = [[draw(_int_entries) for _ in range(n + 1)] for _ in range(n)]
    for r in draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=1)):
        rows[r] = [L.zero()] * (n + 1)
    for c in draw(st.sets(st.integers(min_value=0, max_value=n), max_size=1)):
        for row in rows:
            row[c] = L.zero()
    return rows


@settings(max_examples=80, deadline=None)
@given(_int_systems())
def test_packed_minor_table_matches_cofactor_recursion(rows):
    _assert_minors_match_oracle(rows, _oper_orders(len(rows)))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_packed_table_all_equal_entries(n):
    # every minor of size >= 2 is 0, while the partial sums of its
    # expansion are not
    entry = L({-3: 2**70, 0: -(2**70), 3: 2**70 - 1})
    rows = [[entry] * (n + 1) for _ in range(n)]
    _assert_minors_match_oracle(rows, _oper_orders(n))
    assert laurent_matrix_det([row[:n] for row in rows]).is_zero()


@pytest.mark.parametrize(
    "coeff", [1, -1, 2**64, -(2**64), 2**64 - 1, -(2**64 - 1), 3 * 2**70, -(3 * 2**70)]
)
def test_packed_table_single_entry_at_the_bound(coeff):
    # a 1 x 1 minor is its entry, whose 1-norm sets the whole bound M
    for entry in (L({-3: coeff}), L({2: coeff, 3: -coeff})):
        assert _exact(laurent_matrix_det([[entry]])) == _exact(entry)


def test_packed_table_one_huge_coefficient():
    rng = random.Random(59)
    for n in (2, 3, 4):
        rows = [
            [L({k: rng.randint(-3, 3) for k in (-2, 0, 1)}) for _ in range(n + 1)]
            for _ in range(n)
        ]
        rows[rng.randrange(n)][rng.randrange(n + 1)] = L({-3: -(2**200), 2: 1})
        _assert_minors_match_oracle(rows, _oper_orders(n))


# -- metamorphic irregularity relations ---------------------------------------


def _largest_slope(poles):
    """The last Newton-polygon slope, max over a_j != 0 of (p_j - j) / j."""
    return max(Fraction(p - j, j) for j, p in poles.items())


@st.composite
def _fractional_opers(draw):
    """Opers of rank 2 or 3, a pole order p_j per nonzero a_j, whose largest
    Newton-polygon slope max_j (p_j - j) / j is positive and not an integer.

    A top index j with pole order p not divisible by j sets that slope; every
    other a_i has p_i < i p / j, so its slope is smaller.
    """
    n = draw(st.integers(min_value=2, max_value=3))
    top = draw(st.integers(min_value=2, max_value=n))
    p = draw(st.integers(min_value=top + 1, max_value=8).filter(lambda q: q % top))
    nonzero = st.sampled_from((-3, -2, -1, 1, 2, 3))
    a, poles = [], {}
    for j in range(1, n + 1):
        if j == top:
            pole = p
        else:
            cap = -(-j * p // top) - 1  # the largest pole order below j p / top
            pole = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=cap)))
        if pole is None:
            a.append(L.zero())
            continue
        poles[j] = pole
        terms = {-pole: draw(nonzero)}
        if draw(st.booleans()):
            terms[1 - pole] = draw(nonzero)
        a.append(L(terms))
    slope = _largest_slope(poles)
    assert slope > 0 and slope.denominator > 1
    return Oper(a)


def _pullback(conn, k):
    """t = s^k: d/dt + A(t) becomes d/ds + k s^(k-1) A(s^k)."""
    return Connection([
        [L({k * e + k - 1: k * c for e, c in entry.items()}) for entry in row]
        for row in conn.matrix
    ])


def _direct_sum(first, second):
    zero = L.zero()
    n, m = first.rank, second.rank
    return Connection(
        [list(row) + [zero] * m for row in first.matrix]
        + [[zero] * n + list(row) for row in second.matrix]
    )


def _irregularities(chi):
    return irregularity(chi), newton_polygon_irregularity(chi)


def _extracted_irregularities(conn):
    """Both formulas on the oper of a found cyclic vector of conn."""
    return _irregularities(connection_to_oper(conn, cyclic_vector_search(conn)))


_SLOPE_HALF = Oper([L.zero(), L.monomial(-3)])  # slope 1/2, Irr 1


@settings(max_examples=40, deadline=None)
@given(_fractional_opers(), st.sampled_from((2, 3)))
@example(_SLOPE_HALF, 2)
@example(Oper([L.zero(), L.zero(), L.monomial(-4, 2)]), 3)  # slope 1/3
@example(Oper([L.monomial(-1), L.monomial(-5)]), 2)  # slope 3/2
def test_pullback_multiplies_irregularity(chi, k):
    base = _irregularities(chi)
    pulled = _extracted_irregularities(_pullback(oper_to_connection(chi), k))
    assert pulled == (k * base[0], k * base[1])


@settings(max_examples=30, deadline=None)
@given(_fractional_opers(), _fractional_opers())
@example(_SLOPE_HALF, Oper([L.monomial(-1), L.zero(), L.monomial(-5, -2)]))
@example(_SLOPE_HALF, _SLOPE_HALF)
def test_direct_sum_adds_irregularity(first, second):
    a, b = _irregularities(first), _irregularities(second)
    conn = _direct_sum(oper_to_connection(first), oper_to_connection(second))
    assert _extracted_irregularities(conn) == (a[0] + b[0], a[1] + b[1])


def _matmul(x, y):
    return [[L.dot(zip(row, col)) for col in zip(*y)] for row in x]


def _gauge(conn, factors):
    """A -> g^-1 A g + g^-1 g' for g the product of the factors I + c t^k E_ij
    (i != j), unipotent over Z[t, t^-1]: g^-1 is the product of the
    I - c t^k E_ij in the reverse order, so it stays exact."""
    n = conn.rank
    identity = [[L.one() if r == s else L.zero() for s in range(n)] for r in range(n)]

    def elementary(i, j, c, k):
        factor = [list(row) for row in identity]
        factor[i][j] = L.monomial(k, c)
        return factor

    g = inverse = identity
    for i, j, c, k in factors:
        g = _matmul(g, elementary(i, j, c, k))
        inverse = _matmul(elementary(i, j, -c, k), inverse)
    assert _matmul(inverse, g) == identity
    derivative = [[e.derivative() for e in row] for row in g]
    matrix = _matmul(_matmul(inverse, conn.matrix), g)
    correction = _matmul(inverse, derivative)
    return Connection([[a + b for a, b in zip(row, extra)]
                       for row, extra in zip(matrix, correction)])


def _gauge_factors(n):
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    factor = st.tuples(st.sampled_from(pairs), st.sampled_from((-2, -1, 1, 2)),
                       st.integers(min_value=-2, max_value=2))
    return st.lists(factor.map(lambda f: (*f[0], f[1], f[2])), min_size=1, max_size=3)


@settings(max_examples=30, deadline=None)
@given(_fractional_opers().flatmap(
    lambda chi: st.tuples(st.just(chi), _gauge_factors(chi.rank))))
@example((_SLOPE_HALF, [(0, 1, 1, -1)]))
@example((Oper([L.monomial(-1), L.monomial(-5)]), [(1, 0, 2, 2), (0, 1, -1, -2)]))
# slope 4/3, Irr 4: without its a_3 term the formula reads 1 on the found
# oper (v(a_2) = -3) but 0 on the companion one (a_1 = a_2 = 0)
@example((Oper([L.zero(), L.zero(), L.monomial(-7)]), [(1, 0, -1, 2)]))
def test_gauge_transformation_keeps_irregularity(case):
    # D = d + A and d + g^-1 A g + g^-1 g' are one connection in the bases
    # e and g e, so the oper of any cyclic vector has the same Irr
    chi, factors = case
    gauged = _gauge(oper_to_connection(chi), factors)
    assert _extracted_irregularities(gauged) == _irregularities(chi)


def test_oper_json_round_trip():
    chi = Oper([L.monomial(-1), L({0: Fraction(1, 2), -2: 3})])
    assert Oper.from_json(chi.to_json()) == chi
    conn = oper_to_connection(chi)
    assert Connection.from_json(conn.to_json()).matrix == conn.matrix


# -- integer images and recorded oper outputs ---------------------------------


def _reference_apply(conn, vector):
    """D(v) = v' + A v, each row summed left to right."""
    out = []
    for row, entry in zip(conn.matrix, vector):
        total = entry.derivative()
        for a, x in zip(row, vector):
            total = total + a * x
        out.append(total)
    return out


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_scaled_images_are_exact_multiples(data):
    # entries with distinct denominators (up to 5) and truncated entries
    conn = Connection(data.draw(_square_matrices(_entries, 1, 4)))
    n = conn.rank
    vector = [data.draw(_entries) for _ in range(n)]
    plain = [list(vector)]
    for _ in range(n):
        plain.append(conn.apply(plain[-1]))
        assert [_exact(x) for x in plain[-1]] == [
            _exact(x) for x in _reference_apply(conn, plain[-2])
        ]
    scale = conn.denominator
    for k, image in enumerate(conn._images(vector, n + 1)):
        assert [_exact(w) for w in image] == [_exact(x.scale(scale**k)) for x in plain[k]]
    det = _cofactor_det([[plain[c][r] for c in range(n)] for r in range(n)])
    assert _exact(certificate_determinant(conn, vector)) == _exact(det)


def _exact_images(images):
    return [[_exact(x) for x in image] for image in images]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_image_memo_never_leaks(data):
    # the connection keeps the images of the last vector; whatever it was
    # asked before, every answer equals that of a fresh connection
    conn = Connection(data.draw(_square_matrices(_entries, 1, 4)))
    n = conn.rank
    counts = st.integers(min_value=1, max_value=n + 1)
    v = [data.draw(_entries) for _ in range(n)]
    if data.draw(st.booleans()):  # equal coefficients, maybe another precision
        u = [x.truncate(data.draw(st.integers(min_value=-2, max_value=5))) for x in v]
    else:
        u = [data.draw(_entries) for _ in range(n)]
    for before, after in ((v, u), (u, v), (v, v)):
        conn._images(before, data.draw(counts))
        k = data.draw(counts)
        assert _exact_images(conn._images(after, k)) == _exact_images(
            Connection(conn.matrix)._images(after, k)
        )
    conn._images(v, data.draw(counts))
    assert [_exact(x) for x in conn.apply(v)] == [
        _exact(x) for x in Connection(conn.matrix).apply(v)
    ]
    # extending the memo leaves images handed out earlier as they were
    short = conn._images(u, 1)
    conn._images(u, n + 1)
    assert len(short) == 1


@pytest.mark.parametrize("rank, seed, truncated", [(3, 0, False), (4, 1, False),
                                                   (5, 0, False), (4, 0, True)])
def test_extraction_after_search_equals_a_fresh_extraction(rank, seed, truncated):
    # the extraction extends the images the search left; a fresh connection
    # given the same vector as a plain list computes them all again.  A
    # truncated entry keeps the minor table in Laurent arithmetic.
    conn = _generic_connection(seed, rank)
    if truncated:
        matrix = [list(row) for row in conn.matrix]
        matrix[0][0] = matrix[0][0].truncate(4)
        conn = Connection(matrix)
    found = cyclic_vector_search(conn)
    chi = connection_to_oper(conn, found)
    fresh = connection_to_oper(Connection(conn.matrix), list(found.components))
    assert [_exact(a) for a in chi.a] == [_exact(a) for a in fresh.a]


@pytest.mark.parametrize("rank", [2, 3, 4, 5, 6])
def test_cramer_factor_in_the_division_equals_scaling_the_numerator(rank):
    # connection_to_oper divides by L^(idx+1) inside the division; scaling
    # each numerator by that Fraction first gives the same oper
    conn = _generic_connection(2, rank)
    assert conn.denominator > 1
    found = cyclic_vector_search(conn)
    images = conn._images(found.components, rank + 1)
    augmented = [[images[rank - 1 - c][r] for c in range(rank)] + [images[rank][r]]
                 for r in range(rank)]
    det, *numerators = _cofactor_minors(augmented, _oper_orders(rank))
    order = 4 * rank + 8
    expected = [
        _exact(numerator.scale(Fraction(1, conn.denominator ** (idx + 1))).divide(det, order))
        for idx, numerator in enumerate(numerators)
    ]
    assert [_exact(a) for a in connection_to_oper(conn, found).a] == expected


def _generic_connection(seed, rank):
    """A connection shaped like the benchmark's: every entry is
    c_-2 t^-2 + c_-1 t^-1 + c_0 with nonzero c_k = num/den."""
    rng = random.Random(f"oper-digest:{seed}:{rank}")

    def entry():
        return L({
            e: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))
            for e in (-2, -1, 0)
        })

    return Connection([[entry() for _ in range(rank)] for _ in range(rank)])


def _digest(obj):
    return hashlib.sha256(json.dumps(obj.to_json(), sort_keys=True).encode()).hexdigest()


# SHA-256 of the cyclic vector's and the oper's JSON, recorded from the
# Fraction implementation that preceded the integer images and division
_OPER_DIGESTS = {
    (4, 0): (
        "28dc10b616ed87024fc20b97a127dd269b37fd2e568cb0d1f5f50d711e2c41f5",
        "ad4dec7656b55872ba0fffaf8770e88e773769eecff816f8a6d9261e91723c10",
    ),
    (4, 1): (
        "c87f5769f52ed63b174e909368445d4add07a9022ed4d9b3a7c0f570808dab72",
        "5a43ea410e4e75b3460ea1722679b8d977ff32fd66ab3672257fb3d9a298bbbb",
    ),
    (5, 0): (
        "df8cbd5f03c79e0b4477afb85e4d07cab6a405c7aa283e228ed8e40c31f50c08",
        "98aa328aa761327dc4a55c2b9892ec572280681f785192b4ea983da4547d1216",
    ),
    (5, 1): (
        "e38f722cd7ceb324086050f35c31ad41596190c1919f495d9b224666771d98f9",
        "0c4e52fad30d5249e3535c6eba4caa9832172a17bb6b0013286640f535d92f56",
    ),
    (6, 0): (
        "225334db248c8c86b6fc8a49f0ca5276cc65ab3640ed1c011772401c109c1e51",
        "69cbe86a098010b2a88dd16048a7c230f7b586eb37b2aa6d38f727ca822ad1f3",
    ),
    (6, 1): (
        "198b3311d1cdb53a5d31cd228cb731ff2e82442dab71d54b00ab09c2a02999c1",
        "e23cba40c31957b6937719baba0e5070ed09bbc66fad6b1bbc9718f46083a46d",
    ),
    # recorded from the LaurentElement minor table that preceded the packed
    # int table, where the packing width is largest
    (7, 0): (
        "16dce6a425283dc472e8d05cafd06322a0d09623516f1bef39cbefc8393aedd9",
        "92ca184651ac8d078146224025edf2ed7aa553e5f78487720951b35a65d6f133",
    ),
    (7, 1): (
        "24f4a192fd81cd839da3db64c85c47ec21f12ac4670fa49897aedb7eca64e728",
        "4ce845ac4039034054f3187059200d93676abc2f1b896267a347f8b06ce2e0bd",
    ),
    (8, 0): (
        "847f79efaf491411658cf9cf9f8093f73dddde1d7ebc04413867d961e4581c9e",
        "c9f49e398211868db11fe4dafd0d4fd06dfae7c1335cd81b515fd4c9044a2c43",
    ),
    (8, 1): (
        "fc6fe819c8686c6764d7f146746f21c75e696aa5f8fafc10234d4fd8c6e60bed",
        "4fb12fb9deecf870b1b217068fe05ee4b1c8de98e0d023163c5688216dbfd383",
    ),
}


@pytest.mark.parametrize("rank, seed", sorted(_OPER_DIGESTS))
def test_generic_opers_match_recorded_digests(rank, seed):
    conn = _generic_connection(seed, rank)
    found = cyclic_vector_search(conn)
    chi = connection_to_oper(conn, found)
    assert (_digest(found), _digest(chi)) == _OPER_DIGESTS[rank, seed]
