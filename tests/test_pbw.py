"""Straightening engine, Cartan projection, and associated-graded symbols."""

import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from critcenter.algebra import AffineAlgebra, Gen, bracket
from critcenter.errors import DomainError, ValidationError
from critcenter.laurent import LaurentElement
from critcenter.modules import ModuleVector, RootModule, root_fn_km0
from critcenter.lincomb import _accumulate, canonical
from critcenter.pbw import NCPoly, _insert, _project_word, _straighten, hc_project
from critcenter.sugawara import ss_vectors
from oracles import (
    TAU, CommPoly, TauPoly, from_word, straighten_with_tau, symbol, vacuum_module,
)


def _alg(n=2):
    return AffineAlgebra(n)


def _word_poly(alg, *tokens):
    return NCPoly(alg, [(tokens, 1)])


def test_tau_straightening_matches_derivation_rule():
    # The tests' tau product: e[1,1;-1] tau = tau e[1,1;-1] - e[1,1;-2]
    alg = _alg()
    p = TauPoly(alg, {(0, (Gen(1, 1, -1), TAU)): 1})
    expected = TauPoly(
        alg,
        {(1, (Gen(1, 1, -1),)): 1, (0, (Gen(1, 1, -2),)): -1},
    )
    assert p == expected


def test_commuting_cartan_word_is_stable():
    alg = _alg()
    word = (Gen(1, 1, -1), Gen(2, 2, -1))
    assert _word_poly(alg, *word) == NCPoly(alg, {word: 1})


def test_offdiagonal_swap_produces_bracket_correction():
    alg = _alg()
    p = _word_poly(alg, Gen(2, 1, -1), Gen(1, 2, -1))
    expected = NCPoly(
        alg,
        {
            (Gen(1, 2, -1), Gen(2, 1, -1)): 1,
            (Gen(2, 2, -2),): 1,
            (Gen(1, 1, -2),): -1,
        },
    )
    assert p == expected


def test_straightening_cache_is_one_table_of_words():
    # NCPoly's constructor and product share one {raw word: normal form}
    # table on the algebra, with no per-order level; the tests' tau oracle
    # keeps its own.
    alg = _alg()
    x, y = Gen(2, 1, -1), Gen(1, 2, -1)
    _word_poly(alg, x) * _word_poly(alg, y)
    TauPoly.tau(alg) * TauPoly.generator(alg, x)
    cache = alg._straighten_cache
    assert (x, y) in cache
    assert all(type(w) is tuple and all(type(g) is Gen for g in w) for w in cache)


def test_scalar_bilinearity_and_unit():
    alg = _alg()
    m = from_word(alg, (Gen(1, 1, -1),))
    mp = from_word(alg, (Gen(2, 2, -3),))
    assert m.scale(2) * mp.scale(3) == (m * mp).scale(6)
    one = from_word(alg, ())
    p = m * mp + from_word(alg, (Gen(2, 1, 1),))
    assert p * one == p and one * p == p
    assert 3 * p == p * 3 == p.scale(3)


def test_tau_times_generator_already_normal():
    alg = _alg()
    tau = TauPoly.tau(alg)
    g = TauPoly.generator(alg, Gen(1, 1, -1))
    assert (tau * g)._terms == {(1, (Gen(1, 1, -1),)): 1}
    assert (g * tau).tau_component(0) == from_word(alg, (Gen(1, 1, -2),), -1)


def test_confluence_of_straightening():
    # The library resolves the leftmost out-of-order pair first, the oracle
    # the rightmost; the normal forms must agree.
    rng = random.Random(7)
    for n in (2, 3):
        alg = _alg(n)
        for _ in range(120):
            word = tuple(
                Gen(rng.randint(1, n), rng.randint(1, n), rng.randint(-3, 3))
                for _ in range(rng.randint(2, 4))
            )
            right = straighten_with_tau(alg, word)
            assert all(k == 0 for k, _w in right)
            assert NCPoly(alg, [(word, 1)]) == NCPoly(
                alg, {w: c for (_k, w), c in right.items()}
            )


def test_nc_mul_associativity_sampled():
    # The library product on words, and the tests' product with tau.
    rng = random.Random(11)
    alg = _alg(2)

    def rand_terms(max_tau):
        terms = {}
        for _ in range(rng.randint(1, 2)):
            k = rng.randint(0, max_tau)
            word = tuple(
                Gen(rng.randint(1, 2), rng.randint(1, 2), rng.randint(-2, 2))
                for _ in range(rng.randint(0, 2))
            )
            terms[(k, word)] = Fraction(rng.randint(-3, 3))
        return terms

    for _ in range(40):
        p, q, r = (NCPoly(alg, {w: c for (_k, w), c in rand_terms(0).items()})
                   for _ in range(3))
        assert (p * q) * r == p * (q * r)
        p, q, r = (TauPoly(alg, rand_terms(1)) for _ in range(3))
        assert (p * q) * r == p * (q * r)


def test_hc_project_examples():
    fam = ss_vectors(2)
    alg = fam.S[0].algebra
    # the canonical projection sends S_2 to the ascending diagonal product
    assert hc_project(fam.S[1]) == fam.omega[1]
    assert str(fam.omega[1]) == "-e[1,1;-2] + e[1,1;-1]*e[2,2;-1]"
    # a Cartan monomial survives untouched
    mono = from_word(alg, (Gen(1, 1, -3),))
    assert hc_project(mono) == mono


def test_hc_project_offdiagonal_pair():
    # In the triangular presentation e_12[-1]e_21[-1] carries a diagonal
    # correction, so the canonical projection does not kill it outright,
    alg = _alg()
    p = _word_poly(alg, Gen(1, 2, -1), Gen(2, 1, -1))
    expected = NCPoly(alg, {(Gen(1, 1, -2),): 1, (Gen(2, 2, -2),): -1})
    assert hc_project(p) == expected
    # while the element lowering first, e_21[-1] e_12[-1], projects to zero.
    q = _word_poly(alg, Gen(2, 1, -1), Gen(1, 2, -1))
    assert hc_project(q).is_zero()


def test_hc_project_domain_errors():
    alg = _alg()
    with pytest.raises(DomainError):
        hc_project(from_word(alg, (Gen(1, 1, 0),)))
    with pytest.raises(DomainError):
        hc_project(from_word(alg, (Gen(2, 1, -1), Gen(1, 2, 1))))


def _triangular_key(g):
    # Lower-triangular factors first, then Cartan, then upper-triangular;
    # ties broken by degree and index.
    block = 0 if g.i > g.j else (1 if g.i == g.j else 2)
    return (block, g.u, g.i, g.j)


def _triangular_straighten(alg, word, cache):
    """Normal form of a word in the triangular PBW order, by adjacent swaps."""
    hit = cache.get(word)
    if hit is not None:
        return hit
    keys = [_triangular_key(g) for g in word]
    bad = next((k for k in range(len(word) - 1) if keys[k] > keys[k + 1]), None)
    if bad is None:
        out = {word: 1}
    else:
        x, y = word[bad], word[bad + 1]
        head, tail = word[:bad], word[bad + 2 :]
        out = {}
        _accumulate(out, _triangular_straighten(alg, head + (y, x) + tail, cache))
        lie, central = alg.bracket(x, y)
        for g, c in lie:
            _accumulate(out, _triangular_straighten(alg, head + (g,) + tail, cache), c)
        if central:
            _accumulate(out, _triangular_straighten(alg, head + tail, cache), central)
    cache[word] = out
    return out


def _project_by_deletion(alg, terms):
    """Oracle: straighten in the triangular order, then delete every monomial
    with an off-diagonal factor."""
    cache, table = {}, {}
    for word, c in terms:
        tri = _triangular_straighten(alg, word, cache)
        _accumulate(
            table,
            {key: c2 for key, c2 in tri.items() if all(g.i == g.j for g in key)},
            c,
        )
    return NCPoly._adopt(alg, table)


_negative_words = st.integers(1, 3).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.builds(Gen, st.integers(1, n), st.integers(1, n), st.integers(-3, -1)),
            max_size=5,
        ).map(tuple),
    )
)


@settings(max_examples=150, deadline=None)
@given(_negative_words)
@example((2, (Gen(2, 1, -1), Gen(2, 1, -1), Gen(1, 2, -2))))
@example((3, (Gen(1, 2, -1), Gen(2, 3, -1), Gen(3, 1, -1), Gen(1, 2, -1))))
@example((3, (Gen(1, 3, -2), Gen(1, 3, -2), Gen(3, 1, -1), Gen(3, 1, -1))))
def test_hc_project_matches_triangular_deletion(case):
    # The pruned recursion equals straighten-and-delete on raw words and on
    # their deglex normal forms, for words of any weight, with repeated
    # factors.
    n, word = case
    alg = AffineAlgebra(n)
    projected = _project_word(alg, word, {})
    assert NCPoly._adopt(alg, dict(projected)) == _project_by_deletion(alg, [(word, 1)])
    p = from_word(alg, word, 3)
    assert hc_project(p) == _project_by_deletion(alg, p._terms.items())


def _negative_gens(n):
    return st.builds(Gen, st.integers(1, n), st.integers(1, n), st.integers(-3, -1))


_insertions = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        _negative_gens(n),
        st.lists(_negative_gens(n), max_size=5).map(lambda w: tuple(sorted(w))),
    )
)

_shared_insertion_memos = {}


@settings(max_examples=200, deadline=None)
@given(_insertions)
@example((2, Gen(2, 1, -1), (Gen(1, 2, -2), Gen(1, 2, -1), Gen(2, 1, -1))))
@example((3, Gen(3, 1, -1), (Gen(1, 2, -3), Gen(2, 3, -2), Gen(1, 3, -1))))
@example((2, Gen(1, 2, 1), (Gen(2, 1, -1), Gen(2, 2, -1))))  # a central term
def test_left_insertion_matches_straightening(case):
    # With every depth out of reach every factor is a creation factor, so
    # _insert(g, word) is the normal form of g * word for a normal word, for
    # g of any degree, with a fresh memo and with one memo per rank shared
    # across examples.
    n, g, word = case
    alg = AffineAlgebra(n)
    deep = {(i, j): 10**9 for i in range(1, n + 1) for j in range(1, n + 1)}
    expected = _straighten(alg, (g,) + word, {})
    assert _insert(alg, deep, g, word, {}) == expected
    memo = _shared_insertion_memos.setdefault(n, {})
    assert _insert(alg, deep, g, word, memo) == expected


@settings(max_examples=150, deadline=None)
@given(_insertions)
@example((2, Gen(2, 1, -1), (Gen(1, 2, -2), Gen(1, 2, -1), Gen(2, 1, -1))))
def test_vacuum_insertion_matches_vacuum_module_action(case):
    # The all-zero depth table is the vacuum module: for a head of negative
    # degree, inserting it equals the oracle module's action, and both equal
    # the normal form of the product.
    n, g, word = case
    alg = AffineAlgebra(n)
    vacuum = {(i, j): 0 for i in range(1, n + 1) for j in range(1, n + 1)}
    expected = vacuum_module(n).act(g, ModuleVector({word: 1}))._terms
    assert _insert(alg, vacuum, g, word, {}) == expected
    assert expected == _straighten(alg, (g,) + word, {})


def test_hc_project_of_ss_is_omega_at_ranks_5_and_6():
    for n in (5, 6):
        fam = ss_vectors(n)
        assert [hc_project(s) for s in fam.S] == list(fam.omega), n


def test_hc_multiplicative_on_central_products():
    for n in (2, 3):
        fam = ss_vectors(n)
        for i in range(n):
            for j in range(n):
                lhs = hc_project(fam.S[i] * fam.S[j])
                rhs = hc_project(fam.S[i]) * hc_project(fam.S[j])
                assert lhs == rhs


def test_symbol_examples():
    fam = ss_vectors(2)
    assert symbol(fam.S[0]) == CommPoly(
        {((1, 1, -1),): 1, ((2, 2, -1),): 1}
    )
    assert symbol(fam.S[1]) == CommPoly(
        {
            tuple(sorted([(1, 1, -1), (2, 2, -1)])): 1,
            tuple(sorted([(1, 2, -1), (2, 1, -1)])): -1,
        }
    )
    alg = fam.S[0].algebra
    g = from_word(alg, (Gen(2, 1, -4),))
    assert symbol(g) == CommPoly.symbol(2, 1, -4)


def test_symbol_multiplicative_without_cancellation():
    rng = random.Random(13)
    alg = _alg(3)
    for _ in range(50):
        w1 = tuple(
            Gen(rng.randint(1, 3), rng.randint(1, 3), rng.randint(-3, -1))
            for _ in range(rng.randint(1, 2))
        )
        w2 = tuple(
            Gen(rng.randint(1, 3), rng.randint(1, 3), rng.randint(-3, -1))
            for _ in range(rng.randint(1, 2))
        )
        p = _word_poly(alg, *w1)
        q = _word_poly(alg, *w2)
        assert symbol(p * q) == symbol(p) * symbol(q)


_raw_terms = st.lists(
    st.tuples(
        st.lists(st.builds(Gen, st.integers(1, 2), st.integers(1, 2), st.integers(-2, 1)),
                 max_size=3),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
    ),
    max_size=5,
)


@given(_raw_terms)
@example([([Gen(1, 2, -1)], 1), ([], Fraction(-3, 2))])
@example([([Gen(2, 1, -1), Gen(2, 1, -1)], Fraction(5, 3)), ([], -1)])
def test_json_round_trip(raw):
    # sums of any words (repeated factors included), straightened
    alg = _alg()
    p = NCPoly(alg, [(tuple(word), c) for word, c in raw])
    q = NCPoly.from_json(alg, p.to_json())
    assert q == p
    assert str(q) == str(p)


def test_json_word_is_a_product_read_left_to_right():
    # e[2,1;-1] e[1,2;-1] is not normal: it straightens on input, to
    # e[1,2;-1] e[2,1;-1] + [e[2,1;-1], e[1,2;-1]]
    alg = _alg()
    x, y = Gen(2, 1, -1), Gen(1, 2, -1)
    parsed = NCPoly.from_json(alg, [{"coeff": "1", "word": ["e[2,1;-1]", "e[1,2;-1]"]}])
    assert parsed == from_word(alg, (y, x)) + NCPoly(
        alg, {(Gen(2, 2, -2),): 1, (Gen(1, 1, -2),): -1}
    )
    # "one" is skipped
    data = [{"coeff": "-2/3", "word": ["one", "e[2,1;-1]", "one", "e[1,2;-1]"]}]
    assert NCPoly.from_json(alg, data) == parsed.scale(Fraction(-2, 3))
    # tau is not a factor of an NC polynomial
    for bad in ("tau", "tau^2", "tau^", "tau^-1", "tau^x"):
        with pytest.raises(ValidationError):
            NCPoly.from_json(alg, [{"coeff": "1", "word": [bad, "e[1,1;-1]"]}])


def test_comm_poly_text_folds_signs():
    p = CommPoly({((1, 2, -1), (2, 1, -1)): -1, ((1, 1, -1),): 1, (): Fraction(1, 2)})
    assert str(p) == "1/2*1 + x[1,1;-1] - x[1,2;-1]*x[2,1;-1]"
    assert str(-CommPoly.symbol(1, 1, -2)) == "-x[1,1;-2]"
    assert str(CommPoly()) == "0"


# -- linear sums ---------------------------------------------------------------

_words = st.lists(
    st.builds(Gen, st.integers(1, 2), st.integers(1, 2), st.integers(-2, 1)),
    max_size=2,
).map(lambda w: tuple(sorted(w)))
_terms = st.lists(
    st.tuples(
        _words,
        st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
    ),
    max_size=6,
)


@given(_terms, _terms, st.integers(0, 6), st.integers(0, 2))
def test_cancelling_sums_store_no_zero(a_terms, b_terms, cancel, tau_pow):
    # b repeats the first `cancel` terms of a with opposite signs, so a + b
    # cancels them; the sum must match the public constructor on the merged
    # terms and hold only nonzero scalars in canonical form.
    b_terms = b_terms + [(w, -c) for w, c in a_terms[:cancel]]
    alg = _alg(2)

    def poly(terms):
        return NCPoly(alg, terms)

    def tau_poly(terms):
        return TauPoly(alg, [((tau_pow, w), c) for w, c in terms])

    def comm(terms):
        return CommPoly([([(g.i, g.j, g.u) for g in w], c) for w, c in terms])

    cases = [
        (ModuleVector(a_terms), ModuleVector(b_terms), ModuleVector(a_terms + b_terms)),
        (poly(a_terms), poly(b_terms), poly(a_terms + b_terms)),
        (tau_poly(a_terms), tau_poly(b_terms), tau_poly(a_terms + b_terms)),
        (comm(a_terms), comm(b_terms), comm(a_terms + b_terms)),
    ]
    for a, b, merged in cases:
        for total, expected in ((a + b, merged), (a - a, a.scale(0)), (a + b - b, a)):
            assert total == expected
            assert hash(total) == hash(expected)
            _assert_canonical(total)
            _assert_canonical(expected)
        for scalar in (Fraction(4), Fraction(1, 2), -3):
            _assert_canonical(a.scale(scalar))


def _assert_canonical(combination):
    # Every value is an int, or a Fraction that is not integral; never zero.
    for c in combination._terms.values():
        assert c
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c


def test_fraction_coefficients_stay_exact():
    # Every central term is an int; a Fraction input coefficient must come
    # through the bracket's central term, straightening and module action as
    # an exact Fraction, and turn back into an int where it is integral.
    x, y = Gen(1, 2, 1), Gen(2, 1, -1)
    lie, central = bracket(x, y, 2)
    assert lie == [(Gen(1, 1, 0), 1), (Gen(2, 2, 0), -1)]
    assert central == -2 and type(central) is int

    alg = AffineAlgebra(2)
    c = Fraction(2, 3)
    p = NCPoly(alg, [((x, y), c)])
    expected = {(y, x): c, (Gen(1, 1, 0),): c, (Gen(2, 2, 0),): -c, (): -2 * c}
    assert p == NCPoly(alg, expected)
    _assert_canonical(p)
    scaled = p.scale(Fraction(3, 4))  # the constant term becomes the int -1
    assert scaled.coefficient(()) == -1
    _assert_canonical(scaled)

    mod = RootModule(root_fn_km0(2, 1))
    v = mod.act(x, mod.act(y, ModuleVector({(): c})))
    assert v == ModuleVector({(Gen(1, 1, 0),): c, (Gen(2, 2, 0),): -c, (): -2 * c})
    _assert_canonical(v)


@pytest.mark.parametrize(
    "build",
    [
        # a float became its binary expansion, 3602879701896397/36028797018963968
        lambda: NCPoly(AffineAlgebra(2), {(Gen(1, 1, -1),): 0.1}),
        # a bool was read as the coefficient 1
        lambda: ModuleVector({(): True}),
        lambda: CommPoly({(): 1.0}),
        lambda: from_word(_alg(), ()).scale(0.5),
    ],
)
def test_inexact_scalars_are_rejected(build):
    with pytest.raises(ValidationError):
        build()


def test_a_generator_is_not_a_scalar():
    # Gen subclasses int; its code must not scale a polynomial.
    g = Gen(1, 1, -1)
    p = from_word(_alg(), (g,))
    with pytest.raises(TypeError):
        p * g
    with pytest.raises(TypeError):
        g * p


@pytest.mark.parametrize("value", ["1/2", "1e5", Decimal("0.5")], ids=repr)
@pytest.mark.parametrize(
    "build",
    [
        canonical,
        lambda c: LaurentElement({0: c}),
        lambda c: ModuleVector({(): c}),
        lambda c: NCPoly(AffineAlgebra(2), {(Gen(1, 1, -1),): c}),
        lambda c: ModuleVector.vacuum().scale(c),
        lambda c: LaurentElement.one().scale(c),
    ],
    ids=["canonical", "LaurentElement", "ModuleVector", "NCPoly", "LinComb.scale",
         "LaurentElement.scale"],
)
def test_only_int_and_fraction_are_scalars(build, value):
    # A string or a Decimal was parsed by Fraction(value): "1e5" became
    # 100000, and "1e999999999" would build 10**999999999.  Text is read by
    # scalar_from_str alone.
    with pytest.raises(ValidationError):
        build(value)
