"""Straightening engine, Cartan projection, and associated-graded symbols."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from critcenter.algebra import TAU, AffineAlgebra, Gen, gen_sort_key
from critcenter.errors import DomainError
from critcenter.modules import ModuleVector
from critcenter.pbw import CommPoly, NCPoly, hc_project, nc_normal_form, symbol
from critcenter.sugawara import ss_vectors


def _alg(n=2):
    return AffineAlgebra.critical(n)


def _word_poly(alg, *tokens):
    return nc_normal_form(alg, [(1, tokens)])


def test_tau_straightening_matches_derivation_rule():
    alg = _alg()
    p = _word_poly(alg, Gen(1, 1, -1), TAU)
    expected = NCPoly(
        alg,
        {(1, (Gen(1, 1, -1),)): 1, (0, (Gen(1, 1, -2),)): -1},
        _normal=True,
    )
    assert p == expected


def test_commuting_cartan_word_is_stable():
    alg = _alg()
    word = (Gen(1, 1, -1), Gen(2, 2, -1))
    assert _word_poly(alg, *word) == NCPoly(alg, {(0, word): 1}, _normal=True)


def test_offdiagonal_swap_produces_bracket_correction():
    alg = _alg()
    p = _word_poly(alg, Gen(2, 1, -1), Gen(1, 2, -1))
    expected = NCPoly(
        alg,
        {
            (0, (Gen(1, 2, -1), Gen(2, 1, -1))): 1,
            (0, (Gen(2, 2, -2),)): 1,
            (0, (Gen(1, 1, -2),)): -1,
        },
        _normal=True,
    )
    assert p == expected


def test_scalar_bilinearity_and_unit():
    alg = _alg()
    m = NCPoly.generator(alg, Gen(1, 1, -1))
    mp = NCPoly.generator(alg, Gen(2, 2, -3))
    assert m.scale(2) * mp.scale(3) == (m * mp).scale(6)
    one = NCPoly.one(alg)
    p = m * mp + NCPoly.tau(alg)
    assert p * one == p and one * p == p


def test_tau_times_generator_already_normal():
    alg = _alg()
    tau = NCPoly.tau(alg)
    g = NCPoly.generator(alg, Gen(1, 1, -1))
    assert (tau * g).coefficient(1, (Gen(1, 1, -1),)) == 1


def _straighten_rightmost(alg, word, coeff=Fraction(1)):
    """Independent straightener resolving the rightmost bad pair first."""
    out = {}
    stack = [(coeff, tuple(word))]
    while stack:
        c, w = stack.pop()
        bad = None
        for idx in range(len(w) - 2, -1, -1):
            x, y = w[idx], w[idx + 1]
            if x is TAU:
                continue
            if y is TAU or gen_sort_key(x) > gen_sort_key(y):
                bad = idx
                break
        if bad is None:
            k = 0
            while k < len(w) and w[k] is TAU:
                k += 1
            key = (k, w[k:])
            out[key] = out.get(key, Fraction(0)) + c
            if not out[key]:
                del out[key]
            continue
        x, y = w[bad], w[bad + 1]
        head, tail = w[:bad], w[bad + 2 :]
        stack.append((c, head + (y, x) + tail))
        if y is TAU:
            if x.u:
                stack.append((c * x.u, head + (x.shifted(-1),) + tail))
        else:
            lie, central = alg.bracket(x, y)
            for g, cc in lie:
                stack.append((c * cc, head + (g,) + tail))
            if central:
                stack.append((c * central, head + tail))
    return out


def test_confluence_of_straightening():
    rng = random.Random(7)
    for n in (2, 3):
        alg = _alg(n)
        for _ in range(120):
            word = []
            for _ in range(3):
                if rng.random() < 0.2:
                    word.append(TAU)
                else:
                    word.append(
                        Gen(rng.randint(1, n), rng.randint(1, n), rng.randint(-3, 3))
                    )
            word = tuple(word)
            left = nc_normal_form(alg, [(1, word)])
            right = _straighten_rightmost(alg, word)
            assert left == NCPoly(alg, right, _normal=True)


def test_nc_mul_associativity_sampled():
    rng = random.Random(11)
    alg = _alg(2)
    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 2)):
            k = rng.randint(0, 1)
            word = tuple(
                Gen(rng.randint(1, 2), rng.randint(1, 2), rng.randint(-2, 2))
                for _ in range(rng.randint(0, 2))
            )
            terms[(k, word)] = Fraction(rng.randint(-3, 3))
        return NCPoly(alg, terms)

    for _ in range(40):
        p, q, r = rand_poly(), rand_poly(), rand_poly()
        assert (p * q) * r == p * (q * r)


def test_hc_project_examples():
    fam = ss_vectors(2)
    alg = fam.S[0].algebra
    # the canonical projection sends S_2 to the ascending diagonal product
    assert hc_project(fam.S[1]) == fam.omega[1]
    assert str(fam.omega[1]) == "-e[1,1;-2] + e[1,1;-1]*e[2,2;-1]"
    # a Cartan monomial survives untouched
    mono = NCPoly.generator(alg, Gen(1, 1, -3))
    assert hc_project(mono) == mono


def test_hc_project_offdiagonal_pair():
    # In the triangular presentation e_12[-1]e_21[-1] carries a diagonal
    # correction, so the canonical projection does not kill it outright,
    alg = _alg()
    p = _word_poly(alg, Gen(1, 2, -1), Gen(2, 1, -1))
    expected = NCPoly(
        alg,
        {(0, (Gen(1, 1, -2),)): 1, (0, (Gen(2, 2, -2),)): -1},
        _normal=True,
    )
    assert hc_project(p) == expected
    # while the element lowering first, e_21[-1] e_12[-1], projects to zero.
    q = _word_poly(alg, Gen(2, 1, -1), Gen(1, 2, -1))
    assert hc_project(q).is_zero()


def test_hc_project_domain_errors():
    alg = _alg()
    with pytest.raises(DomainError):
        hc_project(NCPoly.generator(alg, Gen(1, 1, 0)))
    with pytest.raises(DomainError):
        hc_project(NCPoly.tau(alg))


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
    g = NCPoly.generator(alg, Gen(2, 1, -4))
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


def test_json_round_trip():
    alg = _alg()
    p = NCPoly.tau(alg) * NCPoly.generator(alg, Gen(1, 2, -1)) + NCPoly.one(alg).scale(
        Fraction(-3, 2)
    )
    assert NCPoly.from_json(alg, p.to_json()) == p


# -- linear sums ---------------------------------------------------------------

_words = st.lists(
    st.builds(Gen, st.integers(1, 2), st.integers(1, 2), st.integers(-2, 1)),
    max_size=2,
).map(lambda w: tuple(sorted(w, key=gen_sort_key)))
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
    # terms and hold only nonzero Fractions.
    b_terms = b_terms + [(w, -c) for w, c in a_terms[:cancel]]
    alg = _alg(2)

    def poly(terms):
        return NCPoly(alg, [((tau_pow, w), c) for w, c in terms], _normal=True)

    def comm(terms):
        return CommPoly([([(g.i, g.j, g.u) for g in w], c) for w, c in terms])

    cases = [
        (ModuleVector(a_terms), ModuleVector(b_terms), ModuleVector(a_terms + b_terms)),
        (poly(a_terms), poly(b_terms), poly(a_terms + b_terms)),
        (comm(a_terms), comm(b_terms), comm(a_terms + b_terms)),
    ]
    for a, b, merged in cases:
        for total, expected in ((a + b, merged), (a - a, a.scale(0)), (a + b - b, a)):
            assert total == expected
            assert hash(total) == hash(expected)
            assert all(type(c) is Fraction and c for c in total._terms.values())
