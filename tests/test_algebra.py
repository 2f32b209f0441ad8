"""Structure constants of the extended loop algebra."""

import copy
import pickle
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from critcenter.algebra import (
    _B,
    AffineAlgebra,
    Gen,
    bracket,
    gen_from_str,
    killing_form,
)
from critcenter.errors import ValidationError
from critcenter.modules import ModuleVector, RootModule, root_fn_km0, state_is_central
from critcenter.pbw import NCPoly
from critcenter.sugawara import ss_vectors
from oracles import tau_bracket


def test_killing_form_values():
    assert killing_form(2, (1, 2), (2, 1)) == 4
    assert killing_form(2, (1, 1), (1, 1)) == 2
    for n in (2, 3, 5):
        assert killing_form(n, (1, 2), (1, 2)) == 0


def test_critical_form_closed_form():
    # [e_ij[1], e_kl[-1]] carries -kappa(e_ij, e_kl) * (-1) with the critical
    # kappa = -1/2 (,), that is -n d_jk d_il + d_ij d_kl, always an int.
    for n in (2, 3, 4):
        for i, j, k, l in product(range(1, n + 1), repeat=4):
            central = bracket(Gen(i, j, 1), Gen(k, l, -1), n)[1]
            assert central == -n * (j == k) * (i == l) + (i == j) * (k == l)
            assert type(central) is int


def test_bracket_critical_example():
    lie, central = bracket(Gen(1, 2, 1), Gen(2, 1, -1), 2)
    assert dict(lie) == {Gen(1, 1, 0): 1, Gen(2, 2, 0): -1}
    assert central == -2


def test_bracket_commuting_cartan():
    lie, central = bracket(Gen(1, 1, 2), Gen(2, 2, 3), 2)
    assert lie == [] and central == 0


def test_bracket_negative_degrees_have_no_central_term():
    lie, central = bracket(Gen(1, 2, -1), Gen(2, 3, -1), 3)
    assert dict(lie) == {Gen(1, 3, -2): 1}
    assert central == 0


def test_tau_bracket():
    assert tau_bracket(Gen(1, 1, -1)) == [(Gen(1, 1, -2), 1)]
    assert tau_bracket(Gen(1, 2, 0)) == []
    assert tau_bracket(Gen(2, 1, 2)) == [(Gen(2, 1, 1), -2)]


def test_generator_token_round_trip():
    g = Gen(2, 3, -4)
    assert gen_from_str(repr(g)) == g


def test_generator_layout_keeps_the_constructor_and_sorts_in_pbw_order():
    # Gen(i, j, u) is an int coding (u, i, j): the constructor, attributes,
    # text and equality are those of e_ij[u], and the order of the codes is
    # the PBW order: degree first, then (i, j) lexicographic.
    g = Gen(2, 3, -4)
    assert (g.i, g.j, g.u) == (2, 3, -4)
    assert repr(g) == "e[2,3;-4]"
    assert g == Gen(2, 3, -4) and g != Gen(3, 2, -4) and g != Gen(2, 3, 4)
    assert hash(g) == hash(Gen(2, 3, -4))
    assert g._replace(u=1) == Gen(2, 3, 1)
    assert g._replace(i=1, j=1) == Gen(1, 1, -4)
    assert g.shifted(-1) == Gen(2, 3, -5)
    copies = [copy.copy(g), copy.deepcopy(g)]
    copies += [pickle.loads(pickle.dumps(g, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in copies:
        assert twin is g
    gens = [
        Gen(i, j, u) for i in range(1, 4) for j in range(1, 4) for u in range(-3, 4)
    ]
    random.Random(5).shuffle(gens)

    def pbw_key(g):
        return g.u, g.i, g.j

    assert sorted(gens) == sorted(gens, key=pbw_key)
    for a, b in product(gens[:40], repeat=2):
        assert (a < b) == (pbw_key(a) < pbw_key(b))


def test_generator_fields_must_be_ints():
    # A float or bool index or degree is refused where the generator is
    # built, before any layer reads it.
    with pytest.raises(ValidationError):
        NCPoly(AffineAlgebra(2), {(Gen(1, 2, 1.5), Gen(2, 1, -1.5)): 1})
    with pytest.raises(ValidationError):
        state_is_central({(Gen(1, 2, -1.5),): 1}, 2)
    with pytest.raises(ValidationError):
        RootModule(root_fn_km0(2, 1)).act(Gen(1, 2, 0.5), ModuleVector.vacuum())
    with pytest.raises(ValidationError):
        Gen(True, 2, -1)
    for fields in ((1, 2, Fraction(-1)), (1.0, 2, -1), (1, False, -1), (1, 2, "3")):
        with pytest.raises(ValidationError):
            Gen(*fields)
    with pytest.raises(ValidationError):
        Gen(1, 2, -1)._replace(u=0.5)
    # _make builds from the fields in PBW order (u, i, j); it must go
    # through the constructor too, not hand back a float degree.
    with pytest.raises(ValidationError):
        Gen._make((0.5, 1, 2))
    assert Gen._make((-1, 1, 2)) == Gen(1, 2, -1)


_TOP = (1 << _B) - 1  # the largest index a generator's code holds
indices = st.one_of(st.sampled_from([0, 1, _TOP]), st.integers(0, _TOP))
degrees = st.one_of(st.integers(-12, 12), st.integers(-(10**30), 10**30))
fields = st.tuples(indices, indices, degrees)


@given(fields, fields)
@example((0, 0, -1), (_TOP, _TOP, -2))
@example((_TOP, 0, 10**12), (0, _TOP, 10**12))
@example((1, _TOP, -123456), (2, 0, -123456))
def test_generator_order_is_pbw_order(a, b):
    ga, gb = Gen(*a), Gen(*b)
    ka, kb = (a[2], a[0], a[1]), (b[2], b[0], b[1])
    assert (ga < gb) == (ka < kb) and (ga == gb) == (ka == kb)
    assert (ga.i, ga.j, ga.u) == a


@given(fields)
def test_generator_is_interned_and_frozen(f):
    g = Gen(*f)
    assert Gen(*f) is g and g.shifted(0) is g and g._replace() is g
    with pytest.raises(AttributeError):
        g.u = 0
    with pytest.raises(AttributeError):
        del g.i
    assert (g.i, g.j, g.u) == f


def test_generator_text_is_its_token():
    g = Gen(12, 3, -45)
    assert repr(g) == str(g) == f"{g}" == "{}".format(g) == "e[12,3;-45]"
    assert gen_from_str(f"{g}") is g


@pytest.mark.parametrize(
    "fields", [(_TOP + 1, 1, 0), (1, _TOP + 1, 0), (-1, 1, 0), (1, -1, -3)]
)
def test_generator_index_outside_the_code_is_rejected(fields):
    with pytest.raises(ValidationError):
        Gen(*fields)
    with pytest.raises(ValidationError):
        gen_from_str("e[{},{};{}]".format(*fields))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_sugawara_words_sort_the_same_by_code_and_by_fields(n):
    for s in ss_vectors(n).S:
        for word in s._terms:
            by_fields = sorted(word, key=lambda g: (g.u, g.i, g.j))
            assert sorted(word) == by_fields == list(word)


def test_algebra_bracket_is_memoised_and_immutable():
    # AffineAlgebra.bracket caches one tuple result per pair; it agrees with
    # the module-level bracket, whose central term -kappa(a, b) * v at the
    # critical kappa = -1/2 (,) is always an int.
    rng = random.Random(3)
    for n in (1, 2, 3):
        alg = AffineAlgebra(n)
        for _ in range(600):
            a, b = (
                Gen(rng.randint(1, n), rng.randint(1, n), rng.randint(-3, 3))
                for _ in range(2)
            )
            lie, central = bracket(a, b, n)
            cached = alg.bracket(a, b)
            assert cached == (tuple(lie), central)
            assert type(cached[0]) is tuple and alg.bracket(a, b) is cached
            expected = 0
            if a.u + b.u == 0:
                expected = Fraction(killing_form(n, (a.i, a.j), (b.i, b.j)), 2) * b.u
            assert central == expected and type(central) is int


# -- bilinear extension used for the law checks ----------------------------


def _bracket_ext(a, b, n):
    """Bracket of (dict, central) pairs; central parts bracket to zero."""
    terms = {}
    central = Fraction(0)
    for g1, c1 in a[0].items():
        for g2, c2 in b[0].items():
            lie, z = bracket(g1, g2, n)
            for g, c in lie:
                terms[g] = terms.get(g, Fraction(0)) + c1 * c2 * c
                if not terms[g]:
                    del terms[g]
            central += c1 * c2 * z
    return terms, central


def _tau_ext(a):
    terms = {}
    for g, c in a[0].items():
        for g2, c2 in tau_bracket(g):
            terms[g2] = terms.get(g2, Fraction(0)) + c * c2
            if not terms[g2]:
                del terms[g2]
    return terms, Fraction(0)


def _single(g):
    return ({g: Fraction(1)}, Fraction(0))


def test_antisymmetry_including_central():
    for n in (2, 3, 4):
        gens = [
            Gen(i, j, u)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            for u in range(-4, 5)
        ]
        for a in gens:
            for b in gens:
                lie1, z1 = bracket(a, b, n)
                lie2, z2 = bracket(b, a, n)
                flipped = {g: -c for g, c in lie2}
                assert dict(lie1) == flipped
                assert z1 == -z2


def test_jacobi_identity_sampled():
    # The cocycle condition is linear in the level, so checking it at the
    # critical level checks it at every level.
    rng = random.Random(20260811)
    for n in (2, 3, 4):
        gens = [
            Gen(rng.randint(1, n), rng.randint(1, n), rng.randint(-3, 3))
            for _ in range(60)
        ]
        for _ in range(200):
            x, y, z = (_single(rng.choice(gens)) for _ in range(3))
            total = {}
            central = Fraction(0)
            for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
                inner = _bracket_ext(a, b, n)
                outer = _bracket_ext((inner[0], Fraction(0)), c, n)
                for g, v in outer[0].items():
                    total[g] = total.get(g, Fraction(0)) + v
                    if not total[g]:
                        del total[g]
                central += outer[1]
            assert not total and central == 0


def test_jacobi_with_tau():
    # [tau, [x, y]] = [[tau, x], y] + [x, [tau, y]] on all small generators
    n = 3
    gens = [
        Gen(i, j, u)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        for u in range(-2, 3)
    ]
    for a in gens:
        for b in gens:
            lie, _z = bracket(a, b, n)
            lhs = _tau_ext(({g: Fraction(c) for g, c in lie}, Fraction(0)))[0]
            rhs = {}
            rhs_central = Fraction(0)
            for g, c in tau_bracket(a):
                inner, z = bracket(g, b, n)
                rhs_central += c * z
                for g2, c2 in inner:
                    rhs[g2] = rhs.get(g2, Fraction(0)) + c * c2
            for g, c in tau_bracket(b):
                inner, z = bracket(a, g, n)
                rhs_central += c * z
                for g2, c2 in inner:
                    rhs[g2] = rhs.get(g2, Fraction(0)) + c * c2
            rhs = {g: c for g, c in rhs.items() if c}
            assert lhs == rhs
            # the cocycle is invariant under the derivation: central parts cancel
            assert rhs_central == 0
