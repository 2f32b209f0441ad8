"""Column determinants, the Sugawara family, and oper-side compatibility."""

import random
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest

from critcenter.algebra import AffineAlgebra, Gen
from critcenter.diffop import miura
from critcenter.errors import ValidationError
from critcenter.laurent import LaurentElement as L
from critcenter.modules import state_is_central
from critcenter.pbw import NCPoly, hc_project
from critcenter.sugawara import (
    MinorNode,
    cdet,
    check_row_property,
    ss_nodes,
    ss_vectors,
)
from oracles import (
    CommPoly,
    TauPoly,
    commutative_char_poly_coefficients,
    from_word,
    symbol,
    tau_plus_e,
)


def _scalar_matrix(alg, rows):
    return [[from_word(alg, (), v) for v in row] for row in rows]


def test_cdet_commutative_two_by_two():
    alg = AffineAlgebra(2)
    a, b, c, d = Fraction(2), Fraction(3), Fraction(5), Fraction(7)
    m = _scalar_matrix(alg, [[a, b], [c, d]])
    assert cdet(m) == from_word(alg, (), a * d - c * b)


def test_cdet_identity_matrix():
    alg = AffineAlgebra(3)
    one, zero = from_word(alg, ()), NCPoly(alg)
    m = [[one if i == j else zero for j in range(3)] for i in range(3)]
    assert cdet(m) == one


def test_cdet_full_rank_two_expansion():
    # Strict column order: the swap summand is e_21[-1] e_12[-1], whose
    # normal form carries the bracket correction, landing the tau-free part
    # on -e_22[-2] rather than -e_11[-2].
    alg = ss_vectors(2).S[0].algebra
    expansion = cdet(tau_plus_e(alg))
    expected = (
        TauPoly(alg, {(2, ()): 1})
        + TauPoly(
            alg,
            {
                (1, (Gen(1, 1, -1),)): 1,
                (1, (Gen(2, 2, -1),)): 1,
                (0, (Gen(2, 2, -2),)): -1,
                (0, (Gen(1, 1, -1), Gen(2, 2, -1))): 1,
                (0, (Gen(1, 2, -1), Gen(2, 1, -1))): -1,
            },
        )
    )
    assert expansion == expected


def test_repeated_construction_never_mutates_cached_tables():
    # cdet, products and the projection accumulate in place; rebuilding on a
    # warm straighten cache, or the family from a cleared family cache, must
    # agree with a fresh algebra.
    import critcenter.sugawara as sugawara

    alg, fresh = AffineAlgebra(3), AffineAlgebra(3)
    matrix = tau_plus_e(alg)
    expected = cdet(tau_plus_e(fresh))
    square = expected * expected
    for _ in range(2):
        full = cdet(matrix)
        assert full == expected
        assert full * full == square

    sugawara._family_cache.clear()
    first = ss_vectors(4)
    first_json = first.to_json()
    assert [hc_project(s) for s in first.S] == list(first.omega)
    assert [hc_project(s) for s in first.S] == list(first.omega)
    sugawara._family_cache.clear()
    assert ss_vectors(4).to_json() == first_json
    assert first.to_json() == first_json


def test_family_rank_one():
    fam = ss_vectors(1)
    alg = fam.S[0].algebra
    assert fam.S[0] == from_word(alg, (Gen(1, 1, -1),))
    assert fam.omega[0] == fam.S[0]


def test_family_rank_two_vectors():
    fam = ss_vectors(2)
    alg = fam.S[0].algebra
    assert fam.S[0] == NCPoly(alg, {(Gen(1, 1, -1),): 1, (Gen(2, 2, -1),): 1})
    assert fam.S[1] == NCPoly(
        alg,
        {
            (Gen(2, 2, -2),): -1,
            (Gen(1, 1, -1), Gen(2, 2, -1)): 1,
            (Gen(1, 2, -1), Gen(2, 1, -1)): -1,
        },
    )
    assert fam.omega[1] == NCPoly(
        alg, {(Gen(1, 1, -2),): -1, (Gen(1, 1, -1), Gen(2, 2, -1)): 1}
    )


def test_homogeneity_and_factor_bound_up_to_rank_five():
    for n in range(1, 6):
        fam = ss_vectors(n)
        for ell, s in enumerate(fam.S, 1):
            for word in s._terms:
                assert sum(g.u for g in word) == -ell
                assert len(word) <= ell


def test_projection_identity_up_to_rank_four():
    for n in range(1, 5):
        fam = ss_vectors(n)
        for ell in range(n):
            assert hc_project(fam.S[ell]) == fam.omega[ell]


def test_row_property_examples():
    fam = ss_vectors(2)
    ok, witness = check_row_property(fam.S[1], 2)
    assert ok and witness is None
    alg = fam.S[0].algebra
    artificial = NCPoly(alg, {(Gen(2, 1, -1), Gen(2, 2, -1)): 1})
    ok, witness = check_row_property(artificial, 2)
    assert not ok
    assert witness == (Gen(2, 1, -1), Gen(2, 2, -1))
    fam3 = ss_vectors(3)
    assert all(check_row_property(s, 3)[0] for s in fam3.S)


def test_vacuum_centrality_up_to_rank_three():
    for n in (1, 2, 3):
        fam = ss_vectors(n)
        for s in fam.S:
            assert state_is_central(s, n)


def cartan_evaluate(p, h):
    """Evaluate a polynomial in the e_ii[u] (u < 0) on a Cartan-valued series.

    The generator e_ii[-k-1] pairs with the t^k coefficient of the i-th
    component of h.  This realizes elements of the commutative Cartan algebra
    as polynomial functions of holomorphic Cartan elements.
    """
    total = Fraction(0)
    for word, c in p._terms.items():
        value = c
        for g in word:
            if g.i != g.j or g.u >= 0:
                raise ValidationError(
                    "evaluation needs diagonal negative-degree factors only"
                )
            value *= h[g.i - 1].coefficient(-g.u - 1)
        total += value
    return total


def test_omega_functional_matches_miura_constant_term():
    rng = random.Random(2026)
    for n in (1, 2, 3):
        fam = ss_vectors(n)
        for _ in range(12):
            h = [
                L({k: Fraction(rng.randint(-3, 3)) for k in range(0, 4)})
                for _ in range(n)
            ]
            chi = miura(h)
            for ell in range(1, n + 1):
                assert cartan_evaluate(fam.omega[ell - 1], h) == chi.a[
                    ell - 1
                ].coefficient(0), (n, ell)


def test_omega_recurrence_matches_the_tau_product():
    # ss_vectors builds omega by the commutative recurrence; the oracle
    # multiplies (tau + e_11[-1]) ... (tau + e_nn[-1]) out with tau and
    # straightens every product.
    for n in range(1, 7):
        family = ss_vectors(n)
        alg = family.S[0].algebra
        product = reduce(mul, (
            TauPoly.tau(alg) + TauPoly.generator(alg, Gen(i, i, -1))
            for i in range(1, n + 1)
        ))
        assert max(k for k, _w in product._terms) == n
        assert product.tau_component(n) == from_word(alg, ())
        for ell in range(1, n + 1):
            assert family.omega[ell - 1] == product.tau_component(n - ell), (n, ell)


def test_symbol_reference_oracle_small():
    refs = commutative_char_poly_coefficients(2)
    assert refs[0] == CommPoly({((1, 1, -1),): 1, ((2, 2, -1),): 1})
    fam = ss_vectors(2)
    assert symbol(fam.S[1]) == refs[1]


def test_family_json_shape():
    fam = ss_vectors(2)
    data = fam.to_json()
    assert data["n"] == 2
    assert data["row_property"] == [True, True]
    assert len(data["S"]) == len(data["omega"]) == 2
    assert data["S"][0][0]["coeff"] == "1"


def _reachable(nodes):
    seen = {}
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if type(node) is MinorNode and id(node) not in seen:
            seen[id(node)] = node
            stack.extend(child for _c, _h, child in node.terms)
    return list(seen.values())


def test_minor_table_expands_to_the_sugawara_vectors():
    # ss_vectors multiplies out the unstraightened minor table; the
    # permutation-sum determinant is the independent oracle.
    for n in (1, 2, 3, 4, 5):
        family = ss_vectors(n)
        expansion = cdet(tau_plus_e(family.S[0].algebra))
        nodes = ss_nodes(n)
        assert len(nodes) == n
        for ell, (node, S) in enumerate(zip(nodes, family.S), 1):
            assert (node.rows, node.power) == (tuple(range(1, n + 1)), n - ell)
            assert S == expansion.tau_component(n - ell), (n, ell)


def test_minor_table_shape():
    counts = {}
    for n in (1, 2, 3, 4, 5, 6):
        table = _reachable(ss_nodes(n))
        counts[n] = (len(table), sum(len(node.terms) for node in table))
        for node in table:
            # F[R, J] is homogeneous of degree J - |R|; tau terms keep it
            degree = node.power - len(node.rows)
            for _coef, head, child in node.terms:
                child_degree = 0 if child == () else child.power - len(child.rows)
                assert degree == child_degree + (0 if head is None else head.u)
    assert counts[5] == (78, 314) and counts[6] == (174, 903)
    assert ss_nodes(4) is ss_nodes(4)
    with pytest.raises(ValidationError):
        ss_nodes(0)

