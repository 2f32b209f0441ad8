"""Root modules, Fourier-coefficient actions, and the vanishing machinery."""

import copy
import hashlib
import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from critcenter.algebra import AffineAlgebra, Gen
from critcenter.errors import DomainError, ValidationError
from critcenter.lincomb import _accumulate
from critcenter.modules import (
    ModuleVector,
    RootFunction,
    RootModule,
    _critical_words,
    _field_mode,
    _kills_all,
    conductor_irregularity_report,
    root_fn_constant,
    root_fn_km0,
    root_fn_moy_prasad,
    ss_operator_act,
    state_is_central,
    vanishing_report,
)
from critcenter.pbw import NCPoly, hc_project
from critcenter.sugawara import ss_nodes, ss_vectors
from oracles import from_word, gbinom, lemma_relations_bound, vacuum_module

V0 = ModuleVector.vacuum()


def act_poly(mod, poly, vec):
    """Apply an NC polynomial (PBW-ordered words act as written)."""
    table = {}
    for word, c in poly._terms.items():
        _accumulate(table, mod.act_word(word, vec)._terms, c)
    return ModuleVector._adopt(table)


# -- root functions ----------------------------------------------------------


def test_constant_root_function():
    rf = root_fn_constant(2, 1)
    assert rf.as_matrix() == [[1, 1], [1, 1]]
    rf3 = root_fn_constant(3, 2)
    assert rf3.as_matrix() == [[2] * 3] * 3
    with pytest.raises(DomainError):
        root_fn_constant(2, 0)


def test_km0_root_function():
    assert root_fn_km0(2, 1).as_matrix() == [[1, 0], [1, 1]]
    assert root_fn_km0(3, 2).as_matrix() == [[1, 1, 0], [1, 1, 0], [2, 2, 2]]
    # subadditivity instance: r(1,2) + r(2,1) >= r(1,1)
    rf = root_fn_km0(2, 1)
    assert rf(1, 2) + rf(2, 1) >= rf(1, 1)


def test_moy_prasad_root_function():
    n = 2
    rf = root_fn_moy_prasad(n, [0, 0], 1)  # x = 0, r = m - 1 with m = 2
    assert rf == root_fn_constant(n, 2)
    generic = root_fn_moy_prasad(2, [Fraction(1, 2), 0], 0)
    assert generic.as_matrix() == [[1, 0], [1, 1]]
    assert generic(1, 1) == 1
    text = root_fn_moy_prasad(2, ["1/2", 0], "0")  # exact text reads as a rational
    assert text == generic and text.params == generic.params
    with pytest.raises(ValidationError):
        root_fn_moy_prasad(2, [3, 0], 0)  # depth 1 - ceil(3) < 0


@pytest.mark.parametrize(
    "x, r",
    [
        ([0.1, 0], 0),
        ([0, 0], 0.5),
        ([0, 0], True),
        ([True, 0], 0),
        (["a", 0], 0),
        ([None, 0], 0),
        ([0, 0], 1e400),
        ("00", 0),
        ([Gen(1, 1, 0), 0], 0),
        ([0, 0], Gen(1, 1, 0)),
    ],
    ids=[
        "float-x", "float-r", "bool-r", "bool-x", "text-x", "none-x", "huge-float-r", "string-point",
        "generator-x", "generator-r",
    ],
)
def test_moy_prasad_rejects_inexact_input(x, r):
    # A float would be read through its binary expansion, a bool as 0 or 1
    # and a generator (an int subclass) as its code; none is a rational
    # point.  Bad text or None is a ValidationError.
    with pytest.raises(ValidationError):
        root_fn_moy_prasad(2, x, r)


def test_moy_prasad_thresholds():
    rf = root_fn_moy_prasad(2, [0, 0], Fraction(1, 2))
    assert [rf.threshold(ell) for ell in (1, 2)] == [2, 3]


def _depths(corner):
    return {(1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): corner}


@pytest.mark.parametrize(
    "build, args",
    [
        (RootFunction, (2, _depths(Fraction(3, 2)))),
        (RootFunction, (2, _depths(1.9))),
        (RootFunction, (2, _depths("2"))),
        (RootFunction, (2, _depths(True))),
        (root_fn_constant, (2, 1.5)),
        (root_fn_km0, (2, 1.5)),
        (root_fn_constant, (2, "2")),
        (root_fn_km0, (2, None)),
    ],
    ids=[
        "fraction", "float", "string", "bool",
        "constant-1.5", "km0-1.5", "constant-string", "km0-none",
    ],
)
def test_root_function_depths_must_be_ints(build, args):
    # A depth is never truncated: 3/2 and 1.9 are not depth 1, "2" not 2.
    with pytest.raises(ValidationError):
        build(*args)


_KM0_2 = root_fn_km0(2, 1)


@pytest.mark.parametrize(
    "build, args, message",
    [
        (ss_vectors, (2.0,), "rank must be an integer"),
        (ss_vectors, (True,), "rank must be an integer"),
        (ss_nodes, (2.0,), "rank must be an integer"),
        (ss_nodes, (True,), "rank must be an integer"),
        (AffineAlgebra, ("3",), "rank must be an integer"),
        (AffineAlgebra, (True,), "rank must be an integer"),
        (RootFunction, (2.0, _depths(1)), "rank must be an integer"),
        (root_fn_km0, (2.0, 1), "rank must be an integer"),
        (root_fn_constant, (True, 1), "rank must be an integer"),
        (root_fn_moy_prasad, (2.0, [0, 0], 0), "rank must be an integer"),
        (ss_nodes, (0,), "rank must be at least 1"),
        (AffineAlgebra, (-1,), "rank must be at least 1"),
        (root_fn_km0, (0, 1), "rank must be at least 1"),
        (vanishing_report, (2, _KM0_2, 1.5), "scan window must be an integer"),
        (vanishing_report, (2, _KM0_2, True), "scan window must be an integer"),
        (vanishing_report, (2, _KM0_2, -1), "scan window must be nonnegative"),
    ],
    ids=[
        "ss_vectors-float", "ss_vectors-bool", "ss_nodes-float", "ss_nodes-bool",
        "algebra-string", "algebra-bool", "rootfunction-float", "km0-float",
        "constant-bool", "moyprasad-float", "ss_nodes-0", "algebra-negative", "km0-0",
        "window-float", "window-bool", "window-negative",
    ],
)
def test_rank_and_scan_window_are_checked_ints(build, args, message):
    # One rank check (an int, not a bool, at least 1) serves the algebra,
    # the Sugawara layer and the root functions; the scan window is an int
    # >= 0.  None of them may surface as a bare TypeError.
    with pytest.raises(ValidationError, match=message):
        build(*args)


def test_root_function_rejects_a_zero_diagonal():
    values = {(i, j): 0 for i in (1, 2) for j in (1, 2)}
    with pytest.raises(ValidationError):
        RootFunction(2, values)
    assert RootFunction(2, values, _allow_zero_diagonal=True)(1, 1) == 0


def test_indices_outside_the_rank_are_validation_errors():
    rf = root_fn_km0(2, 1)
    mod = RootModule(rf)
    for i, j in [(3, 1), (1, 0), (0, 0)]:
        with pytest.raises(ValidationError):
            rf(i, j)
    with pytest.raises(ValidationError):
        mod.act(Gen(3, 1, 0), V0)
    with pytest.raises(ValidationError):
        mod.fourier_act({(Gen(3, 1, -1),): 1}, 0, V0)


def test_out_of_range_factor_reached_by_insertion_is_a_validation_error():
    # e_11[0] passes e_33[-1], which is then inserted into (e_11[0],): the
    # engine reads r(3, 3) from the root function's depth table, and that
    # lookup raises ValidationError, not KeyError.
    mod = RootModule(root_fn_km0(2, 1))
    vec = ModuleVector({(Gen(3, 3, -1),): 1})
    with pytest.raises(ValidationError, match=r"index \(3, 3\) outside 1\.\.2"):
        mod.act(Gen(1, 1, 0), vec)


def test_vectors_are_checked_where_they_enter():
    # e_11[3] kills v_0 on km0(2, 1) (r(1, 1) = 1), so it is no creation
    # factor, and a vector holding it is not a vector of this module.
    mod = RootModule(root_fn_km0(2, 1))
    assert mod.act(Gen(1, 1, 3), V0).is_zero()
    vec = ModuleVector({(Gen(1, 1, 3),): 1})
    state = {(Gen(2, 2, -1),): 1}
    for call in (
        lambda: mod.fourier_act(state, 0, vec),
        lambda: mod.annihilation_bound(state, vec),
        lambda: mod.act_word((Gen(2, 2, -1),), vec),
    ):
        with pytest.raises(ValidationError, match=r"e\[1,1;3\] is not a creation factor"):
            call()
    with pytest.raises(ValidationError, match="expected a ModuleVector"):
        mod.fourier_act(state, 0, NCPoly(mod.algebra))


# -- generator action --------------------------------------------------------


def test_act_annihilates_at_depth():
    rf = root_fn_constant(2, 1)
    assert RootModule(rf).act(Gen(1, 1, 1), V0).is_zero()


def test_act_straightening_through_creation_factor():
    rf = root_fn_km0(2, 1)
    mod = RootModule(rf)
    w = mod.act(Gen(2, 1, 0), V0)
    out = mod.act(Gen(1, 2, 0), w)
    assert out == ModuleVector({(Gen(1, 1, 0),): 1, (Gen(2, 2, 0),): -1})


def test_act_with_cocycle_mismatch_degree():
    rf = root_fn_constant(2, 1)
    mod = RootModule(rf)
    w = mod.act(Gen(1, 1, -1), V0)
    assert mod.act(Gen(1, 1, 2), w).is_zero()


def test_act_cocycle_contributes_at_matching_degree():
    # e_12[1] e_21[-1] v_0 = [e_12, e_21][0] v_0 + central = -2 v_0 at n = 2
    rf = root_fn_constant(2, 1)
    mod = RootModule(rf)
    w = mod.act(Gen(2, 1, -1), V0)
    out = mod.act(Gen(1, 2, 1), w)
    # Lie part (e_11 - e_22)[0] v_0 is a creation vector; central part is
    # -kappa_c(e_12, e_21) * (-1) = -2 times v_0.
    assert out == ModuleVector(
        {(Gen(1, 1, 0),): 1, (Gen(2, 2, 0),): -1, (): -2}
    )


def test_act_word_right_to_left():
    rf = root_fn_constant(2, 1)
    mod = RootModule(rf)
    word = (Gen(1, 1, -2), Gen(1, 2, -1))
    direct = mod.act_word(word, V0)
    manual = mod.act(Gen(1, 1, -2), mod.act(Gen(1, 2, -1), V0))
    assert direct == manual


# -- the basic vanishing rule -------------------------------------------------


def test_lemma_bound_examples():
    rf = root_fn_constant(2, 1)
    assert lemma_relations_bound([Gen(1, 1, 1)], rf)
    assert lemma_relations_bound([Gen(1, 2, 2), Gen(2, 1, 0)], rf)
    assert not lemma_relations_bound([Gen(1, 2, 0), Gen(2, 1, 0)], rf)


def test_lemma_bound_example_verified_by_straightening():
    rf = root_fn_constant(2, 1)
    mod = RootModule(rf)
    word = (Gen(1, 2, 2), Gen(2, 1, 0))
    assert lemma_relations_bound(word, rf)
    assert mod.act_word(word, V0).is_zero()


def test_lemma_relations_500_words():
    rng = random.Random(20260811)
    cases = [
        root_fn_constant(2, 1),
        root_fn_constant(2, 2),
        root_fn_km0(2, 1),
        root_fn_km0(3, 2),
        root_fn_constant(3, 1),
        root_fn_moy_prasad(3, [0, Fraction(1, 2), 1], 0),
    ]
    modules = {id(rf): RootModule(rf) for rf in cases}
    checked = 0
    predicted = 0
    while checked < 500:
        rf = rng.choice(cases)
        n = rf.n
        word = tuple(
            Gen(rng.randint(1, n), rng.randint(1, n), rng.randint(-3, 3))
            for _ in range(rng.randint(1, 4))
        )
        checked += 1
        if lemma_relations_bound(word, rf):
            predicted += 1
            mod = modules[id(rf)]
            assert mod.act_word(word, V0).is_zero(), (rf.describe(), word)
    assert predicted > 50  # the suite exercises the claim, not just the sampler


# -- Fourier coefficients ------------------------------------------------------


def test_fourier_single_generator_is_mode_action():
    rf = root_fn_km0(2, 1)
    mod = RootModule(rf)
    for s in range(-3, 4):
        state = {(Gen(2, 1, -1),): 1}
        assert mod.fourier_act(state, s, V0) == mod.act(Gen(2, 1, s), V0)


def test_fourier_translation_rule_for_depth_two():
    rf = root_fn_constant(2, 2)
    mod = RootModule(rf)
    for s in range(-3, 4):
        state = {(Gen(1, 1, -2),): 1}
        expected = mod.act(Gen(1, 1, s - 1), V0).scale(-s)
        assert mod.fourier_act(state, s, V0) == expected


def test_fourier_vacuum_state_is_identity_at_minus_one():
    rf = root_fn_constant(2, 1)
    mod = RootModule(rf)
    w = mod.act(Gen(1, 2, 0), V0)
    state = {(): 1}
    assert mod.fourier_act(state, -1, w) == w
    for s in (-3, 0, 2):
        assert mod.fourier_act(state, s, w).is_zero()


def test_fourier_result_independent_of_word_presentation():
    # A state written in two word orders gives the same Fourier action once
    # the straightening correction is added.
    rf = root_fn_km0(3, 1)
    mod = RootModule(rf)
    a, b = Gen(1, 3, -1), Gen(3, 2, -1)
    direct = {(b, a): 1}
    swapped = {(a, b): 1, (Gen(1, 2, -2),): -1}  # b a = a b + [b, a]
    for s in range(-2, 4):
        assert mod.fourier_act(direct, s, V0) == mod.fourier_act(swapped, s, V0)


def test_fourier_shape_of_expansion():
    # word_(s) is homogeneous: on v_0 every monomial of the result has loop
    # degree sum u + s + 1, the grading the degree cut relies on.
    rf = root_fn_km0(2, 1)
    mod = RootModule(rf)
    word = (Gen(1, 1, -2), Gen(1, 2, -1), Gen(2, 1, -1))
    degrees = sum(g.u for g in word)
    for s in (0, 1, 2):
        out = mod.fourier_act({word: 1}, s, V0)
        assert not out.is_zero(), s
        for mono in out._terms:
            assert sum(g.u for g in mono) == degrees + s + 1, (s, mono)


# -- annihilation bounds -------------------------------------------------------


def test_annihilation_bound_single_factor():
    for m in (1, 2, 3):
        rf = root_fn_constant(2, m)
        state = {(Gen(1, 2, -1),): 1}
        assert RootModule(rf).annihilation_bound(state, V0) == m


def test_annihilation_bound_is_certified():
    rng = random.Random(5)
    cases = [root_fn_constant(2, 1), root_fn_km0(2, 2), root_fn_km0(3, 1)]
    for rf in cases:
        mod = RootModule(rf)
        n = rf.n
        for _ in range(40):
            word = tuple(
                Gen(rng.randint(1, n), rng.randint(1, n), -rng.randint(1, 2))
                for _ in range(rng.randint(1, 2))
            )
            state = {word: 1}
            bound = mod.annihilation_bound(state, V0)
            for s in range(bound, bound + 3):
                assert mod.fourier_act(state, s, V0).is_zero()


def test_annihilation_bound_shifted_vector():
    # A creation factor e_ij[u] adds r(i,j) - u to the bound; subtracting one
    # more is not sound: e_12[0] applied to e_21[1].v_0 in the depth profile
    # below is nonzero although the reduced count would certify it away.
    rf = root_fn_km0(2, 2)
    mod = RootModule(rf)
    w = mod.act(Gen(2, 1, 1), V0)
    state = {(Gen(1, 2, -1),): 1}
    assert mod.annihilation_bound(state, w) == 0 + 1 - 1 + (2 - 1)
    boundary = mod.fourier_act(state, 0, w)
    assert boundary == ModuleVector({(Gen(2, 2, 1),): -1})
    assert mod.fourier_act(state, 1, w).is_zero()


def test_naive_per_word_count_is_not_a_bound():
    # With the depth profile of the point (0, 1/2, 1) at level 0, the word
    # e_12[-1] e_23[-1] has depth sum 2, degree sum -2, and two factors, so a
    # per-factor count would certify vanishing from index 2 on; the exact
    # action at 2 is nonzero.  The certified bound is one larger.
    rf = root_fn_moy_prasad(3, [0, Fraction(1, 2), 1], 0)
    mod = RootModule(rf)
    word = (Gen(1, 2, -1), Gen(2, 3, -1))
    naive = sum(rf(g.i, g.j) for g in word) - sum(g.u for g in word) - len(word)
    assert naive == 2
    value = mod.fourier_act({word: 1}, naive, V0)
    assert value == ModuleVector({(Gen(1, 3, 1),): -1})
    assert mod.annihilation_bound({word: 1}, V0) == 3
    assert mod.fourier_act({word: 1}, 3, V0).is_zero()


# -- commutator expansion ------------------------------------------------------


def test_borcherds_commutator_expansion():
    rng = random.Random(29)
    n = 2
    rf = root_fn_km0(2, 1)
    mod = RootModule(rf)
    vac = vacuum_module(n)
    vectors = [V0, mod.act(Gen(2, 1, 0), V0)]
    for _ in range(30):
        length = rng.randint(1, 2)
        word = tuple(
            Gen(rng.randint(1, n), rng.randint(1, n), -rng.randint(1, 2))
            for _ in range(length)
        )
        state = {word: 1}
        x = Gen(rng.randint(1, n), rng.randint(1, n), rng.randint(-2, 2))
        s = rng.randint(-2, 3)
        v = rng.choice(vectors)

        lhs = mod.fourier_act(state, s, mod.act(x, v)) - mod.act(
            x, mod.fourier_act(state, s, v)
        )
        x_state = vac.act(Gen(x.i, x.j, -1), ModuleVector.vacuum())
        cutoff = vac.annihilation_bound(state, x_state)
        rhs = ModuleVector()
        for p in range(0, max(cutoff, 0) + 1):
            inner = vac.fourier_act(state, p, x_state)
            if inner.is_zero():
                continue
            shifted = mod.fourier_act(inner, s + x.u - p, v)
            rhs = rhs + shifted.scale(gbinom(s, p))
        assert lhs == rhs, (word, x, s)


# -- centrality ----------------------------------------------------------------


def test_sugawara_states_are_central_in_vacuum():
    for n in (2, 3):
        family = ss_vectors(n)
        for s in family.S:
            assert state_is_central(s, n)


# SHA-256 of the rank-6 chain's output (family and km0 m=1 scan), hashed as
# the benchmark's job.py hashes it: it pins the fast paths of _kills_all,
# _straighten and _project_word at a rank the other tests do not reach.
_CHAIN_6_SHA256 = "619dc8c7a568a316d91ef730399f9c78d755430b5b9fadfa0f70d85bcdacfd05"


def test_rank6_chain_output_is_pinned():
    n = 6
    family = ss_vectors(n)
    for s, w in zip(family.S, family.omega):
        assert hc_project(s) == w
        assert state_is_central(s, n)
    report = vanishing_report(n, root_fn_km0(n, 1))
    output = json.dumps({"family": family.to_json(), "report": report}, sort_keys=True)
    assert hashlib.sha256(output.encode()).hexdigest() == _CHAIN_6_SHA256


# SHA-256 of the km0 m=2 scan at rank 5, where no degree cut ends the
# Fourier recursion: it pins that recursion's output against any change to
# how its words hash or order.
_KM0_M2_5_SHA256 = "ad81a2de5a626e9a2d4e027bef1a86a8edaafc8deb527003915f873f8a6d201b"


def test_rank5_km0_m2_scan_is_pinned():
    report = vanishing_report(5, root_fn_km0(5, 2))
    output = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(output.encode()).hexdigest() == _KM0_M2_5_SHA256


def _reordered_quadratic_variant():
    alg = ss_vectors(2).S[0].algebra
    return NCPoly(
        alg,
        {
            (Gen(1, 1, -2),): -1,
            (Gen(1, 1, -1), Gen(2, 2, -1)): 1,
            (Gen(1, 2, -1), Gen(2, 1, -1)): -1,
        },
    )


def test_reordered_quadratic_vector_is_not_central():
    # Reordering the off-diagonal product across columns spoils centrality;
    # the corrected variant differs by e_11[-2] - e_22[-2] and fails the
    # vacuum test, pinning the column-order convention.
    assert not state_is_central(_reordered_quadratic_variant(), 2)


def _central_by_full_sweep(state, n):
    """Reference test: every e_ij[u] below the certified mode bound kills the state."""
    mod = vacuum_module(n)
    vec = act_poly(mod, state, V0)
    limit = max((mod._depth(w) for w in vec._terms), default=0) + mod._lemma_slack
    return all(
        mod.act(Gen(i, j, u), vec).is_zero()
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        for u in range(limit)
    )


def test_generator_centrality_matches_full_sweep():
    for n in (1, 2, 3, 4):
        for s in ss_vectors(n).S:
            assert state_is_central(s, n) and _central_by_full_sweep(s, n), (n, s)
    alg1 = ss_vectors(1).S[0].algebra
    heisenberg = from_word(alg1, (Gen(1, 1, -2), Gen(1, 1, -1)), 3)
    assert state_is_central(heisenberg, 1) and _central_by_full_sweep(heisenberg, 1)

    alg2, alg3 = ss_vectors(2).S[0].algebra, ss_vectors(3).S[0].algebra
    # tr(E[-2] E[-2]) is sl_n-invariant, so only e_{n,1}[1] detects it.
    trace_square = NCPoly(
        alg3,
        [
            ((Gen(i, j, -2), Gen(j, i, -2)), 1)
            for i in (1, 2, 3)
            for j in (1, 2, 3)
        ],
    )
    non_central = [
        (_reordered_quadratic_variant(), 2),
        (from_word(alg2, (Gen(1, 2, -1),)), 2),
        (from_word(alg3, (Gen(1, 2, -1),)), 3),
        (ss_vectors(3).S[1] + from_word(alg3, (Gen(1, 2, -2),)), 3),
        (trace_square, 3),
    ]
    for state, n in non_central:
        assert not state_is_central(state, n), (n, state)
        assert not _central_by_full_sweep(state, n), (n, state)


def _central_in_vacuum_module(state, n):
    """Reference test: weight 0, then the n generators act on the vector S v_0."""
    mod = vacuum_module(n)
    vec = act_poly(mod, state, V0)
    for word in vec._terms:
        weight = [0] * (n + 1)
        for g in word:
            weight[g.i] += 1
            weight[g.j] -= 1
        if any(weight):
            return False
    generators = [Gen(i, i + 1, 0) for i in range(1, n)] + [Gen(n, 1, 1)]
    return all(mod.act(g, vec).is_zero() for g in generators)


# sum_ij e_ij[-3] e_ji[-1] at n = 2, as (terms, n): it is sl_2[0]-invariant,
# so only e_21[1] detects that it is not central.
TRACE_PAIRING = (
    {(Gen(i, j, -3), Gen(j, i, -1)): 1 for i in (1, 2) for j in (1, 2)},
    2,
)


def test_trace_pairing_is_killed_by_e12_but_not_e21_1():
    terms, _n = TRACE_PAIRING
    state = NCPoly(AffineAlgebra(2), terms)
    mod = vacuum_module(2)
    vec = act_poly(mod, state, V0)
    assert mod.act(Gen(1, 2, 0), vec).is_zero()
    assert not mod.act(Gen(2, 1, 1), vec).is_zero()
    assert not state_is_central(state, 2)


def _path_word(rows, degrees):
    """e_{r0 r1}[u0] e_{r1 r2}[u1] ...: its weight is that of e_{r0 rk}, 0 iff r0 = rk."""
    return tuple(Gen(rows[a], rows[a + 1], u) for a, u in enumerate(degrees))


@st.composite
def _centrality_cases(draw):
    """(state terms, n): an S_l at n <= 4, possibly with one coefficient
    flipped, or one word added, of weight 0 or (for n > 1) not."""
    n = draw(st.integers(1, 4))
    ell = draw(st.integers(1, n))
    terms = dict(ss_vectors(n).S[ell - 1]._terms)
    mutations = ["none", "flip", "add"] + (["add-weighted"] if n > 1 else [])
    mutation = draw(st.sampled_from(mutations))
    if mutation == "flip":
        word = draw(st.sampled_from(sorted(terms)))
        terms[word] = -terms[word]
    elif mutation.startswith("add"):
        k = draw(st.integers(1, 3))
        rows = draw(st.lists(st.integers(1, n), min_size=k, max_size=k))
        if mutation == "add":
            end = rows[0]
        else:
            end = draw(st.integers(1, n).filter(lambda r: r != rows[0]))
        degrees = draw(st.lists(st.integers(-3, -1), min_size=k, max_size=k))
        word = _path_word(rows + [end], degrees)
        coeff = draw(st.sampled_from([1, -1, 2, Fraction(1, 2)]))
        alg = AffineAlgebra(n)
        terms = (NCPoly(alg, terms) + from_word(alg, word, coeff))._terms
    return terms, n


@settings(max_examples=40, deadline=None)
@given(_centrality_cases())
@example(TRACE_PAIRING)
def test_centrality_matches_vacuum_module_oracle(case):
    # The derivation path agrees with the vacuum-module path and the full
    # sweep, whatever form the state is given in: an NCPoly, a dict, a
    # ModuleVector, a dict of the same vector in words that are not normal,
    # and each word alone as a tuple.
    terms, n = case
    alg = AffineAlgebra(n)
    critical = NCPoly(alg, terms)
    expected = _central_in_vacuum_module(critical, n)
    assert _central_by_full_sweep(critical, n) == expected
    # Each word reversed, plus the normal words that make up the difference.
    reversed_words = {w[::-1]: c for w, c in terms.items()}
    rest = critical - NCPoly(alg, reversed_words)
    unsorted = dict(reversed_words)
    _accumulate(unsorted, rest._terms)
    for form in (critical, dict(terms), ModuleVector(terms), unsorted):
        assert state_is_central(form, n) == expected, (n, form)
    for word in terms:
        single = from_word(alg, word)
        assert state_is_central(word, n) == _central_in_vacuum_module(single, n), word
    # state_is_central checks only the conjunction, which a derivation using
    # one generator's brackets for another could pass: check each alone.
    algebra, words = _critical_words(critical, n)
    mod = vacuum_module(n)
    vec = act_poly(mod, critical, V0)
    for g in [Gen(i, i + 1, 0) for i in range(1, n)] + [Gen(n, 1, 1)]:
        assert _kills_all(algebra, (g,), words) == mod.act(g, vec).is_zero(), (n, g)


def test_flipping_one_sign_of_a_sugawara_vector_breaks_centrality():
    # S_l - 2 c w for one term c w of S_l: the one-pass derivation must not
    # lose or cross a generator's terms, at the first and the last word in
    # display order.
    for n in range(2, 6):
        for s in ss_vectors(n).S[1:]:
            assert state_is_central(s, n)
            keys = [key for key, _c in s.items()]
            for flip in (keys[0], keys[-1]):
                mutant = NCPoly(
                    s.algebra,
                    {key: -c if key == flip else c for key, c in s._terms.items()},
                )
                assert not state_is_central(mutant, n), (n, flip)


def test_centrality_rejects_indices_outside_the_rank():
    with pytest.raises(ValidationError):
        state_is_central(ss_vectors(3).S[0], 2)
    with pytest.raises(ValidationError):
        state_is_central({(Gen(0, 1, -1),): 1}, 2)
    with pytest.raises(ValidationError):
        state_is_central((Gen(1, 3, -1), Gen(3, 1, -2)), 2)


def test_fourier_act_is_the_weighted_sum_over_monomials():
    # The Fourier cache holds unit monomials only.  On a vector with several
    # monomials, non-unit coefficients and different creation shifts, the
    # cached split must equal the weighted sum of unit results on a fresh
    # module.
    for n in (2, 3, 4):
        rf = root_fn_km0(n, 1)
        family = ss_vectors(n)
        mod = RootModule(rf)
        vec = (
            V0.scale(7)
            + mod.act(Gen(2, 1, -1), V0).scale(-3)
            + mod.act(Gen(n, 1, 0), mod.act(Gen(1, 2, -1), V0)).scale(Fraction(2, 5))
        )
        assert len(vec._terms) >= 3
        for ell in range(1, n + 1):
            state = family.S[ell - 1]
            thr = rf.threshold(ell)
            for N in range(thr - 2, thr + 2):  # two nonzero cells, two zero ones
                split = mod.fourier_act(state, N, vec)
                fresh = RootModule(rf)
                weighted = {}
                for mono, c in vec._terms.items():
                    unit = ModuleVector({mono: 1})
                    for key, d in fresh.fourier_act(state, N, unit)._terms.items():
                        weighted[key] = weighted.get(key, 0) + c * d
                assert split == ModuleVector(weighted), (n, ell, N)


def test_repeated_actions_never_mutate_cached_tables():
    # Sums accumulate in place into fresh dicts; a cached result handed back
    # by act or fourier_act must come out unchanged however often it is
    # reused, so repeated calls agree with a fresh module.
    rf = root_fn_km0(3, 1)
    family = ss_vectors(3)
    mod = RootModule(rf)
    vec = mod.act(Gen(3, 1, 0), V0) + mod.act(Gen(2, 1, -1), V0).scale(2)
    gens = [Gen(i, j, u) for i in (1, 2, 3) for j in (1, 2, 3) for u in (-1, 0, 1)]
    cells = [(ell, N) for ell in (1, 2, 3) for N in range(-1, 4)]

    def run(module):
        acted = [module.act(g, module.act(g, vec)) for g in gens]
        scanned = [module.fourier_act(family.S[ell - 1], N, V0) for ell, N in cells]
        shifted = [module.fourier_act(family.S[ell - 1], N, vec) for ell, N in cells]
        return acted + scanned + shifted

    first = [dict(v._terms) for v in run(mod)]
    act_snapshot = {k: dict(v) for k, v in mod._act_cache.items()}
    fourier_snapshot = {k: dict(v) for k, v in mod._fourier_cache.items()}
    for _ in range(2):
        assert [dict(v._terms) for v in run(mod)] == first
    assert [dict(v._terms) for v in run(RootModule(rf))] == first
    for key, table in act_snapshot.items():
        assert mod._act_cache[key] == table
    for key, table in fourier_snapshot.items():
        assert mod._fourier_cache[key] == table


@pytest.mark.parametrize(
    "rf", [root_fn_km0(4, 2), root_fn_constant(3, 1)], ids=["km0-n4-m2", "congruence-n3-m1"]
)
def test_scan_cells_leave_shared_tables_intact(rf):
    # The field recursion hands cached tables around by reference; a second
    # pass over every scan cell must read them unchanged, and no vector it
    # returns may own a table that a cache holds.
    mod = RootModule(rf)
    cells = [
        (node, N)
        for ell, node in enumerate(ss_nodes(rf.n), start=1)
        for N in range(rf.threshold(ell) - 3, mod._zero_from(node, ()))
    ]
    first = [mod.fourier_act(node, N, V0) for node, N in cells]
    caches = (mod._act_cache, mod._fourier_cache, mod._move_cache)
    snapshots = [{key: copy.deepcopy(value) for key, value in c.items()} for c in caches]
    second = [mod.fourier_act(node, N, V0) for node, N in cells]
    assert second == first
    assert any(not v.is_zero() for v in first)
    for cache, snapshot in zip(caches, snapshots):
        for key, value in snapshot.items():
            assert cache[key] == value, key
    held = {id(table) for table in mod._act_cache.values()}
    held |= {id(table) for table in mod._fourier_cache.values()}
    held |= {id(moved) for moves in mod._move_cache.values() for _p, _c, moved in moves}
    assert not any(id(v._terms) in held for v in first + second)


def test_field_mode_coefficient_is_signed_generalized_binomial():
    # math.comb takes no negative top, so p < 0 goes through
    # (-1)^m binom(p, m) = binom(m - p - 1, m); check both branches.
    for m in range(7):
        head = Gen(1, 2, -m - 1)
        for p in range(-10, 11):
            mode, c = _field_mode(head, m, p)
            assert mode == Gen(1, 2, p - m)
            assert c == (-1) ** m * gbinom(p, m), (m, p)


def test_centrality_on_module_vectors():
    m = 1
    for rf in (root_fn_km0(2, m), root_fn_constant(2, m)):
        mod = RootModule(rf)
        family = ss_vectors(2)
        for ell in (1, 2):
            state = family.S[ell - 1]
            for N in range(-1, m + ell + 2):
                s_v0 = mod.fourier_act(state, N, V0)
                for i in (1, 2):
                    for j in (1, 2):
                        for s in range(-2, 3):
                            g = Gen(i, j, s)
                            lhs = mod.act(g, s_v0)
                            rhs = mod.fourier_act(state, N, mod.act(g, V0))
                            assert lhs == rhs, (rf.describe(), ell, N, g)


def test_centrality_fails_away_from_critical_level():
    # Sanity check that the level matters: with the cocycle switched off the
    # quadratic vector's coefficients no longer commute with the generators.
    fam = ss_vectors(2)
    rf = root_fn_constant(2, 1)
    flat = RootModule(rf)
    crit = flat.algebra.bracket
    flat.algebra.bracket = lambda a, b: (crit(a, b)[0], 0)
    broken = False
    for s in range(-2, 3):
        for N in range(-1, 4):
            g = Gen(1, 2, s)
            lhs = flat.act(g, flat.fourier_act(fam.S[1], N, V0))
            rhs = flat.fourier_act(fam.S[1], N, flat.act(g, V0))
            if lhs != rhs:
                broken = True
    assert broken


# -- vanishing reports -----------------------------------------------------------


def test_conductor_profile_thresholds():
    for (n, m) in [(2, 1), (2, 2), (3, 1)]:
        rf = root_fn_km0(n, m)
        report = vanishing_report(n, rf, scan_window=2)
        assert report["thresholds_theoretical"] == [m + ell - 1 for ell in range(1, n + 1)]
        assert all(report["verified"])
        # threshold attained at ell = 1
        assert not ss_operator_act(n, 1, m - 1, rf).is_zero()


def test_rank_mismatch_is_a_validation_error():
    for call in (ss_operator_act, lambda n, ell, N, rf: vanishing_report(n, rf)):
        with pytest.raises(ValidationError):
            call(3, 1, 0, root_fn_km0(2, 1))
        with pytest.raises(ValidationError):
            call(2, 1, 0, root_fn_km0(3, 1))


@pytest.mark.parametrize("ell, N", [(1.0, 1), (1, 1.5), (True, 1)])
def test_ss_operator_act_rejects_non_int_arguments(ell, N):
    with pytest.raises(ValidationError):
        ss_operator_act(2, ell, N, root_fn_km0(2, 1))


def test_conductor_thresholds_beyond_required_grid():
    # Cheap extra coverage at larger parameters.
    for (n, m) in [(3, 2), (4, 1)]:
        report = vanishing_report(n, root_fn_km0(n, m), scan_window=1)
        assert report["thresholds_theoretical"] == [
            m + ell - 1 for ell in range(1, n + 1)
        ]
        assert all(report["verified"])


def test_congruence_thresholds():
    for (n, m) in [(2, 1), (2, 2), (3, 1)]:
        rf = root_fn_constant(n, m)
        report = vanishing_report(n, rf, scan_window=2)
        assert report["thresholds_theoretical"] == [ell * m for ell in range(1, n + 1)]
        assert all(report["verified"])


def test_moy_prasad_reduces_to_congruence():
    for (n, m) in [(2, 1), (2, 2), (3, 1)]:
        rf = root_fn_moy_prasad(n, [0] * n, m - 1)
        assert rf == root_fn_constant(n, m)
        assert [rf.threshold(ell) for ell in range(1, n + 1)] == [
            ell * m for ell in range(1, n + 1)
        ]
        report = vanishing_report(n, rf, scan_window=1)
        assert all(report["verified"])


def test_moy_prasad_generic_point():
    rf = root_fn_moy_prasad(2, [Fraction(1, 2), 0], 0)
    report = vanishing_report(2, rf, scan_window=2)
    assert report["thresholds_theoretical"] == [1, 2]
    assert all(report["verified"])


def test_observed_min_vanishing_matches_thresholds_on_grid():
    # Empirical sharpness on the conductor grid: the scan finds nonzero
    # vectors right below every threshold.
    for (n, m) in [(2, 1), (2, 2)]:
        report = vanishing_report(n, root_fn_km0(n, m), scan_window=2)
        assert report["observed_min_vanishing"] == report["thresholds_theoretical"]
        assert all(N is not None for N in report["witness_N"])


def _full_grid_report(n, rf, scan_window):
    """The report from every cell of [thr - window, hi), computed upward.

    Also returns which kinds of row occurred: every scanned cell zero, every
    scanned cell nonzero, zero cells above a nonzero one, and unverified.
    """
    family = ss_vectors(n)
    mod = RootModule(rf)
    report = {
        "case": rf.describe(), "n": n, "scan_window": scan_window,
        "thresholds_theoretical": [], "certified_from": [], "verified": [],
        "observed_min_vanishing": [], "witnesses": [], "witness_N": [],
    }
    kinds = set()
    for ell in range(1, n + 1):
        state = family.S[ell - 1]
        thr = rf.threshold(ell)
        certified = mod.annihilation_bound(state, V0)
        if thr is None:
            thr = certified
        lo, hi = thr - scan_window, max(certified, thr)
        values = {N: mod.fourier_act(state, N, V0) for N in range(lo, hi)}
        bad = [N for N in range(lo, hi) if not values[N].is_zero()]
        largest_bad = bad[-1] if bad else None
        if not bad:
            kinds.add("all zero")
        elif len(bad) == hi - lo:
            kinds.add("none zero")
        elif largest_bad < hi - 1:
            kinds.add("zeros above")
        if bad and largest_bad >= thr:
            kinds.add("unverified")
        report["thresholds_theoretical"].append(thr)
        report["certified_from"].append(certified)
        report["verified"].append(all(values[N].is_zero() for N in range(thr, hi)))
        report["observed_min_vanishing"].append(lo if not bad else largest_bad + 1)
        report["witnesses"].append(values[largest_bad].to_json() if bad else None)
        report["witness_N"].append(largest_bad)
    return report, kinds


def test_downward_scan_matches_full_grid():
    cases = [(n, rf) for n in (1, 2, 3) for rf in (
        root_fn_km0(n, 1), root_fn_km0(n, 2), root_fn_constant(n, 1),
        root_fn_moy_prasad(n, [0] * n, Fraction(1, 2)),
    )]
    cases += [(2, root_fn_moy_prasad(2, [Fraction(1, 2), 0], 0)), (4, root_fn_km0(4, 1))]
    # Depth 2 everywhere (true thresholds 2l) but claiming the km0 m=1
    # thresholds l, so cells at and above the claimed threshold survive.
    depth_two = {(i, j): 2 for i in (1, 2) for j in (1, 2)}
    cases.append((2, RootFunction(2, depth_two, "km0", {"m": 1})))
    kinds = set()
    for n, rf in cases:
        for window in range(4):
            expected, seen = _full_grid_report(n, rf, window)
            assert vanishing_report(n, rf, scan_window=window) == expected, (
                rf.describe(), window,
            )
            kinds |= seen
    assert kinds == {"all zero", "none zero", "zeros above", "unverified"}


def test_minor_table_modes_match_straightened_oracle():
    # Every scanned cell read from the minor table equals the straightened
    # S_l's Fourier mode.  Both run on one module, so a node cache entry that
    # collided with a word's would be read back by the other side.  Depths 2
    # and 3 (km0 m = 2, 3, congruence m = 2, Moy-Prasad r = 3/2) have no
    # degree cut, so the depth rule alone truncates there.
    cases = [
        (n, rf)
        for n in (1, 2, 3, 4)
        for rf in (
            root_fn_km0(n, 1), root_fn_km0(n, 2), root_fn_km0(n, 3),
            root_fn_constant(n, 1), root_fn_constant(n, 2),
        )
    ]
    cases += [
        (n, root_fn_moy_prasad(n, [Fraction(1, 2)] + [0] * (n - 1), 0)) for n in (2, 3, 4)
    ]
    cases += [
        (n, root_fn_moy_prasad(n, [Fraction(k, n) for k in range(n)], Fraction(3, 2)))
        for n in (2, 3, 4)
    ]
    cases.append((5, root_fn_km0(5, 1)))
    cells = nonzero = 0
    for n, rf in cases:
        family, nodes = ss_vectors(n), ss_nodes(n)
        mod = RootModule(rf)
        for ell in range(1, n + 1):
            S, node = family.S[ell - 1], nodes[ell - 1]
            thr = rf.threshold(ell)
            certified = mod.annihilation_bound(S, V0)
            for N in range(thr - 3, max(certified, thr)):
                expected = mod.fourier_act(S, N, V0)
                assert mod.fourier_act(node, N, V0) == expected, (rf.describe(), ell, N)
                cells += 1
                nonzero += not expected.is_zero()
            # the node's certified bound holds for the straightened S_l too
            top = mod.annihilation_bound(node, V0)
            assert mod.fourier_act(S, top, V0).is_zero()
            assert mod.fourier_act(node, top, V0).is_zero()
            assert mod.fourier_act(node, top - 1, V0) == mod.fourier_act(S, top - 1, V0)
        # no table the rule proves empty was expanded, for nodes and words alike
        for word, s, mono in mod._fourier_cache:
            assert s < mod._zero_from(word, mono), (rf.describe(), s, mono)
    assert cells > 200 and 0 < nonzero < cells


def test_node_bound_equals_straightened_bound():
    # certified_from is read from S_l's node; it must equal the bound of the
    # straightened S_l, as vanishing_report's docstring proves.
    for n in (1, 2, 3, 4, 5):
        family, nodes = ss_vectors(n), ss_nodes(n)
        cases = [root_fn_km0(n, m) for m in (1, 2, 3)]
        cases += [root_fn_constant(n, m) for m in (1, 2, 3)]
        cases += [
            root_fn_moy_prasad(n, [Fraction(1, 2)] + [0] * (n - 1), 0),
            root_fn_moy_prasad(n, [Fraction(k, n) for k in range(1, n + 1)], "1/3"),
        ]
        for rf in cases:
            mod = RootModule(rf)
            for node, S in zip(nodes, family.S):
                bound = mod.annihilation_bound(node, V0)
                assert bound == mod.annihilation_bound(S, V0), rf.describe()


def test_vanishing_report_never_straightens_the_family():
    import critcenter.sugawara as sugawara

    sugawara._family_cache.clear()
    report = vanishing_report(4, root_fn_km0(4, 1))
    assert 4 not in sugawara._family_cache
    assert report["certified_from"] == [
        RootModule(root_fn_km0(4, 1)).annihilation_bound(S, V0) for S in ss_vectors(4).S
    ]


def test_node_modes_on_shifted_vectors():
    # Nodes act on any vector and split per monomial like words: each cell
    # equals the straightened S_l's cell on a fresh module.
    n, rf = 3, root_fn_km0(3, 1)
    family, nodes = ss_vectors(n), ss_nodes(n)
    mod = RootModule(rf)
    vec = mod.act(Gen(3, 1, 0), V0).scale(2) + mod.act(Gen(2, 1, -1), V0) - V0
    for ell in (1, 2, 3):
        for N in range(-1, 4):
            expected = RootModule(rf).fourier_act(family.S[ell - 1], N, vec)
            assert mod.fourier_act(nodes[ell - 1], N, vec) == expected, (ell, N)


# -- the degree cut -------------------------------------------------------------


def _depth_one_cases():
    # Every r(i, j) <= 1: km0 m=1, congruence m=1 and Moy-Prasad r=0.
    cases = []
    for n in (1, 2, 3, 4):
        cases += [root_fn_km0(n, 1), root_fn_constant(n, 1)]
        cases.append(root_fn_moy_prasad(n, [0] * n, 0))
        if n > 1:
            cases.append(root_fn_moy_prasad(n, [Fraction(1, 2)] + [0] * (n - 1), 0))
    return cases


def _uncut(rf, monkeypatch):
    mod = RootModule(rf)
    monkeypatch.setattr(mod, "_degree_cut", False)
    return mod


def test_degree_cut_changes_no_cell(monkeypatch):
    # Every cell of every S_l node and some word states, on v_0 and on a
    # vector with monomials of negative degree, from thr - 3 to two past the
    # depth bound, equals the cell of the same module with the cut disabled.
    cells = nonzero = 0
    for rf in _depth_one_cases():
        n = rf.n
        mod, plain = RootModule(rf), _uncut(rf, monkeypatch)
        assert mod._degree_cut
        shifted = (
            mod.act(Gen(n, 1, 0), V0).scale(2)
            + mod.act(Gen(1, 1, -1), mod.act(Gen(1, n, -1), V0))
            - V0
        )
        states = list(ss_nodes(n))
        states += [(Gen(1, 1, -2),), (Gen(n, 1, -1), Gen(1, n, -2))]
        for vec in (V0, shifted):
            for index, state in enumerate(states):
                ell = min(index + 1, n)
                lo = rf.threshold(ell) - 3
                for N in range(lo, mod.annihilation_bound(state, vec) + 3):
                    expected = plain.fourier_act(state, N, vec)
                    assert mod.fourier_act(state, N, vec) == expected, (
                        rf.describe(), index, N,
                    )
                    cells += 1
                    nonzero += not expected.is_zero()
        # no cell at or above its cut was expanded
        for word, s, mono in mod._fourier_cache:
            assert s < -mod._degree(word) - mod._degree(mono)
    assert cells > 1000 and 0 < nonzero < cells


def test_degree_cut_needs_depth_at_most_one():
    for rf in (
        root_fn_km0(3, 2),
        root_fn_constant(3, 2),
        root_fn_moy_prasad(3, [0, 0, 1], 0),
        root_fn_moy_prasad(3, [0, 0, 0], 1),
    ):
        assert max(map(max, rf.as_matrix())) == 2
        assert not RootModule(rf)._degree_cut, rf.describe()


def test_forced_degree_cut_is_wrong_at_depth_two():
    # On km0 m=2 a creation factor e_3j[1] has positive degree, so the cut
    # does not hold: S_1,(1) v_0 is nonzero, yet its degree is 1.
    rf = root_fn_km0(3, 2)
    mod = RootModule(rf)
    node = ss_nodes(3)[0]
    assert not mod.fourier_act(node, 1, V0).is_zero()
    forced = RootModule(rf)
    forced._degree_cut = True
    assert forced.fourier_act(node, 1, V0).is_zero()


def test_node_degree_is_homogeneous():
    # Each term of a node has the node's degree power - len(rows), and the
    # multiplied-out S_l is homogeneous of degree -l.
    mod = RootModule(root_fn_km0(5, 1))
    stack, seen = list(ss_nodes(5)), set()
    while stack:
        node = stack.pop()
        if not node or id(node) in seen:
            continue
        seen.add(id(node))
        for _coef, head, child in node.terms:
            head_degree = 0 if head is None else head.u
            assert head_degree + mod._degree(child) == mod._degree(node)
            stack.append(child)
    assert len(seen) > 70
    for ell, S in enumerate(ss_vectors(5).S, start=1):
        assert mod._degree(ss_nodes(5)[ell - 1]) == -ell
        assert {sum(g.u for g in word) for word in S._terms} == {-ell}


def test_scan_caches_no_empty_fourier_table(monkeypatch):
    # The degree cut skips every cell it proves zero instead of caching an
    # empty table for it.
    built = []
    init = RootModule.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(RootModule, "__init__", recording_init)
    report = vanishing_report(5, root_fn_km0(5, 1))
    assert all(report["verified"])
    assert report["certified_from"] == [2 * ell - 1 for ell in range(1, 6)]
    (mod,) = built
    assert mod._fourier_cache
    assert all(mod._fourier_cache.values())


def test_default_scan_builds_no_pool(monkeypatch):
    # Under the GIL a pool only makes the per-l scans take turns, so the
    # scan runs in-line.
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("the default scan built a thread pool")

    monkeypatch.delenv("CRITCENTER_WORKERS", raising=False)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    report = vanishing_report(3, root_fn_km0(3, 1))
    assert all(report["verified"])


def test_vanishing_report_deterministic_and_parallel(monkeypatch):
    # The scan no longer reads CRITCENTER_WORKERS; setting it must leave the
    # report unchanged.
    rf = root_fn_km0(2, 1)
    base = vanishing_report(2, rf, scan_window=2)
    monkeypatch.setenv("CRITCENTER_WORKERS", "3")
    parallel = vanishing_report(2, rf, scan_window=2)
    assert base == parallel


def test_parallel_scan_under_fast_thread_switching(monkeypatch):
    # The per-l scans share one module and its caches.  Under any worker
    # setting and a tiny switch interval the report must still equal the
    # first one.
    rf = root_fn_km0(4, 1)
    monkeypatch.setenv("CRITCENTER_WORKERS", "1")
    sequential = vanishing_report(4, rf, scan_window=3)
    monkeypatch.setenv("CRITCENTER_WORKERS", "8")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        parallel = vanishing_report(4, rf, scan_window=3)
    finally:
        sys.setswitchinterval(interval)
    assert parallel == sequential


def test_conductor_irregularity_report():
    for n in (1, 2, 3):
        for m in (1, 2):
            report = conductor_irregularity_report(n, m, scan_window=1)
            assert report["pole_bounds"] == [m + ell - 1 for ell in range(1, n + 1)]
            assert report["witness_irregularity"] == m - 1
            assert report["irregularity_bound"] == m - 1
            assert report["vanishing_verified"]


_module_words = st.lists(
    st.builds(Gen, st.integers(1, 2), st.integers(1, 2), st.integers(-2, 0)), max_size=3
).map(lambda w: tuple(sorted(w)))


@given(
    st.lists(
        st.tuples(_module_words, st.fractions(min_value=-3, max_value=3, max_denominator=7)),
        max_size=5,
    )
)
@example([((Gen(2, 1, 0), Gen(2, 1, 0)), Fraction(3, 7)), ((), -1)])
def test_module_vector_json_round_trip(terms):
    vec = ModuleVector(terms)
    parsed = ModuleVector.from_json(vec.to_json())
    assert parsed == vec
    assert str(parsed) == str(vec)


def test_module_vector_json_rejects_tau():
    with pytest.raises(ValidationError):
        ModuleVector.from_json([{"coeff": "1", "word": ["tau", "e[1,1;0]"]}])


def test_module_vector_rejects_words_out_of_pbw_order():
    # The constructor and from_json share one check: a word that is not a
    # basis monomial would stand for a second, unequal copy of the same
    # vector, and the module would act on it as if it were normal.
    low, high = Gen(1, 1, -2), Gen(1, 1, -1)
    with pytest.raises(ValidationError, match="not in PBW order"):
        ModuleVector({(high, low): 1})
    with pytest.raises(ValidationError, match="not in PBW order"):
        ModuleVector([((Gen(2, 1, 0), Gen(1, 1, 0)), 1)])
    vec = ModuleVector({(low, high): 1})
    acted = RootModule(root_fn_km0(2, 1)).act(Gen(1, 1, -3), vec)
    assert acted == ModuleVector({(Gen(1, 1, -3), low, high): 1})
    # a state may still be given in words that are not normal
    assert state_is_central({(high, low): 1}, 1)


def test_module_vector_json_rejects_words_out_of_pbw_order():
    # e[1,1;0]*e[2,1;0]*v0 is the basis monomial; the reversed word is not one
    with pytest.raises(ValidationError):
        ModuleVector.from_json([{"coeff": "1", "word": ["e[2,1;0]", "e[1,1;0]"]}])
    ordered = ModuleVector.from_json([{"coeff": "1", "word": ["e[1,1;0]", "e[2,1;0]"]}])
    module = RootModule(root_fn_km0(2, 1))
    acted = module.act(Gen(2, 1, 0), ModuleVector.from_json(
        [{"coeff": "1", "word": ["e[1,1;0]"]}]))
    assert acted == ordered + ModuleVector.from_json([{"coeff": "1", "word": ["e[2,1;0]"]}])


@pytest.mark.parametrize(
    "data",
    [
        5,
        {"coeff": "1", "word": []},
        [5],
        [{"word": []}],
        [{"coeff": "1"}],
        [{"coeff": "1", "word": [3]}],
        [{"coeff": "1", "word": "e[1,1;-1]"}],
    ],
    ids=["number", "bare-term", "number-term", "no-coeff", "no-word", "int-token", "string-word"],
)
def test_malformed_term_json_is_a_validation_error(data):
    # ModuleVector and NCPoly share one JSON term reader.  It names the shape
    # it expected, and never reads a string word one character at a time.
    with pytest.raises(ValidationError, match="term|word"):
        ModuleVector.from_json(data)
    with pytest.raises(ValidationError, match="term|word"):
        NCPoly.from_json(AffineAlgebra(2), data)
