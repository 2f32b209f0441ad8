"""Root modules, Fourier-coefficient actions, and the vanishing machinery."""

import os
import random
from fractions import Fraction

import pytest

from critcenter.algebra import Gen
from critcenter.errors import DomainError, ValidationError
from critcenter.modules import (
    ModuleVector,
    RootModule,
    _gbinom,
    act_generator,
    annihilation_bound,
    conductor_irregularity_report,
    lemma_relations_bound,
    root_fn_constant,
    root_fn_km0,
    root_fn_moy_prasad,
    ss_operator_act,
    state_is_central,
    vacuum_module,
    vanishing_report,
)
from critcenter.pbw import NCPoly
from critcenter.sugawara import ss_vectors

V0 = ModuleVector.vacuum()


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
    with pytest.raises(ValidationError):
        root_fn_moy_prasad(2, [3, 0], 0)  # depth 1 - ceil(3) < 0


def test_moy_prasad_thresholds():
    rf = root_fn_moy_prasad(2, [0, 0], Fraction(1, 2))
    assert [rf.threshold(ell) for ell in (1, 2)] == [2, 3]


# -- generator action --------------------------------------------------------


def test_act_annihilates_at_depth():
    rf = root_fn_constant(2, 1)
    assert act_generator(Gen(1, 1, 1), V0, rf).is_zero()


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
    rf = root_fn_km0(2, 1)
    mod = RootModule(rf)
    word = (Gen(1, 1, -2), Gen(1, 2, -1), Gen(2, 1, -1))
    degrees = sum(g.u for g in word)
    pairs = sorted((g.i, g.j) for g in word)
    for s in (0, 1, 2):
        seen = []
        mod.fourier_act({word: 1}, s, V0, on_term=lambda w, c: seen.append((w, c)))
        assert seen
        for term_word, coeff in seen:
            assert coeff != 0
            assert sorted((g.i, g.j) for g in term_word) == pairs
            # total mode degree of every expansion term is fixed by s
            assert sum(g.u for g in term_word) == degrees + s + 1


def test_trace_on_warm_cache_matches_fresh_module():
    # A traced call must walk every expansion path even when an untraced
    # call has already cached the sub-results it would otherwise reuse.
    n = 3
    rf = root_fn_km0(n, 1)
    family = ss_vectors(n)
    warm = RootModule(rf)
    traced_cells = 0
    for ell in range(1, n + 1):
        state = family.S[ell - 1]
        certified = warm.annihilation_bound(state, V0)
        thr = rf.threshold(ell)
        for N in range(thr - 3, max(certified, thr)):
            plain = warm.fourier_act(state, N, V0)
            paths, fresh_paths = [], []
            traced = warm.fourier_act(
                state, N, V0, on_term=lambda w, c: paths.append((w, c))
            )
            RootModule(rf).fourier_act(
                state, N, V0, on_term=lambda w, c: fresh_paths.append((w, c))
            )
            assert traced == plain, (ell, N)
            assert paths == fresh_paths, (ell, N)
            traced_cells += bool(paths)
    assert traced_cells


# -- annihilation bounds -------------------------------------------------------


def test_annihilation_bound_single_factor():
    for m in (1, 2, 3):
        rf = root_fn_constant(2, m)
        state = {(Gen(1, 2, -1),): 1}
        assert annihilation_bound(state, V0, rf) == m


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
        rhs = ModuleVector.zero()
        for p in range(0, max(cutoff, 0) + 1):
            inner = vac.fourier_act(state, p, x_state)
            if inner.is_zero():
                continue
            shifted = mod.fourier_act(inner, s + x.u - p, v)
            rhs = rhs + shifted.scale(_gbinom(s, p))
        assert lhs == rhs, (word, x, s)


# -- centrality ----------------------------------------------------------------


def test_sugawara_states_are_central_in_vacuum():
    for n in (2, 3):
        family = ss_vectors(n)
        for s in family.S:
            assert state_is_central(s, n)


def _reordered_quadratic_variant():
    alg = ss_vectors(2).S[0].algebra
    return NCPoly(
        alg,
        {
            (0, (Gen(1, 1, -2),)): -1,
            (0, (Gen(1, 1, -1), Gen(2, 2, -1))): 1,
            (0, (Gen(1, 2, -1), Gen(2, 1, -1))): -1,
        },
        _normal=True,
    )


def test_reordered_quadratic_vector_is_not_central():
    # Reordering the off-diagonal product across columns spoils centrality;
    # the corrected variant differs by e_11[-2] - e_22[-2] and fails the
    # vacuum test, pinning the column-order convention.
    assert not state_is_central(_reordered_quadratic_variant(), 2)


def _central_by_full_sweep(state, n):
    """Reference test: every e_ij[u] below the certified mode bound kills the state."""
    mod = vacuum_module(n)
    vec = mod.act_poly(state, V0)
    limit = mod.creation_shift(vec) + mod._lemma_slack
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
    heisenberg = NCPoly.from_word(alg1, (Gen(1, 1, -2), Gen(1, 1, -1)), 3)
    assert state_is_central(heisenberg, 1) and _central_by_full_sweep(heisenberg, 1)

    alg2, alg3 = ss_vectors(2).S[0].algebra, ss_vectors(3).S[0].algebra
    # tr(E[-2] E[-2]) is sl_n-invariant, so only e_{n,1}[1] detects it.
    trace_square = NCPoly(
        alg3,
        [
            ((0, (Gen(i, j, -2), Gen(j, i, -2))), 1)
            for i in (1, 2, 3)
            for j in (1, 2, 3)
        ],
    )
    non_central = [
        (_reordered_quadratic_variant(), 2),
        (NCPoly.from_word(alg2, (Gen(1, 2, -1),)), 2),
        (NCPoly.from_word(alg3, (Gen(1, 2, -1),)), 3),
        (ss_vectors(3).S[1] + NCPoly.from_word(alg3, (Gen(1, 2, -2),)), 3),
        (trace_square, 3),
    ]
    for state, n in non_central:
        assert not state_is_central(state, n), (n, state)
        assert not _central_by_full_sweep(state, n), (n, state)


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

    first = [v.freeze() for v in run(mod)]
    act_snapshot = {k: dict(v) for k, v in mod._act_cache.items()}
    fourier_snapshot = {k: v.freeze() for k, v in mod._fourier_cache.items()}
    for _ in range(2):
        assert [v.freeze() for v in run(mod)] == first
    assert [v.freeze() for v in run(RootModule(rf))] == first
    for key, table in act_snapshot.items():
        assert mod._act_cache[key] == table
    for key, frozen in fourier_snapshot.items():
        assert mod._fourier_cache[key].freeze() == frozen


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
    flat = RootModule(rf, level=Fraction(0))
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


def test_vanishing_report_deterministic_and_parallel():
    rf = root_fn_km0(2, 1)
    base = vanishing_report(2, rf, scan_window=2)
    os.environ["CRITCENTER_WORKERS"] = "3"
    try:
        parallel = vanishing_report(2, rf, scan_window=2)
    finally:
        del os.environ["CRITCENTER_WORKERS"]
    assert base == parallel


def test_conductor_irregularity_report():
    for n in (1, 2, 3):
        for m in (1, 2):
            report = conductor_irregularity_report(n, m, scan_window=1)
            assert report["pole_bounds"] == [m + ell - 1 for ell in range(1, n + 1)]
            assert report["witness_irregularity"] == m - 1
            assert report["irregularity_bound"] == m - 1
            assert report["vanishing_verified"]


def test_module_vector_json_round_trip():
    rf = root_fn_km0(2, 1)
    mod = RootModule(rf)
    vec = mod.act(Gen(2, 1, 0), V0).scale(Fraction(3, 7)) - V0
    assert ModuleVector.from_json(vec.to_json()) == vec
