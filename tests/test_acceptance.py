"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on a terminal.  Every check is exact; there are no tolerances anywhere.

Known red criterion: C1 pins the quadratic vector to the bytes
-e_11[-2] + e_11[-1]e_22[-1] - e_12[-1]e_21[-1].  Those bytes differ from the
column-ordered determinant expansion by e_11[-2] - e_22[-2], and the pinned
variant fails the exact centrality test (e_21[0] maps it to -2 e_21[-2] in
the vacuum module) while the implemented vector passes it and criterion 8
requires centrality.  The assertion is kept as stated and fails honestly;
every other criterion passes against the central vector.
"""

import contextlib
import random
from fractions import Fraction

from critcenter.algebra import Gen
from critcenter.diffop import (
    Connection,
    Oper,
    certificate_determinant,
    connection_to_oper,
    cyclic_vector_search,
    irregularity,
    newton_polygon_irregularity,
    oper_to_connection,
)
from critcenter.laurent import LaurentElement as L
from critcenter.modules import (
    ModuleVector,
    RootModule,
    conductor_irregularity_report,
    root_fn_constant,
    root_fn_km0,
    root_fn_moy_prasad,
    ss_operator_act,
    vanishing_report,
)
from critcenter.pbw import NCPoly, hc_project
from critcenter.sugawara import check_row_property, ss_vectors
from oracles import commutative_char_poly_coefficients, lemma_relations_bound, symbol

V0 = ModuleVector.vacuum()


@contextlib.contextmanager
def criterion(cid, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {cid} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {cid} {label}: PASS")


def _poly(alg, terms):
    return NCPoly(alg, {word: c for (_tau_power, word), c in terms.items()})


def test_criterion_01_gl2_vectors_byte_for_byte():
    with criterion("C1", "rank-2 vectors byte-for-byte"):
        fam = ss_vectors(2)
        alg = fam.S[0].algebra
        e = lambda i, j, u: Gen(i, j, u)
        s1 = _poly(alg, {(0, (e(1, 1, -1),)): 1, (0, (e(2, 2, -1),)): 1})
        omega1 = s1
        omega2 = _poly(
            alg,
            {(0, (e(1, 1, -2),)): -1, (0, (e(1, 1, -1), e(2, 2, -1))): 1},
        )
        s2_pinned = _poly(
            alg,
            {
                (0, (e(1, 1, -2),)): -1,
                (0, (e(1, 1, -1), e(2, 2, -1))): 1,
                (0, (e(1, 2, -1), e(2, 1, -1))): -1,
            },
        )
        assert fam.S[0] == s1
        assert fam.omega[0] == omega1
        assert fam.omega[1] == omega2
        assert fam.S[1] == s2_pinned, (
            "pinned bytes differ from the column-ordered determinant "
            "expansion by e_11[-2] - e_22[-2]; the pinned variant is not "
            "central (e_21[0] sends it to -2 e_21[-2]) and criterion 8 "
            "requires centrality, so the implemented vector keeps the "
            "column order and this assertion fails honestly"
        )


def test_criterion_02_cartan_projection_identity():
    with criterion("C2", "projection sends S_l to omega_l, n = 1..4"):
        for n in range(1, 5):
            fam = ss_vectors(n)
            for ell in range(n):
                assert hc_project(fam.S[ell]) == fam.omega[ell], (n, ell + 1)


def test_criterion_03_row_property():
    with criterion("C3", "at most one bottom-row factor, n = 1..5"):
        for n in range(1, 6):
            fam = ss_vectors(n)
            for ell, s in enumerate(fam.S, 1):
                ok, witness = check_row_property(s, n)
                assert ok, (n, ell, witness)


def test_criterion_04_symbols_are_char_poly_coefficients():
    with criterion("C4", "top symbols equal det(lambda + X) coefficients, n <= 4"):
        for n in range(1, 5):
            fam = ss_vectors(n)
            reference = commutative_char_poly_coefficients(n)
            for ell in range(n):
                assert symbol(fam.S[ell]) == reference[ell], (n, ell + 1)


def test_criterion_05_conductor_profile_vanishing():
    with criterion("C5", "depth-m conductor profile: zero from m+l-1 on"):
        for (n, m) in [(2, 1), (2, 2), (3, 1)]:
            rf = root_fn_km0(n, m)
            mod = RootModule(rf)
            fam = ss_vectors(n)
            for ell in range(1, n + 1):
                threshold = m + ell - 1
                certified = mod.annihilation_bound(fam.S[ell - 1], V0)
                for N in range(threshold, max(certified, threshold) + 1):
                    assert mod.fourier_act(fam.S[ell - 1], N, V0).is_zero(), (
                        n, m, ell, N,
                    )
            # threshold attained at l = 1
            assert not ss_operator_act(n, 1, m - 1, rf).is_zero(), (n, m)


def test_criterion_06_congruence_vanishing():
    with criterion("C6", "congruence profile: zero from l*m on"):
        for (n, m) in [(2, 1), (2, 2), (3, 1)]:
            rf = root_fn_constant(n, m)
            mod = RootModule(rf)
            fam = ss_vectors(n)
            for ell in range(1, n + 1):
                threshold = ell * m
                certified = mod.annihilation_bound(fam.S[ell - 1], V0)
                for N in range(threshold, max(certified, threshold) + 1):
                    assert mod.fourier_act(fam.S[ell - 1], N, V0).is_zero(), (
                        n, m, ell, N,
                    )


def test_criterion_07_moy_prasad_thresholds():
    with criterion("C7", "filtration-point profiles vanish at (r+1) l"):
        for (n, m) in [(2, 1), (2, 2), (3, 1)]:
            rf = root_fn_moy_prasad(n, [0] * n, m - 1)
            assert rf == root_fn_constant(n, m)
            assert [rf.threshold(ell) for ell in range(1, n + 1)] == [
                ell * m for ell in range(1, n + 1)
            ]
        generic = root_fn_moy_prasad(2, [Fraction(1, 2), 0], 0)
        report = vanishing_report(2, generic, scan_window=2)
        assert report["thresholds_theoretical"] == [1, 2]
        assert all(report["verified"])


def test_criterion_08_centrality_on_vectors():
    with criterion("C8", "Fourier coefficients commute with generators on v_0"):
        m = 1
        for rf in (root_fn_km0(2, m), root_fn_constant(2, m)):
            mod = RootModule(rf)
            fam = ss_vectors(2)
            for ell in (1, 2):
                state = fam.S[ell - 1]
                for N in range(-1, m + ell + 2):
                    s_v0 = mod.fourier_act(state, N, V0)
                    for i in (1, 2):
                        for j in (1, 2):
                            for s in range(-2, 3):
                                g = Gen(i, j, s)
                                lhs = mod.act(g, s_v0)
                                rhs = mod.fourier_act(state, N, mod.act(g, V0))
                                assert lhs == rhs, (rf.describe(), ell, N, g)


def test_criterion_09_basic_vanishing_rule_500_words():
    with criterion("C9", "500 sampled words: predicted vanishing always exact"):
        rng = random.Random(1918)
        cases = [
            root_fn_constant(2, 1),
            root_fn_constant(2, 2),
            root_fn_constant(3, 1),
            root_fn_km0(2, 1),
            root_fn_km0(3, 2),
        ]
        modules = [RootModule(rf) for rf in cases]
        predicted = 0
        for _ in range(500):
            idx = rng.randrange(len(cases))
            rf, mod = cases[idx], modules[idx]
            word = tuple(
                Gen(rng.randint(1, rf.n), rng.randint(1, rf.n), rng.randint(-3, 3))
                for _ in range(rng.randint(1, 4))
            )
            if lemma_relations_bound(word, rf):
                predicted += 1
                assert mod.act_word(word, V0).is_zero(), (rf.describe(), word)
        assert predicted > 100


def test_criterion_10_conductor_irregularity_pipeline():
    with criterion("C10", "pole bounds m+l-1 and witness irregularity m-1"):
        for n in (1, 2, 3):
            for m in (1, 2):
                report = conductor_irregularity_report(n, m, scan_window=1)
                assert report["pole_bounds"] == [
                    m + ell - 1 for ell in range(1, n + 1)
                ]
                assert report["witness_irregularity"] == m - 1
                assert report["irregularity_bound"] == m - 1
                assert report["vanishing_verified"]


def _random_laurent(rng, min_exp, max_exp):
    table = {}
    for k in range(min_exp, max_exp + 1):
        if rng.random() < 0.5:
            table[k] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return L(table)


def test_criterion_11_oper_round_trip_and_cyclic_witness():
    with criterion("C11", "companion round trip exact; documented search witness"):
        rng = random.Random(1847)
        done = 0
        while done < 50:
            n = rng.randint(1, 3)
            chi = Oper([_random_laurent(rng, -3, 2) for _ in range(n)])
            conn = oper_to_connection(chi)
            e1 = [L.one() if r == 0 else L.zero() for r in range(n)]
            assert connection_to_oper(conn, e1) == chi
            done += 1
        conn = Connection([[L.zero(), L.zero()], [L.zero(), L.monomial(-1)]])
        assert certificate_determinant(conn, [L.one(), L.zero()]).is_zero()
        found = cyclic_vector_search(conn, 3)
        assert found.components == (L.one(), L.one())
        assert found.certificate == L.monomial(-1)


def test_criterion_12_irregularity_newton_polygon_oracle():
    with criterion("C12", "pole-order formula matches the hull oracle, 100 opers"):
        rng = random.Random(1718)
        done = 0
        while done < 100:
            n = rng.randint(1, 3)
            a = []
            for _ in range(n):
                if rng.random() < 0.25:
                    a.append(L.zero())
                else:
                    a.append(_random_laurent(rng, rng.randint(-4, -1), rng.randint(0, 2)))
            if all(c.is_zero() for c in a):
                continue
            chi = Oper(a)
            assert irregularity(chi) == newton_polygon_irregularity(chi)
            done += 1
