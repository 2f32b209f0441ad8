"""Independent cross-checks of the field machinery against vertex axioms.

These tests validate the Fourier recursion through identities it does not
use internally: the creation axiom (the (-1)-coefficient applied to the
highest vector of the vacuum module returns the state itself), the
translation axiom (the (-2)-coefficient returns the translate, computed
here by the derivation rule [T, x_n] = -n x_{n-1} and T v_0 = 0), the
independence of the action from the chosen word presentation of a state,
and the commutativity of the centre's coefficients among themselves.
"""

import random
from fractions import Fraction

from critcenter.algebra import Gen
from critcenter.modules import (
    ModuleVector,
    RootModule,
    root_fn_km0,
)
from critcenter.sugawara import ss_vectors
from oracles import vacuum_module

V0 = ModuleVector.vacuum()


def _random_state_word(rng, n, max_len=3, min_deg=-3):
    return tuple(
        Gen(rng.randint(1, n), rng.randint(1, n), rng.randint(min_deg, -1))
        for _ in range(rng.randint(1, max_len))
    )


def _as_vector(vac, word):
    return vac.act_word(word, V0)


def _translate(vac, vec):
    """T(vec) by the derivation rule: lower one factor degree at a time."""
    out = ModuleVector()
    for word, c in vec._terms.items():
        for idx, g in enumerate(word):
            lowered = word[:idx] + (g.shifted(-1),) + word[idx + 1 :]
            # [T, x_n] = -n x_{n-1} contributes -n times the lowered word
            out = out + vac.act_word(lowered, V0).scale(Fraction(-g.u) * c)
    return out


def test_creation_axiom_minus_one_coefficient_returns_state():
    rng = random.Random(101)
    for n in (2, 3):
        vac = vacuum_module(n)
        for _ in range(40):
            word = _random_state_word(rng, n)
            state = {word: 1}
            assert vac.fourier_act(state, -1, V0) == _as_vector(vac, word), word


def test_translation_axiom_minus_two_coefficient_returns_translate():
    rng = random.Random(103)
    for n in (2, 3):
        vac = vacuum_module(n)
        for _ in range(40):
            word = _random_state_word(rng, n)
            state = {word: 1}
            expected = _translate(vac, _as_vector(vac, word))
            assert vac.fourier_act(state, -2, V0) == expected, word


def test_fourier_action_is_presentation_independent():
    rng = random.Random(107)
    n = 3
    vac = vacuum_module(n)
    mod = RootModule(root_fn_km0(n, 1))
    for _ in range(25):
        word = _random_state_word(rng, n, max_len=3, min_deg=-2)
        # Re-express the word state in the creation basis of the vacuum
        # module; acting with either presentation must agree.
        basis_form = _as_vector(vac, word)
        for s in range(-2, 4):
            direct = mod.fourier_act({word: 1}, s, V0)
            via_basis = mod.fourier_act(basis_form, s, V0)
            assert direct == via_basis, (word, s)


def test_centre_coefficients_commute_with_each_other():
    n = 2
    fam = ss_vectors(n)
    mod = RootModule(root_fn_km0(n, 1))
    vectors = [V0, mod.act(Gen(2, 1, 0), V0)]
    for a in (1, 2):
        for b in (1, 2):
            for M in range(-1, 3):
                for N in range(-1, 3):
                    for v in vectors:
                        lhs = mod.fourier_act(
                            fam.S[a - 1], M, mod.fourier_act(fam.S[b - 1], N, v)
                        )
                        rhs = mod.fourier_act(
                            fam.S[b - 1], N, mod.fourier_act(fam.S[a - 1], M, v)
                        )
                        assert lhs == rhs, (a, b, M, N)
