"""The public surface of the package."""

import inspect

import critcenter
from critcenter import algebra, errors
from critcenter.algebra import AffineAlgebra
from critcenter.laurent import LaurentElement
from critcenter.modules import RootModule
from critcenter.pbw import NCPoly


def test_public_surface_resolves_and_holds_no_test_oracles():
    # A stale __all__ entry makes the star import raise.
    namespace = {}
    exec("from critcenter import *", namespace)
    assert set(critcenter.__all__) <= set(namespace)
    # Test-only oracles live under tests/, and the dead names are gone.
    for name in ("vacuum_module", "cartan_evaluate", "central_character", "Scalar",
                 "CENTRAL", "lemma_relations_bound"):
        assert not hasattr(critcenter, name), name
    assert not hasattr(RootModule, "act_poly")
    assert not hasattr(LaurentElement, "residue")
    assert not hasattr(errors, "UndeterminedResidueError")
    # The Fourier recursion has one mode: no trace keyword, no whole-vector path.
    assert list(inspect.signature(RootModule.fourier_act).parameters) == [
        "self", "state", "s", "vec",
    ]
    assert not hasattr(RootModule, "_min_degree")


def test_level_is_a_constant():
    # Affine gl_n is taken at the critical level only: no form object, and no
    # level, form or normal-form knob on a constructor.
    assert not hasattr(critcenter, "BilinearForm")
    assert not hasattr(algebra, "BilinearForm")
    assert not hasattr(AffineAlgebra, "critical")

    def params(f):
        return [p for p in inspect.signature(f).parameters if p != "self"]

    assert params(AffineAlgebra) == ["n"]
    assert params(RootModule) == ["rf"]
    assert params(algebra.bracket) == ["a", "b", "n"]
    assert "_normal" not in params(NCPoly)
