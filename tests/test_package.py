"""The public surface of the package."""

import importlib
import inspect
import subprocess
import sys

import pytest

import critcenter
from critcenter import algebra, errors, pbw, sugawara
from critcenter.algebra import AffineAlgebra, Gen
from critcenter.laurent import LaurentElement
from critcenter.lincomb import LinComb
from critcenter.modules import RootModule
from critcenter.pbw import NCPoly
from conftest import src_env


def test_public_surface_resolves_and_holds_no_test_oracles():
    # A stale __all__ entry makes the star import raise.
    namespace = {}
    exec("from critcenter import *", namespace)
    assert set(critcenter.__all__) <= set(namespace)
    # Test-only oracles live under tests/, and the dead names are gone.
    for name in ("vacuum_module", "cartan_evaluate", "central_character", "Scalar",
                 "CENTRAL", "lemma_relations_bound", "CommPoly", "symbol",
                 "commutative_char_poly_coefficients", "nc_normal_form",
                 "TAU", "tau_bracket"):
        assert not hasattr(critcenter, name), name
    # tau lives in the tests' oracle; the library holds no tau.
    for layer, name in ((pbw, "CommPoly"), (pbw, "symbol"), (pbw, "nc_normal_form"),
                        (sugawara, "commutative_char_poly_coefficients"),
                        (Gen, "is_diagonal"), (NCPoly, "from_word"),
                        (algebra, "TAU"), (algebra, "tau_bracket"),
                        (algebra, "tau_token"), (NCPoly, "tau"),
                        (NCPoly, "tau_component"), (NCPoly, "words")):
        assert not hasattr(layer, name), name
    assert not hasattr(RootModule, "act_poly")
    # Gen tuples compare in PBW order, so no sort key spells it out.
    assert not hasattr(algebra, "gen_sort_key")
    # One left-insertion engine, pbw._insert, serves S_l and the root modules.
    assert not hasattr(pbw, "_lmul")
    assert not hasattr(RootModule, "_act_word")
    assert not hasattr(RootModule, "is_creation")
    assert not hasattr(LaurentElement, "residue")
    assert not hasattr(errors, "UndeterminedResidueError")
    # The Fourier recursion has one mode: no trace keyword, no whole-vector path.
    assert list(inspect.signature(RootModule.fourier_act).parameters) == [
        "self", "state", "s", "vec",
    ]
    assert not hasattr(RootModule, "_min_degree")
    # One spelling each: LaurentElement.monomial(0, c), the bare constructor
    # for an empty combination, and _depth for a monomial's shift.
    assert not hasattr(LaurentElement, "constant")
    assert not hasattr(LinComb, "zero")
    assert not hasattr(RootModule, "creation_shift")


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


def test_every_public_name_resolves_to_its_home_module():
    for name in critcenter.__all__:
        home = importlib.import_module(f"critcenter.{critcenter._HOME[name]}")
        value = getattr(critcenter, name)
        assert value is getattr(home, name), name
        # the table names the defining layer, not one that re-exports
        assert getattr(value, "__module__", home.__name__) == home.__name__, name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        critcenter.no_such_name
    with pytest.raises(ImportError):
        from critcenter import no_such_name  # noqa: F401


def _fresh(code):
    proc = subprocess.run(
        [sys.executable, "-c", code], env=src_env(), capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_import_loads_no_layer_until_a_name_is_used():
    loaded = "print(*sorted(m for m in sys.modules if m.startswith('critcenter')))"
    assert _fresh(f"import sys, critcenter; {loaded}") == ["critcenter"]
    # a name loads its layer and the layers that one imports, nothing else
    assert _fresh(f"import sys, critcenter; critcenter.Oper; {loaded}") == [
        "critcenter", "critcenter.diffop", "critcenter.errors", "critcenter.laurent",
        "critcenter.lincomb",
    ]
    # an unknown name falls through to the submodule import
    assert _fresh(f"import sys; from critcenter import errors; {loaded}") == [
        "critcenter", "critcenter.errors",
    ]
