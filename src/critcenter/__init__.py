"""critcenter: exact computations around the critical-level centre of affine gl_n.

The package constructs the higher Sugawara vectors by column determinant,
acts with their Fourier coefficients on induced root modules, verifies the
vanishing thresholds that bound pole orders of compatible opers, and carries
the oper / Miura / irregularity calculus on the differential-equation side.
All arithmetic is exact over the rationals.

``import critcenter`` loads no layer: a public name is imported from its
layer on first access (PEP 562) and then kept in this namespace.
"""

import importlib

__version__ = "0.1.0"

# Each public name, under the layer that defines it.
_LAYERS = {
    "laurent": ("INFINITY", "LaurentElement"),
    "algebra": ("AffineAlgebra", "Gen", "bracket", "killing_form"),
    "pbw": ("NCPoly", "hc_project"),
    "sugawara": ("SSFamily", "cdet", "check_row_property", "ss_vectors"),
    "diffop": (
        "Connection", "CyclicVector", "Oper", "connection_to_oper",
        "cyclic_vector_search", "irregularity", "miura",
        "newton_polygon_irregularity", "oper_to_connection",
    ),
    "modules": (
        "ModuleVector", "RootFunction", "RootModule", "conductor_irregularity_report",
        "root_fn_constant", "root_fn_km0", "root_fn_moy_prasad", "ss_operator_act",
        "state_is_central", "vanishing_report",
    ),
}
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    # An unknown name raises AttributeError, so ``from critcenter import
    # modules`` still falls through to the submodule import.
    layer = _HOME.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{layer}"), name)
    globals()[name] = value
    return value
