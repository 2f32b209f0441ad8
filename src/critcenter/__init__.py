"""critcenter: exact computations around the critical-level centre of affine gl_n.

The package constructs the higher Sugawara vectors by column determinant,
acts with their Fourier coefficients on induced root modules, verifies the
vanishing thresholds that bound pole orders of compatible opers, and carries
the oper / Miura / irregularity calculus on the differential-equation side.
All arithmetic is exact over the rationals.
"""

from .laurent import INFINITY, LaurentElement
from .algebra import (
    TAU,
    AffineAlgebra,
    Gen,
    bracket,
    killing_form,
    tau_bracket,
)
from .pbw import CommPoly, NCPoly, hc_project, nc_normal_form, symbol
from .sugawara import (
    SSFamily,
    cdet,
    check_row_property,
    ss_vectors,
)
from .diffop import (
    Connection,
    CyclicVector,
    Oper,
    connection_to_oper,
    cyclic_vector_search,
    irregularity,
    miura,
    newton_polygon_irregularity,
    oper_to_connection,
)
from .modules import (
    ModuleVector,
    RootFunction,
    RootModule,
    conductor_irregularity_report,
    root_fn_constant,
    root_fn_km0,
    root_fn_moy_prasad,
    ss_operator_act,
    state_is_central,
    vanishing_report,
)

__version__ = "0.1.0"

__all__ = [
    "INFINITY",
    "LaurentElement",
    "TAU",
    "AffineAlgebra",
    "Gen",
    "bracket",
    "killing_form",
    "tau_bracket",
    "CommPoly",
    "NCPoly",
    "hc_project",
    "nc_normal_form",
    "symbol",
    "SSFamily",
    "cdet",
    "check_row_property",
    "ss_vectors",
    "Connection",
    "CyclicVector",
    "Oper",
    "connection_to_oper",
    "cyclic_vector_search",
    "irregularity",
    "miura",
    "newton_polygon_irregularity",
    "oper_to_connection",
    "ModuleVector",
    "RootFunction",
    "RootModule",
    "conductor_irregularity_report",
    "root_fn_constant",
    "root_fn_km0",
    "root_fn_moy_prasad",
    "ss_operator_act",
    "state_is_central",
    "vanishing_report",
]
