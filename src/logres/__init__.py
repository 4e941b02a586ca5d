"""Exact calculus for weighted-homogeneous free divisors and the normal-form
data of flat logarithmic connections with a fixed semisimple residue."""

from .catalog import CATALOG_NAMES, catalog, normal_crossing, plane_curve
from .connections import LogConnection, MatrixPolyMap, curvature, is_flat
from .divisor import (
    FrameElement,
    FreeDivisor,
    VectorFieldPoly,
    bracket,
    dlog_f_expansion,
    dual_log_forms,
    form_structure_equations,
    frame_constants,
    structure_functions,
    verify_saito,
)
from .liealg import (
    JCDecomposition,
    ResidueData,
    ad_operator,
    commutator,
    is_nilpotent,
    is_semisimple,
    is_unipotent,
    jordan_chevalley,
    log_unipotent,
    validate_residue,
)
from .linear import RationalMatrix, charpoly, integer_eigenvalues, rref
from .moduli import (
    ModuliPoint,
    PolySystem,
    assemble_connection,
    check_point,
    coordinates_of,
    linear_certificate,
    moduli_system,
    restrict_system,
)
from .polynomials import (
    InexactDivisionError,
    WeightedPoly,
    WeightMismatchError,
    exact_divide,
    monomials_of_degree,
    squarefree_probable,
)

__version__ = "0.1.0"

__all__ = [
    "CATALOG_NAMES",
    "FrameElement",
    "FreeDivisor",
    "InexactDivisionError",
    "JCDecomposition",
    "LogConnection",
    "MatrixPolyMap",
    "ModuliPoint",
    "PolySystem",
    "RationalMatrix",
    "ResidueData",
    "VectorFieldPoly",
    "WeightMismatchError",
    "WeightedPoly",
    "ad_operator",
    "assemble_connection",
    "bracket",
    "catalog",
    "charpoly",
    "check_point",
    "commutator",
    "coordinates_of",
    "curvature",
    "dlog_f_expansion",
    "dual_log_forms",
    "exact_divide",
    "form_structure_equations",
    "frame_constants",
    "integer_eigenvalues",
    "is_flat",
    "is_nilpotent",
    "is_semisimple",
    "is_unipotent",
    "jordan_chevalley",
    "linear_certificate",
    "log_unipotent",
    "moduli_system",
    "monomials_of_degree",
    "normal_crossing",
    "plane_curve",
    "restrict_system",
    "rref",
    "squarefree_probable",
    "structure_functions",
    "validate_residue",
    "verify_saito",
]
