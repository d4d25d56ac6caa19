"""Extended Norm-Trace curves, evaluation codes, subfield subcodes and
trace codes, with exact minimum-distance verification."""

from .curves import CurveSpec, enumerate_points, make_curve
from .codes import affine_variety_code, build_code, check_duality, dual_weight
from .distance import DistanceResult, exact_min_distance_enum, \
    exact_min_distance_parity, geil_bound, is_even_weight
from .fields import FiniteField, SubfieldEmbedding, embedding, make_field, \
    trace_to
from .linalg import LinearCode, kernel, row_space_basis
from .monomials import compare, footprint, monomials_up_to, weight
from .reduction import SparsePolynomial, curve_ideal_basis, frobenius_power, \
    normal_form, weight_residues
from .reporting import CodeReport, export_matrix, import_matrix, run_report, \
    sweep
from .subfield import code_frobenius, is_frobenius_invariant, \
    subfield_subcode_dim, subfield_subcode_of_ent, subfield_subcode_oracle, \
    trace_code, trace_span_dim

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
