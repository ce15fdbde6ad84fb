"""Computational differential geometry of 3-dimensional solvable Lie groups.

Left-invariant metrics, their Ricci operators and solvsoliton
certificates, canonical representatives of their isometry classes, and
the mean curvature of the matching scaling-automorphism orbits in the
space of inner products.
"""

from .curvature import (MetricData, RicciResult, metric_data, ricci_canonical,
                        ricci_closed_form, ricci_operator)
from .derivations import (MatrixSubspace, conjugate_subspace,
                          derivation_algebra, scalar_plus)
from .errors import InvalidFamilyError, NonSPDMetricError, SingularMatrixError
from .lie_core import (FAMILY_TAGS, Family, StructureConstants, change_basis,
                       jacobi_residual, make_family, parse_family)
from .moduli import (Representative, ReductionTrace, frame_constants,
                     metric_to_group, reduce, rep_matrix, witness_residual)
from .orbit_geometry import (MeanCurvatureResult, OrbitData, dpi, mean_curvature,
                             orbit_at, orbit_data, second_fundamental_form)
from .soliton import (SolitonCertificate, SolitonVerdict, soliton_from_frame,
                      solvsoliton_check)

__version__ = "0.1.0"

__all__ = [
    "FAMILY_TAGS", "Family", "StructureConstants", "make_family",
    "parse_family", "change_basis", "jacobi_residual",
    "MatrixSubspace", "derivation_algebra", "conjugate_subspace", "scalar_plus",
    "MetricData", "RicciResult", "metric_data", "ricci_canonical",
    "ricci_operator", "ricci_closed_form",
    "Representative", "ReductionTrace", "metric_to_group", "reduce",
    "rep_matrix", "frame_constants", "witness_residual",
    "SolitonCertificate", "SolitonVerdict", "solvsoliton_check",
    "soliton_from_frame",
    "OrbitData", "MeanCurvatureResult", "dpi", "orbit_data",
    "second_fundamental_form", "mean_curvature", "orbit_at",
    "InvalidFamilyError", "NonSPDMetricError", "SingularMatrixError",
]
