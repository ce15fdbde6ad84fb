"""Computational differential geometry of 3-dimensional solvable Lie groups.

Left-invariant metrics, their Ricci operators and solvsoliton
certificates, canonical representatives of their isometry classes, and
the mean curvature of the matching scaling-automorphism orbits in the
space of inner products.
"""

from .curvature import ricci_canonical
from .derivations import derivation_algebra
from .errors import InvalidFamilyError, NonSPDMetricError, SingularMatrixError
from .lie_core import FAMILY_TAGS, Family, make_family, parse_family
from .moduli import metric_to_group, reduce, rep_matrix
from .orbit_geometry import orbit_at
from .soliton import soliton_from_frame, solvsoliton_check

__version__ = "0.1.0"

# the verdict path; every other public name lives in the module that defines it
__all__ = [
    "FAMILY_TAGS", "Family", "parse_family", "make_family",
    "metric_to_group", "rep_matrix", "reduce",
    "solvsoliton_check", "soliton_from_frame", "orbit_at",
    "derivation_algebra", "ricci_canonical",
    "InvalidFamilyError", "NonSPDMetricError", "SingularMatrixError",
]
