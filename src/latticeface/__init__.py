"""Exact-arithmetic toolkit for lattice polytopes: integrality and general
position certificates, normalized and slice-sum volumes, Ehrhart polynomials,
and signed simplex-decomposition identities."""

from .ehrhart import (
    EhrhartPolynomial,
    count_points,
    ehrhart_from_projections,
    ehrhart_from_slices,
    ehrhart_interpolated,
    ehrhart_polynomial,
    iter_slice_polynomials,
    verify_codim1_identity,
)
from .integrality import (
    HypothesisError,
    LevelCertificate,
    affine_is_integral,
    generality_level,
    integrality_level,
    level_certificates,
    subspace_in_general_position,
    subspace_is_integral,
)
from .lattice import SplitLattice, Sublattice, extend_basis, saturate, split
from .polytope import BudgetExceeded, Face, HRep, Polytope, Triangulation, triangulate
from .reduction import AffineMap, apply_affine, find_generic_integer_vector, reduce_to_full_general
from .report import Report
from .simplex_decomposition import (
    determinant_ratios,
    power_sum,
    simplex_slice_volume,
    verify_signed_decomposition,
    verify_simplex_identities,
    verify_vanishing_sum,
)
from .volume import (
    Slice,
    iter_slices,
    lin_lattice,
    normalized_volume,
    slice_volume_sum,
    triangulate_1general,
    verify_volume_slice_identity,
)

__all__ = [
    "AffineMap",
    "BudgetExceeded",
    "EhrhartPolynomial",
    "Face",
    "HRep",
    "HypothesisError",
    "LevelCertificate",
    "Polytope",
    "Report",
    "Slice",
    "SplitLattice",
    "Sublattice",
    "Triangulation",
    "affine_is_integral",
    "apply_affine",
    "count_points",
    "determinant_ratios",
    "ehrhart_from_projections",
    "ehrhart_from_slices",
    "ehrhart_interpolated",
    "ehrhart_polynomial",
    "extend_basis",
    "find_generic_integer_vector",
    "generality_level",
    "integrality_level",
    "iter_slice_polynomials",
    "iter_slices",
    "level_certificates",
    "lin_lattice",
    "normalized_volume",
    "power_sum",
    "reduce_to_full_general",
    "saturate",
    "simplex_slice_volume",
    "slice_volume_sum",
    "split",
    "subspace_in_general_position",
    "subspace_is_integral",
    "triangulate",
    "triangulate_1general",
    "verify_codim1_identity",
    "verify_signed_decomposition",
    "verify_simplex_identities",
    "verify_vanishing_sum",
    "verify_volume_slice_identity",
]
