"""Finite-frame analysis: potentials, dual families, coherence search,
fusion frames, and a CLI to drive all of it.
"""
import os

# A threaded BLAS is no faster on matrices of the sizes fpl handles, and its
# worker threads, which spin on after every call, slow each call several
# fold whenever another process wants the cores.  fpl parallelises only in
# the harness, with its own pool (FPL_THREADS).  So OpenBLAS runs one thread
# unless the environment says otherwise; this holds only when numpy is first
# imported through fpl.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .core import (
    COMPLEX,
    DUAL_TOL,
    RANK_RTOL,
    REAL,
    TIGHT_TOL,
    CrossGramian,
    DualFamily,
    Frame,
    FrameOperator,
    analysis_coefficients,
    apply_unitary,
    canonical_dual,
    cross_gramian,
    dual_family,
    frame_operator,
    is_dual,
    is_tight,
    make_frame,
)
from .errors import (
    DomainError,
    EmptySubspace,
    FrameError,
    FrameFileError,
    NotADual,
    NotAFrame,
    NotAFusionFrame,
    NotUnitary,
    ShapeError,
    ShapeMismatch,
    SingularOperator,
    SolverFailure,
)
from .fusion import (
    FusionFrame,
    SelfDualReport,
    Subspace,
    apply_unitary_fusion,
    canonical_dual_fusion,
    cross_fusion_potential,
    fusion_potential,
    intersection_dim,
    is_orthonormal_fusion_basis,
    is_semi_orthogonal,
    is_tight_fusion,
    make_fusion_frame,
    orthogonal_complement,
    orthonormalize,
    structured_self_dual_check,
    subspace,
    subspaces_equal,
    subspaces_orthogonal,
)
from .grassmannian import (
    HarnessSummary,
    MinMaxProblem,
    SearchResult,
    SolverConfig,
    conjecture_harness,
    exclusivity_probe,
    grassmannian_gap,
    minimize_mu,
    minmax_problem,
)
from .io import (
    BasisAdjustedWarning,
    frame_from_payload,
    frame_to_payload,
    fusion_from_payload,
    fusion_to_payload,
    load_frame,
    load_fusion_frame,
    save_frame,
    save_fusion_frame,
)
from .potentials import (
    PotentialReport,
    co_equipartition_profile,
    constant_diagonal,
    cross_frame_potential,
    cross_potential_bound,
    exp_entry,
    frame_potential,
    frame_potential_bound,
    gramian_diagonal_sum,
    is_co_equidistributed,
    is_co_equipartitioned,
    log_phi_offdiagonal,
    max_offdiagonal,
    mu_limit_estimate,
    phi_offdiagonal,
    phi_sum,
    pth_bound,
    pth_cross_potential,
    pth_cross_report,
    welch_constant,
)
from .suite import CheckResult, load_reference_frame, load_reference_fusion, run_suite

__version__ = "0.1.0"

__all__ = [
    "COMPLEX", "DUAL_TOL", "RANK_RTOL", "REAL", "TIGHT_TOL",
    "CrossGramian", "DualFamily", "Frame", "FrameOperator",
    "analysis_coefficients", "apply_unitary", "canonical_dual",
    "cross_gramian", "dual_family", "frame_operator", "is_dual", "is_tight",
    "make_frame",
    "DomainError", "EmptySubspace", "FrameError", "FrameFileError",
    "NotADual", "NotAFrame", "NotAFusionFrame", "NotUnitary", "ShapeError",
    "ShapeMismatch", "SingularOperator", "SolverFailure",
    "FusionFrame", "SelfDualReport", "Subspace", "apply_unitary_fusion",
    "canonical_dual_fusion", "cross_fusion_potential", "fusion_potential",
    "intersection_dim", "is_orthonormal_fusion_basis", "is_semi_orthogonal",
    "is_tight_fusion", "make_fusion_frame", "orthogonal_complement",
    "orthonormalize", "structured_self_dual_check", "subspace",
    "subspaces_equal", "subspaces_orthogonal",
    "HarnessSummary", "MinMaxProblem", "SearchResult", "SolverConfig",
    "conjecture_harness", "exclusivity_probe", "grassmannian_gap",
    "minimize_mu", "minmax_problem",
    "BasisAdjustedWarning", "frame_from_payload", "frame_to_payload",
    "fusion_from_payload", "fusion_to_payload", "load_frame",
    "load_fusion_frame", "save_frame", "save_fusion_frame",
    "PotentialReport", "co_equipartition_profile", "constant_diagonal",
    "cross_frame_potential", "cross_potential_bound", "exp_entry",
    "frame_potential", "frame_potential_bound", "gramian_diagonal_sum",
    "is_co_equidistributed", "is_co_equipartitioned", "log_phi_offdiagonal",
    "max_offdiagonal", "mu_limit_estimate", "phi_offdiagonal", "phi_sum",
    "pth_bound", "pth_cross_potential", "pth_cross_report", "welch_constant",
    "CheckResult", "load_reference_frame", "load_reference_fusion",
    "run_suite",
    "__version__",
]
