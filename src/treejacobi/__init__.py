"""Jacobi operators on homogeneous trees.

Selfadjointness classification via square-summability of the recurrence
solutions, deficiency-space bases and projections on the rooted tree, the
boundary Poisson kernel, and the pure-point spectrum of the one-ended tree
operator — all cross-checked against dense finite-section oracles."""

from .coefficients import CoefficientSequence, TreeConfig
from .deficiency import (BasisFunction, ClassificationReport,
                         DeficiencyElement, classify,
                         classify_by_series,
                         deficiency_residual, element_max_abs,
                         element_residual, f_value, project_full,
                         project_onto_Ax)
from .boundary import (CylinderSet, PoissonKernelRepr, StepFunction,
                       apply_U, bx_element, inner_boundary, integrate,
                       kernel_by_class, paired_step, plain_integral,
                       poisson_kernel, relative_position, reproducing_check,
                       u_isometry_basis)
from .errors import (AmbiguousPrefix, CoefficientIndexError,
                     CoefficientOverflow, ConvergenceFailure, DivergedSeries,
                     ExactModeUnavailable, InconclusiveSeries, KindMismatch,
                     NonPositiveLambda, NotInSubtree, PatchTooLarge,
                     RealSpectralParameter, RecurrenceOverflow,
                     TreeJacobiError)
from .exactnum import (ExactComplex, exact_complex, exact_sqrt, half_power,
                       squarefree_split)
from .lambda_tree import (DimensionAudit, EigenPair, EsaCertificate,
                          SpectrumApproximation, build_eigenpairs,
                          dimension_audit, eigen_residual, esa_certificate,
                          radial_propagate, spectrum_enumerate)
from .operator import (JacobiOperator, MembershipReport, hx_membership,
                       moments, radial_average_E, subtree_average_Ex)
from .oracle import (DenseTruncation, build_gamma_patch,
                     build_lambda_patch_matrix, build_radial_block,
                     dense_eigensolve, series_oracle)
from .orthopoly import (AlphaTable, DeficiencyContext, PolyCache, SeriesResult,
                        alpha_series, alpha_sq_partial, alpha_sq_terms,
                        compute_polys, poly_pairs, poly_roots, sum_series,
                        wronskian_residual, wronskian_scale)
from .treecore import (APEX_SUCCESSOR, DEFAULT_ENTRY_BUDGET, GAMMA,
                       LambdaPatch, SparseFunction, children, format_address,
                       inner, level, level_indicator, level_vertices, parent,
                       parse_address, subtree_vertices)

__version__ = "0.1.0"
