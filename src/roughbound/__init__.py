"""Desk-scale pathwise solver for parabolic equations with rough boundary noise.

Spectral Banach scales with extrapolation, Neumann/Dirichlet lifting,
sewing-lemma rough convolutions, a Picard fixed-point solver, and the
verification harnesses (stability, cocycle, rates) behind the CLI.
"""

from .controlled_path import (ControlledPath, ConstantBoundary, LinearTrace,
                              SmoothMap, SquashedTrace, constant_path,
                              crp_distance, crp_norm, default_trace_weights,
                              diffusion_rows, lift_extrapolate)
from .errors import (AprioriBoundViolation, ChenViolation, ConfigError,
                     ContractionFailure, CovarianceNotPD,
                     DirichletRegularityError, GridMismatch, IoError,
                     RegularityError, RoughboundError, ScaleIndexError,
                     SingularLift)
from .rough_convolution import (RemainderReport, SewingReport, level_sum,
                                remainder_certificate, rough_convolve,
                                sewing_convergence, young_convolve)
from .rough_driver import (RoughDriver, lift_explicit, lift_geometric, rho,
                           rough_metric, sample_fbm, shift)
from .solver import (DriftMap, GlobalSolveResult, LinearDrift,
                     LocalSolveResult, PicardParams, ProblemSpec,
                     SmoothBoundedDrift, cocycle_defect, drift_convolve,
                     solve_global, solve_local, solve_young_dirichlet,
                     stability_distance)
from .spectral_scale import (BOUNDARY, DIRICHLET, NEUMANN, BoundarySpace,
                             BoundaryVector, Scale, ScaleConfig,
                             SmoothingReport, SpectralVector, build_scale,
                             dirichlet_map, neumann_map, smoothing_bound,
                             smoothing_constants)

__version__ = "0.1.0"
