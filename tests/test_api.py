import types

import roughbound

# The public namespace: what the CLI, perfbench/ and the studies call, plus the
# objects a problem is built and solved from (README, "Library API").  Test
# oracles live in tests/conftest.py, not here.
PUBLIC_API = {
    # scale, boundary data and the two lift maps
    "BOUNDARY", "BoundarySpace", "BoundaryVector", "DIRICHLET", "NEUMANN",
    "Scale", "ScaleConfig", "SpectralVector", "build_scale", "dirichlet_map",
    "neumann_map", "SmoothingReport", "smoothing_bound", "smoothing_constants",
    # controlled paths and the smooth maps
    "ControlledPath", "ConstantBoundary", "LinearTrace", "SmoothMap",
    "SquashedTrace", "constant_path", "default_trace_weights",
    "diffusion_rows", "lift_extrapolate",
    # drivers
    "RoughDriver", "lift_explicit", "lift_geometric", "sample_fbm", "shift",
    # convolutions
    "level_sum", "rough_convolve", "young_convolve", "drift_convolve",
    # problem, drifts and solvers
    "DriftMap", "LinearDrift", "SmoothBoundedDrift", "PicardParams",
    "ProblemSpec", "GlobalSolveResult", "LocalSolveResult", "solve_global",
    "solve_local", "solve_young_dirichlet",
    # metrics and certificates
    "crp_distance", "crp_norm", "rho", "rough_metric", "stability_distance",
    "cocycle_defect", "RemainderReport", "remainder_certificate",
    "SewingReport", "sewing_convergence",
    # errors
    "RoughboundError", "AprioriBoundViolation", "ChenViolation", "ConfigError",
    "ContractionFailure", "CovarianceNotPD", "DirichletRegularityError",
    "GridMismatch", "IoError", "RegularityError", "ScaleIndexError",
    "SingularLift",
}


def test_public_names_are_the_recorded_api():
    names = {name for name, value in vars(roughbound).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC_API
