import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughbound import (ConfigError, DirichletRegularityError, ScaleConfig,
                        SingularLift, build_scale)
from roughbound.cli import run

from conftest import (apply_generator, evaluate, fractional_power, lift_oracle,
                      lift_test_scale)


def test_neumann_eigenvalues_closed_form():
    sc = build_scale(ScaleConfig(a=1.0, b=-1.0, K=3, gamma=0.40))
    assert np.allclose(sc.mu, [1.0, 1.0 + np.pi ** 2, 1.0 + 4 * np.pi ** 2])
    assert np.all(np.diff(sc.mu) > 0)


def test_dirichlet_eigenvalues_start_at_k1():
    sc = build_scale(ScaleConfig(a=2.0, b=-3.0, K=4, bc="dirichlet", gamma=0.8,
                                 delta=0.01))
    k = np.arange(1, 5)
    assert np.allclose(sc.mu, 3.0 + 2.0 * (k * np.pi) ** 2)


def test_derived_exponents():
    sc = build_scale(ScaleConfig(delta=0.05, gamma=0.40))
    assert sc.eps == pytest.approx(0.70)
    assert sc.eta == pytest.approx(0.30)
    assert sc.sigma == pytest.approx(0.70)


@pytest.mark.parametrize("bc, gamma, delta, eps", [
    ("neumann", 0.40, 0.05, 0.5 + 0.5 / 2 - 0.05),
    ("neumann", 0.45, 0.03, 0.5 + 0.5 / 2 - 0.03),
    ("dirichlet", 0.77, 0.005, 0.5 / 2 - 0.005),
    ("dirichlet", 0.95, 0.02, 0.5 / 2 - 0.02),
])
def test_derived_exponents_are_the_p2_formulas_exactly(bc, gamma, delta, eps):
    # eps = 1/2 + 1/(2p) - delta (Neumann), 1/(2p) - delta (Dirichlet) at p = 2
    sc = build_scale(ScaleConfig(bc=bc, gamma=gamma, delta=delta))
    assert sc.eps == eps
    assert sc.eta == 1.0 - eps
    assert sc.sigma == (1.0 - eps) + gamma


@pytest.mark.parametrize("kwargs", [
    dict(a=-1.0), dict(a=0.0), dict(b=0.0), dict(b=1.0), dict(K=0),
    dict(delta=float("inf")), dict(delta=-0.1),
    dict(gamma=0.30),          # below the rough range
    dict(gamma=0.55),          # above the rough range
    dict(gamma=0.40, delta=0.20),   # eps <= 1 - gamma
    dict(a=float("nan")), dict(a=float("inf")), dict(b=float("nan")),
    dict(b=-float("inf")), dict(delta=float("nan")),
    dict(bc="robin"),
    dict(K=2.5), dict(K=16.0), dict(K=True),    # K counts modes: an integer
])
def test_config_rejection(kwargs):
    with pytest.raises(ConfigError):
        build_scale(ScaleConfig(**kwargs))


@pytest.mark.parametrize("a, b", [(1e300, -1e-300), (1e-10, -1e308)])
def test_a_singular_lift_is_refused_when_the_scale_is_built(tmp_path, a, b):
    # kappa = sqrt(-b/a) underflows to 0, or overflows to inf
    with pytest.raises(SingularLift):
        build_scale(ScaleConfig(a=a, b=b))
    cfg = tmp_path / "singular.cfg"
    cfg.write_text(f"a = {a}\nb = {b}\nn = 64\n")
    assert run(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 7


@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
@pytest.mark.parametrize("K", [8, 16, 32])
def test_lift_is_the_closed_form_formula_bitwise(bc, K):
    sc = lift_test_scale(bc, K)
    assert sc.lift.shape == (K, 2) and not sc.lift.flags.writeable
    assert np.array_equal(sc.lift, lift_oracle(sc))


@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
@pytest.mark.parametrize("K", [8, 16, 32])
def test_generator_lift_is_minus_mu_times_the_lift(bc, K):
    # A_{-sigma} N multiplies N's coefficients by -mu_k; the closed form
    # skips the mu / mu round trip, so they agree to within 2 ulp
    sc = lift_test_scale(bc, K)
    assert sc.generator_lift.shape == (2, K)
    assert not sc.generator_lift.flags.writeable
    ref = -(sc.mu[:, None] * sc.lift).T
    assert np.all(np.abs(sc.generator_lift - ref) <= 2 * np.spacing(np.abs(ref)))


def test_dirichlet_young_range_rejection():
    with pytest.raises(ConfigError) as err:
        build_scale(ScaleConfig(bc="dirichlet", gamma=0.60, delta=0.005))
    assert isinstance(err.value, DirichletRegularityError)
    with pytest.raises(ConfigError):
        # delta too large: eps_D <= 1 - gamma
        build_scale(ScaleConfig(bc="dirichlet", gamma=0.76, delta=0.02))


def test_norm_unit_eigenvectors(neumann_scale):
    e0 = neumann_scale.vector(np.eye(16)[0], 0.0)
    for alpha in (-1.5, 0.0, 0.7, 2.0):
        assert e0.norm(alpha) == pytest.approx(1.0)
    e1 = neumann_scale.vector(np.eye(16)[1], 0.0)
    assert e1.norm(0.5) == pytest.approx(np.sqrt(1 + np.pi ** 2))


def test_norm_ignores_bookkeeping_index(neumann_scale):
    rng = np.random.default_rng(0)
    c = rng.standard_normal(16)
    va = neumann_scale.vector(c, -1.0)
    vb = neumann_scale.vector(c, 1.3)
    assert va.norm(0.4) == vb.norm(0.4)


def test_norm_divergence_onset_at_three_quarters():
    # Neumann-lift tail c_k ~ mu_k^{-1}: the K -> 4K norm ratio stays near 1
    # below index 3/4 and keeps growing at and above it.
    def ratio(alpha):
        out = []
        for K in (64, 256):
            sc = build_scale(ScaleConfig(K=K, gamma=0.40))
            c = np.where(sc.wavenumbers == 0, 1.0, np.sqrt(2.0) / sc.mu)
            out.append(sc.norm(c, alpha))
        return out[1] / out[0]

    assert ratio(0.70) < 1.05
    assert ratio(0.75) > ratio(0.70)
    assert ratio(0.75) > 1.10
    assert ratio(0.80) > 1.15


def test_fractional_power_identity_and_eigenvector(neumann_scale):
    v = neumann_scale.vector(np.arange(1.0, 17.0), 0.5)
    same = fractional_power(v, 0.0)
    assert np.array_equal(same.coeffs, v.coeffs) and same.alpha == v.alpha
    e1 = neumann_scale.vector(np.eye(16)[1], 0.0)
    w = fractional_power(e1, 1.0)
    assert w.coeffs[1] == pytest.approx(neumann_scale.mu[1])
    assert w.alpha == pytest.approx(-1.0)


def test_generator_sign_flag(neumann_scale):
    # theta = 1 with the sign flag applied reproduces A, spectrum -mu_k.
    e1 = neumann_scale.vector(np.eye(16)[1], 0.0)
    av = apply_generator(e1)
    assert av.coeffs[1] == pytest.approx(-neumann_scale.mu[1])
    assert av.alpha == pytest.approx(-1.0)


def test_fractional_power_inverse(neumann_scale):
    rng = np.random.default_rng(3)
    v = neumann_scale.vector(rng.standard_normal(16), 0.2)
    w = fractional_power(fractional_power(v, 0.3), -0.3)
    assert np.max(np.abs(w.coeffs - v.coeffs)) <= 1e-12 * np.max(np.abs(v.coeffs))


def test_realization_consistency(neumann_scale):
    # The coefficient action of a power is the same from any nominal index:
    # all extrapolated realizations share the spectral multiplier.
    rng = np.random.default_rng(9)
    c = rng.standard_normal(16)
    outputs = [fractional_power(neumann_scale.vector(c, a0), 0.7).coeffs
               for a0 in (-0.3, 0.0, 1.0)]
    assert np.array_equal(outputs[0], outputs[1])
    assert np.array_equal(outputs[0], outputs[2])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 31 - 1),
       st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2)))
def test_interpolation_inequality_constant_one(seed, alphas):
    sc = build_scale(ScaleConfig(K=24, gamma=0.40))
    v = np.random.default_rng(seed).standard_normal(24)
    a1, a2, a3 = sorted(alphas)
    lhs = sc.norm(v, a2) ** (a3 - a1)
    rhs = sc.norm(v, a1) ** (a3 - a2) * sc.norm(v, a3) ** (a2 - a1)
    assert lhs <= rhs * (1 + 1e-12)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.floats(-2, 2), st.floats(0, 2))
def test_norm_monotone_in_alpha(seed, alpha, gap):
    # all mu_k >= 1 for b <= -1, so weights grow with the index
    sc = build_scale(ScaleConfig(b=-1.0, K=24, gamma=0.40))
    v = np.random.default_rng(seed).standard_normal(24)
    assert sc.norm(v, alpha) <= sc.norm(v, alpha + gap) * (1 + 1e-12)


def test_vector_algebra_guard(neumann_scale):
    other = build_scale(ScaleConfig(K=16, gamma=0.45))
    v = neumann_scale.vector(np.ones(16), 0.0)
    w = other.vector(np.ones(16), 0.0)
    with pytest.raises(ConfigError):
        _ = v - w


def test_vector_evaluate_matches_basis(neumann_scale):
    v = neumann_scale.vector(np.eye(16)[2], 0.0)
    x = np.array([0.0, 0.25, 1.0])
    assert np.allclose(evaluate(v, x), np.sqrt(2) * np.cos(2 * np.pi * x))
