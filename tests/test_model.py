"""Tests for the velocity law, flux divergence, and mollified initial data."""

import math

import numpy as np
import pytest

from fpmflow.model import (
    InitialCondition,
    ModelParams,
    flux_divergence,
    mollify_initial,
    nonlinear_rhs,
    velocity,
    velocity_symbol,
)
from fpmflow.spectral import (
    RealField,
    SpectralField,
    TorusGrid,
    dealias_mask,
    field_from_function,
    forward_transform,
    inverse_transform,
    random_real_field,
)


def naive_flux_divergence(rho_hat, u_hats, grid):
    """O(N^2) oracle: exact no-wrap convolution of dealiased factors,
    truncated to the dealias band, times i xi."""
    mask = dealias_mask(grid)
    k = grid.axis_wavenumbers()
    assert grid.d == 1
    rc = np.where(mask, rho_hat.coeffs, 0.0)
    out = np.zeros(grid.n, dtype=complex)
    idx = {int(k[i]): i for i in range(grid.n)}
    for uh in u_hats:
        uc = np.where(mask, uh, 0.0)
        for i_xi in range(grid.n):
            if not mask[i_xi]:
                continue
            s = 0.0
            for i_eta in range(grid.n):
                diff = int(k[i_xi]) - int(k[i_eta])
                if diff in idx:
                    s += uc[i_eta] * rc[idx[diff]]
            out[i_xi] += 1j * k[i_xi] * s
    out[0] = 0.0
    return out


class TestModelParams:
    def test_b_relation(self):
        p = ModelParams(alpha_minus_d=-1.0, c_K=-1.0)
        assert p.b == 0.5
        assert ModelParams(alpha_minus_d=0.0, c_K=1.0).b == 0.0
        assert ModelParams(alpha_minus_d=-2.0, c_K=1.0).b == 1.0

    @pytest.mark.parametrize("bad", [{"alpha_minus_d": -2.5}, {"alpha_minus_d": 0.5},
                                     {"nu": -1.0}, {"mu": -0.1}])
    def test_invalid_params(self, bad):
        kwargs = {"alpha_minus_d": -1.0, "c_K": 1.0}
        kwargs.update(bad)
        with pytest.raises(ValueError):
            ModelParams(**kwargs)


class TestVelocity:
    def test_single_mode(self):
        g = TorusGrid(d=1, n=32)
        p = ModelParams(alpha_minus_d=-1.0, c_K=-1.0)
        rho = field_from_function(g, lambda x: 1 + 0.1 * np.cos(x))
        u = velocity(forward_transform(rho), p)
        ref = 0.1 * np.sin(g.points()[0])
        assert np.max(np.abs(u[0].values - ref)) < 1e-14

    def test_constant_gives_zero(self):
        g = TorusGrid(d=1, n=16)
        p = ModelParams(alpha_minus_d=-1.0, c_K=3.0)
        u = velocity(forward_transform(RealField(g, np.full(16, 2.0))), p)
        assert np.max(np.abs(u[0].values)) < 1e-15

    def test_mode_two_symbol_arithmetic(self):
        # rho = 1 + 0.1 cos 2x, c_K = 1, alpha-d = -2: u = -0.05 sin 2x
        g = TorusGrid(d=1, n=32)
        p = ModelParams(alpha_minus_d=-2.0, c_K=1.0)
        rho = field_from_function(g, lambda x: 1 + 0.1 * np.cos(2 * x))
        u = velocity(forward_transform(rho), p)
        ref = -0.05 * np.sin(2 * g.points()[0])
        assert np.max(np.abs(u[0].values - ref)) < 1e-14

    def test_linearity_and_homogeneity(self):
        rng = np.random.default_rng(4)
        g = TorusGrid(d=1, n=32)
        F = forward_transform(random_real_field(g, rng))
        p1 = ModelParams(alpha_minus_d=-1.0, c_K=-2.0)
        p2 = ModelParams(alpha_minus_d=-1.0, c_K=-1.0)
        u1 = velocity(F, p1)[0].values
        u2 = velocity(F, p2)[0].values
        assert np.max(np.abs(u1 - 2.0 * u2)) < 1e-13
        G = SpectralField(g, 3.0 * F.coeffs)
        assert np.max(np.abs(velocity(G, p2)[0].values - 3.0 * u2)) < 1e-12

    def test_local_endpoint(self):
        # b = 0: u = c_K grad rho exactly
        rng = np.random.default_rng(6)
        g = TorusGrid(d=1, n=64)
        f = random_real_field(g, rng, decay=3.0, mean=2.0)
        p = ModelParams(alpha_minus_d=0.0, c_K=-1.5)
        F = forward_transform(f)
        u = velocity(F, p)[0].values
        from fpmflow.spectral import gradient

        grad = inverse_transform(gradient(F)[0]).values
        assert np.max(np.abs(u - p.c_K * grad)) < 1e-12

    def test_regularized_converges_monotonically(self):
        g = TorusGrid(d=1, n=64)
        rho = field_from_function(g, lambda x: 1 + 0.4 * np.cos(x) + 0.2 * np.cos(3 * x))
        F = forward_transform(rho)
        base = velocity(F, ModelParams(alpha_minus_d=-1.0, c_K=-1.0))[0].values
        errs = []
        for mu in (1.0, 0.5, 0.25, 0.125):
            p = ModelParams(alpha_minus_d=-1.0, c_K=-1.0, mu=mu)
            errs.append(np.max(np.abs(velocity(F, p)[0].values - base)))
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_2d_components(self):
        g = TorusGrid(d=2, n=16)
        p = ModelParams(alpha_minus_d=-1.0, c_K=-1.0)
        x, y = g.points()
        rho = RealField(g, 1 + 0.1 * np.cos(x))
        u = velocity(forward_transform(rho), p)
        assert len(u) == 2
        assert np.max(np.abs(u[0].values - 0.1 * np.sin(x))) < 1e-13
        assert np.max(np.abs(u[1].values)) < 1e-13


class TestFluxDivergence:
    def test_constant_rho_constant_u(self):
        g = TorusGrid(d=1, n=16)
        rho = RealField(g, np.full(16, 3.0))
        u = [RealField(g, np.full(16, 1.5))]
        out = flux_divergence(rho, u)
        assert np.max(np.abs(out.coeffs)) < 1e-14

    def test_trig_identity(self):
        # rho = cos x, u = sin x: div(rho u) = cos 2x
        g = TorusGrid(d=1, n=32)
        rho = field_from_function(g, np.cos)
        u = [field_from_function(g, np.sin)]
        out = inverse_transform(flux_divergence(rho, u))
        assert np.max(np.abs(out.values - np.cos(2 * g.points()[0]))) < 1e-13

    def test_zero_mode_always_zero(self):
        rng = np.random.default_rng(8)
        g = TorusGrid(d=1, n=32)
        rho = random_real_field(g, rng, mean=1.0)
        u = [random_real_field(g, rng)]
        assert flux_divergence(rho, u).coeffs[0] == 0.0

    @pytest.mark.parametrize("n", [16, 32])
    def test_matches_naive_convolution(self, n):
        rng = np.random.default_rng(10)
        g = TorusGrid(d=1, n=n)
        rho = random_real_field(g, rng, mean=1.0)
        uf = random_real_field(g, rng)
        out = flux_divergence(rho, [uf]).coeffs
        ref = naive_flux_divergence(
            forward_transform(rho), [forward_transform(uf).coeffs], g
        )
        scale = max(np.max(np.abs(ref)), 1e-30)
        assert np.max(np.abs(out - ref)) < 1e-10 * scale


class TestNonlinearRhs:
    def test_constant_rho(self):
        g = TorusGrid(d=1, n=16)
        p = ModelParams(alpha_minus_d=-1.0, c_K=-1.0)
        out = nonlinear_rhs(forward_transform(RealField(g, np.full(16, 2.0))), p)
        assert np.max(np.abs(out.coeffs)) < 1e-14

    def test_zero_interaction(self):
        rng = np.random.default_rng(12)
        g = TorusGrid(d=1, n=32)
        p = ModelParams(alpha_minus_d=-1.0, c_K=0.0)
        out = nonlinear_rhs(forward_transform(random_real_field(g, rng, mean=1.0)), p)
        assert np.max(np.abs(out.coeffs)) < 1e-14

    def test_single_mode_vs_oracle(self):
        g = TorusGrid(d=1, n=16)
        p = ModelParams(alpha_minus_d=-1.0, c_K=-1.0)
        rho = field_from_function(g, lambda x: 1 + 0.01 * np.cos(x))
        F = forward_transform(rho)
        out = nonlinear_rhs(F, p).coeffs
        u_hats = [forward_transform(c).coeffs for c in velocity(F, p)]
        ref = -naive_flux_divergence(F, u_hats, g)
        assert np.max(np.abs(out - ref)) < 1e-12

    def test_nan_rejected(self):
        g = TorusGrid(d=1, n=16)
        p = ModelParams(alpha_minus_d=-1.0, c_K=-1.0)
        c = np.zeros(16, dtype=complex)
        c[0] = np.nan
        with pytest.raises(Exception):
            nonlinear_rhs(SpectralField(g, c), p)


def complex_fft_rhs(F, p):
    """-(div(rho u))^ through full complex FFTs, step by step as the public
    transforms compose: velocity, both factors dealiased, product, output band."""
    g = F.grid
    n = g.npoints
    kv = g.wavevectors()
    mask = dealias_mask(g)

    def dealiased(values):
        return (np.fft.ifftn(np.where(mask, np.fft.fftn(values) / n, 0.0)) * n).real

    rho_d = dealiased((np.fft.ifftn(F.coeffs) * n).real)
    scaled = p.c_K * velocity_symbol(kv, p) * F.coeffs
    out = np.zeros(g.shape, dtype=complex)
    for j in range(g.d):
        kj = kv[..., j]
        grad = 1j * kj * scaled
        grad[kj == -g.n // 2] = 0.0
        u_d = dealiased((np.fft.ifftn(grad) * n).real)
        out += 1j * kj * np.fft.fftn(rho_d * u_d) / n
    out = np.where(mask, out, 0.0)
    out.flat[0] = 0.0
    return -out


def is_hermitian(coeffs):
    idx = np.ix_(*[(-np.arange(m)) % m for m in coeffs.shape])
    return np.array_equal(coeffs[idx], np.conj(coeffs))


class TestSpectralOperator:
    @pytest.mark.parametrize("mu", [0.0, 0.25])
    def test_2d_rhs_matches_complex_fft_formula(self, mu):
        rng = np.random.default_rng(15)
        g = TorusGrid(d=2, n=32)
        p = ModelParams(alpha_minus_d=-1.0, c_K=-1.0, mu=mu)
        F = forward_transform(random_real_field(g, rng, mean=1.0))
        out = nonlinear_rhs(F, p).coeffs
        ref = complex_fft_rhs(F, p)
        assert np.max(np.abs(out - ref)) < 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("d", [1, 2])
    def test_rhs_is_bitwise_hermitian(self, d):
        rng = np.random.default_rng(16)
        g = TorusGrid(d=d, n=32)
        p = ModelParams(alpha_minus_d=-0.5, c_K=1.0, mu=0.1)
        F = forward_transform(random_real_field(g, rng, mean=1.0))
        assert is_hermitian(nonlinear_rhs(F, p).coeffs)


class TestMollify:
    def test_identity_at_zero(self):
        rng = np.random.default_rng(13)
        g = TorusGrid(d=1, n=32)
        f = random_real_field(g, rng)
        out = mollify_initial(f, 0.0)
        assert np.array_equal(out.values, f.values)

    def test_mass_preserved(self):
        rng = np.random.default_rng(14)
        g = TorusGrid(d=1, n=32)
        f = random_real_field(g, rng, mean=2.0)
        out = mollify_initial(f, 0.7)
        assert np.mean(out.values) == pytest.approx(np.mean(f.values), rel=1e-14)

    def test_cosine_damping(self):
        g = TorusGrid(d=1, n=32)
        f = field_from_function(g, np.cos)
        out = mollify_initial(f, 1.0)
        ref = math.exp(-0.5) * np.cos(g.points()[0])
        assert np.max(np.abs(out.values - ref)) < 1e-14


class TestInitialConditions:
    def test_cosine_nonnegative(self):
        g = TorusGrid(d=1, n=32)
        ic = InitialCondition(kind="cosine", mean=1.0, amplitude=0.5, k=(1,))
        f = ic.build(g)
        assert np.min(f.values) >= 0.0

    def test_cosine_invalid(self):
        g = TorusGrid(d=1, n=32)
        with pytest.raises(ValueError):
            InitialCondition(kind="cosine", mean=0.2, amplitude=0.5).build(g)

    def test_gaussian_mass_and_positivity(self):
        from fpmflow.diagnostics import mass

        g = TorusGrid(d=1, n=64)
        ic = InitialCondition(kind="gaussian", mass=3.0, sigma=0.5, center=(math.pi,))
        f = ic.build(g)
        assert mass(forward_transform(f)) == pytest.approx(3.0, rel=1e-12)
        assert np.min(f.values) > -1e-12

    def test_random_deterministic(self):
        g = TorusGrid(d=1, n=32)
        ic = InitialCondition(kind="random", seed=5, decay=2.5)
        a = ic.build(g).values
        b = ic.build(g).values
        assert np.array_equal(a, b)

    def test_unknown_kind(self):
        g = TorusGrid(d=1, n=32)
        with pytest.raises(ValueError):
            InitialCondition(kind="square").build(g)
