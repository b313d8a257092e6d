"""Tests for the velocity law, the transport operator, and mollified initial data."""

import math

import numpy as np
import pytest

from fpmflow.model import (
    InitialCondition,
    ModelParams,
    SpectralOperator,
    mollify_initial,
    nonlinear_rhs,
    velocity,
    velocity_symbol,
)
from fpmflow.spectral import (
    RealField,
    TorusGrid,
    half_coefficients,
    random_real_field,
)
from fpmflow.stepper import StepperConfig, integrate, step
from oracles import (SpectralField, apply_multiplier, dealias_mask, field_from_function,
                     forward_transform, full_field, half, heat_multiplier, inverse_transform,
                     mass, wavenumber_magnitude)


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
        op = SpectralOperator(g, p)
        u = velocity(half_coefficients(rho), op)
        ref = 0.1 * np.sin(g.points()[0])
        assert np.max(np.abs(u[0] - ref)) < 1e-14

    def test_constant_gives_zero(self):
        g = TorusGrid(d=1, n=16)
        p = ModelParams(alpha_minus_d=-1.0, c_K=3.0)
        op = SpectralOperator(g, p)
        u = velocity(half_coefficients(RealField(g, np.full(16, 2.0))), op)
        assert np.max(np.abs(u[0])) < 1e-15

    def test_mode_two_symbol_arithmetic(self):
        # rho = 1 + 0.1 cos 2x, c_K = 1, alpha-d = -2: u = -0.05 sin 2x
        g = TorusGrid(d=1, n=32)
        p = ModelParams(alpha_minus_d=-2.0, c_K=1.0)
        rho = field_from_function(g, lambda x: 1 + 0.1 * np.cos(2 * x))
        op = SpectralOperator(g, p)
        u = velocity(half_coefficients(rho), op)
        ref = -0.05 * np.sin(2 * g.points()[0])
        assert np.max(np.abs(u[0] - ref)) < 1e-14

    def test_linearity_and_homogeneity(self):
        rng = np.random.default_rng(4)
        g = TorusGrid(d=1, n=32)
        p1 = ModelParams(alpha_minus_d=-1.0, c_K=-2.0)
        p2 = ModelParams(alpha_minus_d=-1.0, c_K=-1.0)
        op1, op2 = SpectralOperator(g, p1), SpectralOperator(g, p2)
        h = half_coefficients(random_real_field(g, rng))
        u1 = velocity(h, op1)[0]
        u2 = velocity(h, op2)[0]
        assert np.max(np.abs(u1 - 2.0 * u2)) < 1e-13
        assert np.max(np.abs(velocity(3.0 * h, op2)[0] - 3.0 * u2)) < 1e-12

    def test_local_endpoint(self):
        # b = 0: u = c_K grad rho exactly
        rng = np.random.default_rng(6)
        g = TorusGrid(d=1, n=64)
        f = random_real_field(g, rng, decay=3.0, mean=2.0)
        p = ModelParams(alpha_minus_d=0.0, c_K=-1.5)
        F = forward_transform(f)
        op = SpectralOperator(g, p)
        u = velocity(half(g, F.coeffs), op)[0]
        k = g.axis_wavenumbers()
        deriv = np.where(k == -g.n // 2, 0.0, 1j * k * F.coeffs)
        grad = inverse_transform(SpectralField(g, deriv)).values
        assert np.max(np.abs(u - p.c_K * grad)) < 1e-12

    def test_regularized_converges_monotonically(self):
        g = TorusGrid(d=1, n=64)
        rho = field_from_function(g, lambda x: 1 + 0.4 * np.cos(x) + 0.2 * np.cos(3 * x))
        op = SpectralOperator(g, ModelParams(alpha_minus_d=-1.0, c_K=-1.0))
        h = half_coefficients(rho)
        base = velocity(h, op)[0]
        errs = []
        for mu in (1.0, 0.5, 0.25, 0.125):
            p = ModelParams(alpha_minus_d=-1.0, c_K=-1.0, mu=mu)
            errs.append(np.max(np.abs(velocity(h, SpectralOperator(g, p))[0] - base)))
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_2d_components(self):
        g = TorusGrid(d=2, n=16)
        p = ModelParams(alpha_minus_d=-1.0, c_K=-1.0)
        x, y = g.points()
        rho = RealField(g, 1 + 0.1 * np.cos(x))
        op = SpectralOperator(g, p)
        u = velocity(half_coefficients(rho), op)
        assert len(u) == 2
        assert np.max(np.abs(u[0] - 0.1 * np.sin(x))) < 1e-13
        assert np.max(np.abs(u[1])) < 1e-13


def flux_divergence(rho, u):
    """Coefficients of div(rho u) from SpectralOperator.transport (dealiased factors)."""
    op = SpectralOperator(rho.grid, ModelParams(alpha_minus_d=-1.0, c_K=0.0))

    def dealias(values):
        return op.physical(op.mask * np.fft.rfftn(values, norm="forward"))

    return full_field(rho.grid,
                      -op.transport(dealias(rho.values), [dealias(c.values) for c in u]))


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

    @pytest.mark.parametrize("d", [1, 2])
    def test_batch_is_each_field_bit_for_bit(self, d):
        # a (3, ...) stack: each field gets its own zeroed mean and, in 2-D, its own
        # mirrored column 0
        rng = np.random.default_rng(11)
        g = TorusGrid(d=d, n=32)
        op = SpectralOperator(g, ModelParams(alpha_minus_d=-1.0, c_K=-1.0, mu=0.25))
        h = np.stack([op.mask * half_coefficients(random_real_field(g, rng, mean=1.0))
                      for _ in range(3)])
        rho_d = op.physical(h)
        u_d = [op.physical(m * h) for m in op.vel]
        batch = op.transport(rho_d, u_d)
        for i in range(3):
            assert np.array_equal(batch[i], op.transport(rho_d[i], [u[i] for u in u_d]))
        assert np.all(batch[(...,) + (0,) * d] == 0.0)
        if d == 2:
            assert np.array_equal(batch[:, 17:, 0], np.conj(batch[:, 15:0:-1, 0]))
            assert np.any(batch[:, 1:16, 0] != 0.0)


class TestNonlinearRhs:
    def test_constant_rho(self):
        g = TorusGrid(d=1, n=16)
        p = ModelParams(alpha_minus_d=-1.0, c_K=-1.0)
        op = SpectralOperator(g, p)
        out = nonlinear_rhs(half_coefficients(RealField(g, np.full(16, 2.0))), op)
        assert np.max(np.abs(out)) < 1e-14

    def test_zero_interaction(self):
        rng = np.random.default_rng(12)
        g = TorusGrid(d=1, n=32)
        p = ModelParams(alpha_minus_d=-1.0, c_K=0.0)
        op = SpectralOperator(g, p)
        out = nonlinear_rhs(half_coefficients(random_real_field(g, rng, mean=1.0)), op)
        assert np.max(np.abs(out)) < 1e-14

    def test_single_mode_vs_oracle(self):
        g = TorusGrid(d=1, n=16)
        p = ModelParams(alpha_minus_d=-1.0, c_K=-1.0)
        rho = field_from_function(g, lambda x: 1 + 0.01 * np.cos(x))
        F = forward_transform(rho)
        op = SpectralOperator(g, p)
        out = full_field(g, nonlinear_rhs(half(g, F.coeffs), op)).coeffs
        u = velocity(half(g, F.coeffs), op)
        u_hats = [forward_transform(RealField(g, uj)).coeffs for uj in u]
        ref = -naive_flux_divergence(F, u_hats, g)
        assert np.max(np.abs(out - ref)) < 1e-12

    def test_nan_rejected(self):
        g = TorusGrid(d=1, n=16)
        p = ModelParams(alpha_minus_d=-1.0, c_K=-1.0)
        c = np.zeros(9, dtype=complex)
        c[0] = np.nan
        with pytest.raises(Exception):
            nonlinear_rhs(c, SpectralOperator(g, p))


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
        op = SpectralOperator(g, p)
        out = full_field(g, nonlinear_rhs(half(g, F.coeffs), op)).coeffs
        ref = complex_fft_rhs(F, p)
        assert np.max(np.abs(out - ref)) < 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("d", [1, 2])
    def test_mag_and_mask_own_contiguous_data(self, d):
        # the grid's rfft-layout lattice, |xi| and mask are the cut of the full ones bit for
        # bit, built on the half lattice: no full-layout array is kept alive
        for n in (8, 30, 64):
            g = TorusGrid(d=d, n=n)
            kv = g.half_wavevectors()
            assert np.array_equal(kv, half(g, g.wavevectors()))
            assert np.all(kv[..., n // 2, -1] == -n // 2)  # column N/2 is the mode -N/2
            op = SpectralOperator(g, ModelParams(alpha_minus_d=-1.0, c_K=-1.0))
            for arr, mine, full in ((op.mag, g.half_magnitude(), wavenumber_magnitude(g)),
                                    (op.mask, g.half_mask(), dealias_mask(g))):
                assert arr.base is None and arr.flags["C_CONTIGUOUS"]
                assert np.array_equal(mine, half(g, full))
                assert np.array_equal(arr, mine)

    @pytest.mark.parametrize("d", [1, 2])
    def test_final_state_is_bitwise_hermitian(self, d):
        # states stay in rfft layout; the full layout of a run's last state is Hermitian
        # bit for bit and keeps the rfft-layout half bit for bit.  At N = 48 the
        # 2-D rfftn of rho0 has non-real self-conjugate modes and a non-Hermitian
        # column 0, so the first state has to be made Hermitian.
        rng = np.random.default_rng(16)
        g = TorusGrid(d=d, n=48)
        p = ModelParams(alpha_minus_d=-0.5, c_K=1.0, mu=0.1, nu=0.05)
        rho0 = random_real_field(g, rng, mean=1.0)
        cfg = StepperConfig(t_end=0.02, dt_mode="fixed", dt=5e-3)
        res = integrate(rho0, p, cfg)
        assert res.reason == "completed" and res.n_steps == 4
        assert is_hermitian(full_field(g, res.h).coeffs)
        op = SpectralOperator(g, p)
        h = step(step(half_coefficients(rho0), lambda *_: 5e-3, op)[0], lambda *_: 5e-3, op)[0]
        full = full_field(g, h).coeffs
        assert is_hermitian(full) and np.array_equal(half(g, full), h)
        assert np.array_equal(res.h, step(step(h, lambda *_: 5e-3, op)[0], lambda *_: 5e-3, op)[0])

    def test_velocity_of_masked_state_is_dealiased_velocity(self):
        rng = np.random.default_rng(17)
        g = TorusGrid(d=2, n=32)
        op = SpectralOperator(g, ModelParams(alpha_minus_d=-1.0, c_K=-1.0, mu=0.25))
        c = forward_transform(random_real_field(g, rng, mean=1.0)).coeffs
        u = velocity(half(g, dealias_mask(g) * c), op)
        for m, uj in zip(op.vel, u):
            assert np.array_equal(uj, op.physical(m * op.mask * half(g, c)))
            # Dealiasing the physical velocity: rfftn, mask, irfftn.
            full = op.physical(m * half(g, c))
            ref = op.physical(op.mask * np.fft.rfftn(full, norm="forward"))
            assert np.max(np.abs(uj - ref)) < 1e-13 * np.max(np.abs(ref))


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

    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_full_layout_heat_multiplier(self, d):
        rng = np.random.default_rng(15)
        g = TorusGrid(d=d, n=32)
        f = random_real_field(g, rng, decay=1.0, mean=1.0)
        out = mollify_initial(f, 0.3)
        ref = inverse_transform(apply_multiplier(forward_transform(f), heat_multiplier(0.045)))
        assert np.max(np.abs(out.values - ref.values)) < 1e-14


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

    @pytest.mark.parametrize("d", [1, 2])
    def test_gaussian_unpaired_nyquist_mode(self, d):
        # sigma = 0.05 leaves exp(-5.12) of the peak on the N = 128 Nyquist modes, whose
        # -N/2 coefficients have no +N/2 partner on the lattice: the lattice series is not
        # real, and building the field in full layout raised a Hermitian symmetry error.
        g = TorusGrid(d=d, n=128)
        f = InitialCondition(kind="gaussian", sigma=0.05, center=(1.0,)).build(g)
        kv = g.wavevectors()
        coeffs = (np.exp(-0.05 ** 2 * np.sum(kv * kv, axis=-1) / 2.0 - 1j * np.sum(kv, axis=-1))
                  / (2.0 * math.pi) ** d)
        assert np.max(np.abs(np.fft.ifftn(coeffs).imag)) * g.npoints > 1e-4
        F = forward_transform(f)
        paired = np.all(kv != -g.n // 2, axis=-1)
        assert np.max(np.abs(F.coeffs - coeffs)[paired]) < 1e-14 * np.max(np.abs(coeffs))
        assert np.all(np.isfinite(inverse_transform(F).values))
        assert mass(F) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("kwargs", [
        {"kind": "cosine", "mean": 0.0, "amplitude": 1.0},
        {"kind": "cosine", "mean": math.inf},
        {"kind": "gaussian", "mass": -1.0},
        {"kind": "gaussian", "mass": math.nan},
        {"kind": "gaussian", "center": (1.0, math.nan)},
    ])
    def test_bad_values_rejected_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            InitialCondition(**kwargs)

    def test_vectors_take_one_entry_or_one_per_axis(self):
        ic = InitialCondition(kind="cosine", k=(2,), center=(1.0, 2.0))
        assert ic.vectors(2) == ((2, 2), (1.0, 2.0))
        with pytest.raises(ValueError):
            ic.vectors(1)
        with pytest.raises(ValueError):
            ic.build(TorusGrid(d=1, n=16))
