"""Full-layout fields and their transforms, the full lattice's |xi|, dealias mask and
symbols with their cut to rfft layout, reference norms, the energy kernel with the FFT
evaluation of separable trilinear forms, the snapshot reader, the one-field-at-a-time
samplers and the one-iterate-at-a-time Picard loop, for the tests only.

The package knows one coefficient layout, rfft layout (``spectral.half_coefficients``,
``half_transform``, ``half_norm``) on the grid's rfft-layout lattice
(``TorusGrid.half_wavevectors``), evaluates trilinear forms by the naive lattice sum
and inside ``diagnostics.EnergyResidualKernel``, never reads a snapshot back, draws
each of verify's field populations in one batch and advances Picard's iterates as a
wavefront; these are the direct forms that the tests check it against.  A full-layout
field holds the coefficients of every mode in numpy FFT ordering; a symbol is a
function of a wavenumber array of shape (..., d), applied to every mode.
"""

import math
from dataclasses import dataclass

import numpy as np

from fpmflow.model import ModelParams, SpectralOperator, velocity, velocity_symbol
from fpmflow.spectral import (RealField, TorusGrid, half_coefficients, half_norm, magnitude,
                              radial_power, sobolev_weight)
from fpmflow.stepper import _integrating_factor_rk4


@dataclass
class SpectralField:
    """Full-layout coefficients of a field on grid."""

    grid: TorusGrid
    coeffs: np.ndarray


def forward_transform(f: RealField) -> SpectralField:
    """Full-layout coefficients of f through one complex FFT: c_0 is its mean."""
    return SpectralField(f.grid, np.fft.fftn(f.values) / f.grid.npoints)


def inverse_transform(F: SpectralField) -> RealField:
    """The real field of F, which must be Hermitian: an imaginary part above 1e-10 of the
    real part's peak (or of 1) fails."""
    vals = np.fft.ifftn(F.coeffs) * F.grid.npoints
    assert np.max(np.abs(vals.imag)) <= 1e-10 * max(np.max(np.abs(vals.real)), 1.0)
    return RealField(F.grid, vals.real)


def field_from_function(grid: TorusGrid, fn) -> RealField:
    """fn sampled on the grid points; it takes one coordinate array per dimension."""
    return RealField(grid, fn(*grid.points()))


def half(grid: TorusGrid, a: np.ndarray) -> np.ndarray:
    """rfft-layout view of a of shape (..., *grid.shape) on every mode, or of the lattice
    grid.shape + (d,): its last grid axis cut to wavenumbers 0..N/2."""
    keep = slice(0, grid.n // 2 + 1)
    return a[..., keep] if a.shape[-1] == grid.n else a[..., keep, :]


def wavenumber_magnitude(grid: TorusGrid) -> np.ndarray:
    """|xi| on the full lattice."""
    return magnitude(grid.wavevectors())


def dealias_mask(grid: TorusGrid) -> np.ndarray:
    """Boolean mask on the full lattice keeping modes with every |xi_j| <= N/3 (2/3 rule)."""
    cut = grid.n / 3.0
    k = grid.axis_wavenumbers()
    keep1 = np.abs(k) <= cut
    if grid.d == 1:
        return keep1
    return keep1[:, None] & keep1[None, :]


def fractional_power(s: float):
    """Symbol |xi|^s on nonzero modes, 0 at the zero mode."""

    def symbol(kv):
        return radial_power(magnitude(kv), s)

    return symbol


def heat_multiplier(t: float):
    """Symbol exp(-t |xi|^2); exactly 1 at the zero mode, so the mean is kept."""

    def symbol(kv):
        return np.exp(-t * np.sum(kv * kv, axis=-1))

    return symbol


def apply_multiplier(F: SpectralField, symbol) -> SpectralField:
    """Every coefficient of F, the zero mode included, times the symbol's value."""
    return SpectralField(F.grid, F.coeffs * symbol(F.grid.wavevectors()))


def full_field(grid: TorusGrid, h: np.ndarray) -> SpectralField:
    """The full-layout field whose rfft-layout part is h bit for bit, the other columns
    mirroring h: Hermitian bit for bit when h is a run's state."""
    n = grid.n
    rows = (-np.arange(n)) % n if grid.d == 2 else Ellipsis
    return SpectralField(grid, np.concatenate([h, np.conj(h[rows, n // 2 - 1:0:-1])], axis=-1))


@dataclass(frozen=True)
class SeparableKernel:
    """Kernel G(xi, eta) = sum_k a_k(xi) b_k(eta) from (a, b) pairs of factors evaluated
    on wavenumber arrays of shape (..., d); callable, so the naive lattice sum takes it."""

    terms: tuple

    def __call__(self, xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
        return sum(np.asarray(a(xi)) * np.asarray(b(eta)) for a, b in self.terms)


def trilinear_fft(G: SeparableKernel, F: SpectralField) -> float:
    """T[G] as Re sum over G's terms of mean(conj(A) B C) on the 3N/2 grid (Orszag's 3/2
    rule), A, B and C the fields of a c, b c and c on the band |k_j| <= N/2 - 1 (the
    unpaired -N/2 dropped, as the naive sum does); complex FFTs, as a kernel has no parity."""
    g, m = F.grid, 3 * F.grid.n // 2
    k = g.axis_wavenumbers()
    band = np.abs(k) < g.n // 2
    src, dst = np.ix_(*[band] * g.d), np.ix_(*[k[band] % m] * g.d)
    kv = g.wavevectors()

    def physical(c):
        padded = np.zeros((m,) * g.d, dtype=complex)
        padded[dst] = c[src]
        return np.fft.ifftn(padded, norm="forward")

    C = physical(F.coeffs)
    return sum(float(np.mean(np.conj(physical(a(kv) * F.coeffs)) * physical(b(kv) * F.coeffs)
                             * C).real) for a, b in G.terms)


def mass(F: SpectralField) -> float:
    """Total mass (2pi)^d Re c_0."""
    return (2.0 * math.pi) ** F.grid.d * float(F.coeffs.flat[0].real)


def l2_norm(F: SpectralField) -> float:
    """Physical L2 norm: (2pi)^{d/2} times the l2 norm of the coefficients."""
    return math.sqrt((2.0 * math.pi) ** F.grid.d * float(np.sum(np.abs(F.coeffs) ** 2)))


def sobolev_norm(F: SpectralField, s: float, homogeneous: bool = False) -> float:
    """H^s (or homogeneous Hdot^s) norm under the series convention."""
    w = sobolev_weight(wavenumber_magnitude(F.grid), s, homogeneous)
    return math.sqrt((2.0 * math.pi) ** F.grid.d * float(np.sum(w * np.abs(F.coeffs) ** 2)))


def energy_kernel(s: float, p: ModelParams, grid) -> SeparableKernel:
    """Kernel |xi|^{2s} xi.eta m(eta) driving d/dt (1/2)||rho||_{Hdot^s}^2.

    m(eta) = |eta|^{-2b} chi(mu |eta|) matches the (possibly regularized)
    velocity law of ``p``; s = 0 gives the L2 identity.
    """
    weight = fractional_power(2.0 * s)
    terms = []
    for j in range(grid.d):

        def a(xi, j=j):
            return weight(xi) * xi[..., j]

        def b(eta, j=j):
            return velocity_symbol(eta, p) * eta[..., j]

        terms.append((a, b))
    return SeparableKernel(terms=tuple(terms))


def read_snapshot(path: str) -> tuple:
    """(RealField, t) from a file written by ``driver.write_snapshot``."""
    with open(path) as fh:
        d, n, t = fh.readline().split()
        d, n, t = int(d), int(n), float(t)
        vals = np.array([float(line) for line in fh])
    grid = TorusGrid(d=d, n=n)
    return RealField(grid, vals.reshape(grid.shape)), t


def series_in_turn(grid: TorusGrid, rng, envelope, count: int) -> np.ndarray:
    """count values of ``spectral.random_series``, one draw and one complex FFT each."""
    out = []
    for _ in range(count):
        raw = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        out.append(np.fft.ifftn(raw * envelope(wavenumber_magnitude(grid)) * grid.npoints).real)
    return np.stack(out)


def _analytic_random_field(grid: TorusGrid, rng, rate: float, mean: float) -> np.ndarray:
    """Values of a random field with exponentially decaying spectrum (norms N-independent)."""
    vals = series_in_turn(grid, rng, lambda mag: np.exp(-rate * mag), 1)[0]
    peak = np.max(np.abs(vals))
    if peak > 0:
        vals /= peak
    return vals + mean


def commutator_fields_in_turn(grid: TorusGrid, rng, n_trials: int) -> tuple:
    """The (f, g) stacks of ``verify.commutator_reports``, drawn one field at a time."""
    f = np.empty((n_trials,) + grid.shape)
    g = np.empty_like(f)
    for i in range(n_trials):
        f[i] = _analytic_random_field(grid, rng, rate=0.4, mean=1.0)
        g[i] = _analytic_random_field(grid, rng, rate=0.25, mean=0.0)
        g[i] -= np.mean(g[i])
    return f, g


def random_field_in_turn(grid: TorusGrid, rng, decay: float = 2.0, amplitude: float = 1.0,
                         mean: float = 0.0) -> np.ndarray:
    """Values of ``spectral.random_real_field`` from a draw of its own."""
    vals = series_in_turn(grid, rng, lambda mag: (1.0 + mag) ** (-decay), 1)[0]
    peak = np.max(np.abs(vals))
    if peak > 0:
        vals = vals * (amplitude / peak)
    return vals + mean


def antisymmetry_coeffs_in_turn(grid: TorusGrid, rng, n_fields: int) -> np.ndarray:
    """The full-layout coefficient stack of ``verify.sample_antisymmetry``, one field at a time."""
    return np.stack([forward_transform(RealField(grid, random_field_in_turn(grid, rng))).coeffs
                     for _ in range(n_fields)])


def picard_in_turn(cfg, n_max: int) -> dict:
    """``driver.picard_iteration`` one iterate after another: each iterate runs its
    whole trajectory against the stored trajectory of the one before, linearly
    interpolated at stage midpoints."""
    n_steps = max(1, round(min(cfg.t_end / cfg.dt, cfg.max_steps + 1)))
    op = SpectralOperator(cfg.grid(), cfg.params())
    c0 = half_coefficients(cfg.initial_field())
    dt = cfg.t_end / n_steps
    prev_traj = [c0] * (n_steps + 1)  # iterate 0 is constant in time
    diffs = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_max):
            state = c0
            traj = [state]
            end = op.mask * prev_traj[0]  # a step starts where the last ended: one mask a state
            for k in range(n_steps):
                start, end = end, op.mask * prev_traj[k + 1]
                mid = op.mask * (0.5 * (prev_traj[k] + prev_traj[k + 1]))
                u_d = {tau: velocity(c, op) for tau, c in ((0.0, start), (0.5, mid), (1.0, end))}

                def frozen_rhs(arr, tau, u_d=u_d):
                    return op.transport(op.physical(op.mask * arr), u_d[tau])

                state = _integrating_factor_rk4(state, dt, frozen_rhs(state, 0.0), frozen_rhs, op)
                traj.append(state)
            diffs.append(half_norm(op.grid, np.abs(state - prev_traj[-1]) ** 2))
            if not math.isfinite(diffs[-1]):
                break
            prev_traj = traj
    rises = [bb > a for a, bb in zip(diffs, diffs[1:])]
    diverged = (not math.isfinite(diffs[-1])
                or any(all(rises[i:i + 3]) for i in range(len(rises) - 2)))
    return {"diffs": diffs, "diverged": diverged, "dt": dt}
