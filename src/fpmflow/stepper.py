"""Time integration: integrating-factor RK4 with a CFL-style step controller.

Diffusion is absorbed exactly into the exponential factor e^{-nu |xi|^2 dt},
so the explicit RK4 stages only see the nonlinear transport term.  With
c_K = 0 the scheme reproduces the heat semigroup to round-off for any dt.
Stage 1 does not depend on dt, so every step evaluates it first and takes dt
from the run's one rule (a CFL bound, or the fixed dt) applied to the largest
speed and density of its dealiased fields: the step size costs no transform.
States are rfft-layout coefficient arrays that no step updates in place.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .diagnostics import EnergyResidualKernel, make_record
from .model import ModelParams, SpectralOperator, nonlinear_rhs
from .spectral import RealField, SpectralError, TorusGrid, half_coefficients

EPS0 = 1e-12


@dataclass(frozen=True)
class StepperConfig:
    """Stepping policy and run limits."""

    t_end: float
    dt_mode: str = "adaptive"        # "fixed" or "adaptive"
    dt: float = 1e-3                 # used when dt_mode == "fixed"
    safety: float = 0.5              # CFL safety factor, in (0, 1]
    dt_max: float = 0.05             # cap for the adaptive controller
    max_steps: int = 1_000_000
    blowup_threshold: float = 1e6    # abort when B1 exceeds this
    sample_every: int = 1            # diagnostics cadence, in steps
    s_list: tuple = (4.0,)           # Sobolev exponents tracked per sample

    def __post_init__(self):
        if not 0.0 < self.t_end < math.inf:
            raise ValueError(f"t_end must be finite and positive, got {self.t_end}")
        if not (self.dt > 0.0 and self.dt_max > 0.0):  # dt_max = inf is no cap
            raise ValueError(f"dt and dt_max must be positive, got {self.dt}, {self.dt_max}")
        if not (self.s_list and all(s >= -2.0 for s in self.s_list)):
            raise ValueError(f"s_list must be nonempty with every s >= -2, got {self.s_list}")
        if not (0.0 < self.safety <= 1.0):
            raise ValueError("safety must lie in (0, 1]")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.dt_mode not in ("fixed", "adaptive"):
            raise ValueError(f"unknown dt_mode {self.dt_mode!r}")
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        if not self.blowup_threshold > 0.0:  # B1 > nan never holds; inf disables the check
            raise ValueError(f"blowup_threshold must be positive, got {self.blowup_threshold}")


@dataclass
class FinalState:
    """Outcome of a run: its last state h (rfft layout on grid), reason, diagnostics."""

    h: np.ndarray
    grid: TorusGrid
    t: float
    reason: str                      # "completed" | "blowup_detected" | "max_steps"
    n_steps: int
    records: list


def cfl_dt(umax: float, rho_max: float, op: SpectralOperator, safety: float,
           dt_max: float) -> float:
    """Stability surrogate: dt from the transport speed and the operator order.

    umax and rho_max are max|u_d| and max|rho_d| of the dealiased fields that
    stage 1 of :func:`step` multiplies, so the rule runs no transform.  The
    nonlinearity carries 2 - 2b derivatives, giving the grid-power constraint
    dx^{max(1, 2-2b)}; diffusion is exact and imposes none.
    """
    dx, expo = op.grid.dx, max(1.0, 2.0 - 2.0 * op.p.b)
    dt = safety * min(dx / (EPS0 + umax), dx ** expo / (EPS0 + abs(op.p.c_K) * rho_max))
    return min(dt, dt_max)


def _integrating_factor_rk4(c: np.ndarray, dt: float, k1: np.ndarray,
                            rhs: Callable[[np.ndarray, float], np.ndarray],
                            op: SpectralOperator) -> np.ndarray:
    """One RK4 step of d/dt c = -nu |xi|^2 c + rhs(c, tau), diffusion exact.

    ``rhs`` maps rfft-layout stage coefficients and the stage time, as a
    fraction tau in {0, 1/2, 1} of the step, to rfft-layout coefficients.
    k1 = rhs(c, 0) is stage 1, which the caller evaluates: a step takes dt from it.
    """
    e_full = e_half = 1.0  # exactly the factors at nu = 0
    viscous = op.p.nu > 0.0
    if viscous:
        mag2 = op.mag ** 2
        e_full = np.exp(-op.p.nu * mag2 * dt)
        e_half = np.exp(-op.p.nu * mag2 * (dt / 2.0))

    def damp(e, x):  # e * x; at nu = 0 that is 1.0 * x, x itself, so no copy is made
        return e * x if viscous else x

    k2 = rhs(damp(e_half, c + 0.5 * dt * k1), 0.5)
    k3 = rhs(damp(e_half, c) + 0.5 * dt * k2, 0.5)
    k4 = rhs(damp(e_full, c) + dt * e_half * k3, 1.0)
    return damp(e_full, c) + dt / 6.0 * (damp(e_full, k1) + 2.0 * e_half * (k2 + k3) + k4)


def step(state: np.ndarray, rule: Callable[[float, float], float],
         op: SpectralOperator) -> tuple:
    """One integrating-factor RK4 step: four RHS, 4 (1 + 2d) real FFTs; returns (state, dt).

    dt is the run's rule (umax, rho_max) -> dt applied to the maxima of stage 1's
    dealiased fields: a :func:`cfl_dt` bound for an adaptive run, a constant for a
    fixed one.  A dt that is not finite and positive (an overflowing state gives
    a CFL dt of 0 or nan) raises SpectralError.
    """
    def rhs(arr, tau):
        return nonlinear_rhs(arr, op)

    k1, umax, rho_max = nonlinear_rhs(state, op, maxima=True)
    dt = rule(umax, rho_max)
    if not 0.0 < dt < math.inf:
        raise SpectralError(f"the step-size rule gave dt = {dt}")
    return _integrating_factor_rk4(state, dt, k1, rhs, op), dt


def integrate(rho0: RealField, p: ModelParams, cfg: StepperConfig,
              energy_residuals: bool = False) -> FinalState:
    """Advance from rho0 to t_end, sampling diagnostics along the way.

    Aborts with reason "blowup_detected" when B1 exceeds the configured
    threshold, the state or an RK4 stage turns non-finite, or the CFL rule
    gives a dt that is not finite and positive, and with
    "max_steps" when the step budget runs out.  The B1 and B2 time
    integrals are accumulated by the trapezoid rule over sample times.  With
    ``energy_residuals`` (nu = 0 only) each interior record gets the L2 and
    Hdot^{max s_list} energy residuals once the sample after it is taken; the
    window holds the last three sampled states (by reference) and their
    records' norms.  Only the last state is handed out, in rfft layout.
    """
    op = SpectralOperator(rho0.grid, p)
    s_max = float(max(cfg.s_list))
    fixed = cfg.dt_mode == "fixed"
    kernel = EnergyResidualKernel(op, s_max) if energy_residuals else None
    window: deque = deque(maxlen=3)
    state = half_coefficients(rho0)
    t = 0.0
    records: list = []

    def sample(cur_t, cur_state, rho_values):
        rec = make_record(cur_t, cur_state, rho_values, cfg.s_list, op)
        if records:
            prev = records[-1]
            rec.int_B1 = prev.int_B1 + 0.5 * (prev.B1 + rec.B1) * (cur_t - prev.t)
            rec.int_B2sq = prev.int_B2sq + 0.5 * (prev.B2 + rec.B2) * (cur_t - prev.t)
        records.append(rec)
        if kernel is not None:
            window.append((cur_t, cur_state, rec.l2, rec.hs[s_max][0]))
            if len(window) == 3:
                mid = records[-2]
                mid.energy_residual_L2, mid.energy_residual_Hs = kernel.residuals(window)
        return rec.B1

    def rule(umax, rho_max):  # the run's dt, cut to end the run at t_end
        return min(cfg.dt if fixed else cfl_dt(umax, rho_max, op, cfg.safety, cfg.dt_max),
                   cfg.t_end - t)

    sample(0.0, state, rho0.values)
    n_steps = 0
    reason = "max_steps"
    # A state that overflows has blown up: it is classified below, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        while n_steps < cfg.max_steps:
            if t >= cfg.t_end - EPS0:
                reason = "completed"
                break
            try:
                state, dt = step(state, rule, op)
            except SpectralError:  # a non-finite stage or an unusable CFL dt: the last state stays
                reason = "blowup_detected"
                break
            t += dt
            n_steps += 1
            if not np.all(np.isfinite(state)):
                reason = "blowup_detected"
                break
            if n_steps % cfg.sample_every == 0 or t >= cfg.t_end - EPS0:
                b1 = sample(t, state, op.physical(state))
                if b1 > cfg.blowup_threshold:
                    reason = "blowup_detected"
                    break

    return FinalState(h=state, grid=op.grid, t=t, reason=reason, n_steps=n_steps,
                      records=records)
