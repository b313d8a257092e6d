"""Time integration: integrating-factor RK4 with a CFL-style step controller.

Diffusion is absorbed exactly into the exponential factor e^{-nu |xi|^2 dt},
so the explicit RK4 stages only see the nonlinear transport term.  With
c_K = 0 the scheme reproduces the heat semigroup to round-off for any dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .diagnostics import DiagnosticsRecord, blowup_B1, blowup_B2, make_record
from .model import ModelParams, SpectralOperator, nonlinear_rhs, velocity
from .spectral import RealField, SpectralField, forward_transform, inverse_transform

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
        if self.t_end <= 0.0:
            raise ValueError("t_end must be positive")
        if not (0.0 < self.safety <= 1.0):
            raise ValueError("safety must lie in (0, 1]")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.dt_mode not in ("fixed", "adaptive"):
            raise ValueError(f"unknown dt_mode {self.dt_mode!r}")
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1")


@dataclass
class FinalState:
    """Outcome of a run: final state, termination reason, collected diagnostics."""

    state: SpectralField
    t: float
    reason: str                      # "completed" | "blowup_detected" | "max_steps"
    n_steps: int
    records: list
    states: list                     # [(t, SpectralField)] when keep_states was set


def cfl_dt(state: SpectralField, p: ModelParams, safety: float,
           dt_max: float = math.inf, op: Optional[SpectralOperator] = None) -> float:
    """Stability surrogate: dt from the transport speed and the operator order.

    The nonlinearity carries 2 - 2b derivatives, giving the grid-power
    constraint dx^{max(1, 2-2b)}; diffusion is exact and imposes none.
    """
    if op is None:
        op = SpectralOperator(state.grid, p)
    dx = state.grid.dx
    u = velocity(state, p, op)
    umax = max(float(np.max(np.abs(c.values))) for c in u)
    rho_max = float(np.max(np.abs(op.physical(op.half(state.coeffs)))))
    expo = max(1.0, 2.0 - 2.0 * p.b)
    dt = safety * min(
        dx / (EPS0 + umax),
        dx ** expo / (EPS0 + abs(p.c_K) * rho_max),
    )
    return min(dt, dt_max)


def _integrating_factor_rk4(state: SpectralField, dt: float, nu: float,
                            rhs: Callable[[np.ndarray, float], np.ndarray],
                            op: SpectralOperator) -> SpectralField:
    """One RK4 step of d/dt c = -nu |xi|^2 c + rhs(c, tau), diffusion exact.

    ``rhs`` receives stage coefficients and the stage time as a fraction
    tau in {0, 1/2, 1} of the step.  At nu = 0 the factors are exactly 1.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    e_full = np.exp(-nu * op.mag2 * dt)
    e_half = np.exp(-nu * op.mag2 * (dt / 2.0))
    c = state.coeffs
    k1 = rhs(c, 0.0)
    k2 = rhs(e_half * (c + 0.5 * dt * k1), 0.5)
    k3 = rhs(e_half * c + 0.5 * dt * k2, 0.5)
    k4 = rhs(e_full * c + dt * e_half * k3, 1.0)
    new = e_full * c + dt / 6.0 * (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4)
    return SpectralField(state.grid, new)


def step(state: SpectralField, dt: float, p: ModelParams,
         op: Optional[SpectralOperator] = None) -> SpectralField:
    """One integrating-factor RK4 step of size dt: four RHS, 4 (1 + 2d) real FFTs."""
    grid = state.grid
    if op is None:
        op = SpectralOperator(grid, p)

    def rhs(arr, tau):
        return nonlinear_rhs(SpectralField(grid, arr), p, op).coeffs

    return _integrating_factor_rk4(state, dt, p.nu, rhs, op)


def integrate(rho0: RealField, p: ModelParams, cfg: StepperConfig,
              on_sample: Optional[Callable[[DiagnosticsRecord], None]] = None,
              keep_states: bool = False) -> FinalState:
    """Advance from rho0 to t_end, sampling diagnostics along the way.

    Aborts with reason "blowup_detected" when B1 exceeds the configured
    threshold or the state turns non-finite, and with "max_steps" when the
    step budget runs out.  The B1 and B2 time integrals are accumulated by
    the trapezoid rule over sample times.
    """
    op = SpectralOperator(rho0.grid, p)
    state = forward_transform(rho0)
    t = 0.0
    int_B1 = 0.0
    int_B2 = 0.0
    prev_B1 = blowup_B1(state)
    prev_B2 = blowup_B2(state)
    prev_t = 0.0
    records: list = []
    states: list = []

    def sample(cur_t, cur_state, rho_values):
        nonlocal int_B1, int_B2, prev_B1, prev_B2, prev_t
        b1 = blowup_B1(cur_state)
        b2 = blowup_B2(cur_state)
        if cur_t > prev_t:
            int_B1 += 0.5 * (prev_B1 + b1) * (cur_t - prev_t)
            int_B2 += 0.5 * (prev_B2 + b2) * (cur_t - prev_t)
        prev_B1, prev_B2, prev_t = b1, b2, cur_t
        rec = make_record(cur_t, cur_state, rho_values, cfg.s_list, int_B1, int_B2)
        records.append(rec)
        if keep_states:
            states.append((cur_t, cur_state.copy()))
        if on_sample is not None:
            on_sample(rec)
        return b1

    sample(0.0, state, rho0.values)
    n_steps = 0
    reason = "max_steps"
    while n_steps < cfg.max_steps:
        if t >= cfg.t_end - EPS0:
            reason = "completed"
            break
        if cfg.dt_mode == "fixed":
            dt = cfg.dt
        else:
            dt = cfl_dt(state, p, cfg.safety, cfg.dt_max, op)
        dt = min(dt, cfg.t_end - t)
        state = step(state, dt, p, op)
        t += dt
        n_steps += 1
        if not np.all(np.isfinite(state.coeffs)):
            reason = "blowup_detected"
            break
        if n_steps % cfg.sample_every == 0 or t >= cfg.t_end - EPS0:
            rho_values = inverse_transform(state).values
            b1 = sample(t, state, rho_values)
            if b1 > cfg.blowup_threshold:
                reason = "blowup_detected"
                break

    return FinalState(state=state, t=t, reason=reason, n_steps=n_steps,
                      records=records, states=states)
