"""Command-line entry point: simulations, experiment campaigns, verification.

Subcommands: simulate, mu-converge, picard, refine, verify.  Configuration
is a flat ``key = value`` text file plus ``--key value`` overrides; unknown
keys are errors.  All outputs are deterministic text (17 significant
digits), so identical configs and seeds reproduce files byte-for-byte.

Exit codes: 0 completed, 1 config error, 2 blow-up detected, 3 unstable
verification ratio.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import diagnostics, verify
from .diagnostics import energy_residual_Hs, energy_residual_L2
from .model import InitialCondition, ModelParams, SpectralOperator, mollify_initial, velocity
from .spectral import (
    RealField,
    SpectralField,
    TorusGrid,
    forward_transform,
    inverse_transform,
    l2_norm,
)
from .stepper import FinalState, StepperConfig, _integrating_factor_rk4, integrate

FMT = "%.17g"


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Full description of one simulation run."""

    dimension: int = 1
    modes: int = 64
    alpha_minus_d: float = -1.0
    c_K: float = -1.0
    nu: float = 0.0
    mu: float = 0.0
    cutoff: str = "bump"
    init: str = "cosine:mean=1,amplitude=0.5,k=1"
    t_end: float = 1.0
    dt_mode: str = "adaptive"
    dt: float = 1e-3
    safety: float = 0.5
    dt_max: float = 0.05
    max_steps: int = 1_000_000
    sample_every: int = 1
    s_list: tuple = (4.0,)
    blowup_threshold: float = 1e6
    out: str = "out"
    seed: int = 0

    def grid(self) -> TorusGrid:
        return TorusGrid(d=self.dimension, n=self.modes)

    def params(self) -> ModelParams:
        if self.cutoff != "bump":
            raise ConfigError(f"unknown cutoff {self.cutoff!r}")
        return ModelParams(
            alpha_minus_d=self.alpha_minus_d, c_K=self.c_K, nu=self.nu, mu=self.mu
        )

    def stepper(self) -> StepperConfig:
        return StepperConfig(
            t_end=self.t_end, dt_mode=self.dt_mode, dt=self.dt, safety=self.safety,
            dt_max=self.dt_max, max_steps=self.max_steps,
            blowup_threshold=self.blowup_threshold, sample_every=self.sample_every,
            s_list=tuple(self.s_list),
        )

    def initial_condition(self) -> InitialCondition:
        return parse_init(self.init, self.seed)

    def initial_field(self) -> RealField:
        rho0 = self.initial_condition().build(self.grid())
        return mollify_initial(rho0, self.mu)


_INT_KEYS = {"dimension", "modes", "max_steps", "sample_every", "seed"}
_FLOAT_KEYS = {
    "alpha_minus_d", "c_K", "nu", "mu", "t_end", "dt", "safety", "dt_max",
    "blowup_threshold",
}
_STR_KEYS = {"cutoff", "init", "dt_mode", "out"}


def _set_key(cfg_dict: dict, key: str, value: str):
    if key in _INT_KEYS:
        cfg_dict[key] = int(value)
    elif key in _FLOAT_KEYS:
        cfg_dict[key] = float(value)
    elif key in _STR_KEYS:
        cfg_dict[key] = value
    elif key == "s_list":
        cfg_dict[key] = tuple(float(v) for v in value.split(",") if v.strip())
    else:
        raise ConfigError(f"unknown config key {key!r}")


def load_config(path: str | None, overrides: list) -> RunConfig:
    """Read a flat key = value file, then apply (key, value) overrides."""
    cfg_dict: dict = {}
    if path is not None:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, value = (part.strip() for part in line.split("=", 1))
                _set_key(cfg_dict, key, value)
    for key, value in overrides:
        _set_key(cfg_dict, key, value)
    try:
        cfg = RunConfig(**cfg_dict)
        cfg.params()
        cfg.stepper()
        cfg.initial_condition()
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    if not cfg.s_list:
        raise ConfigError("s_list must be nonempty")
    return cfg


def parse_init(spec: str, seed: int = 0) -> InitialCondition:
    """Parse 'kind:key=val,key=val' into an InitialCondition."""
    kind, _, rest = spec.partition(":")
    kind = kind.strip()
    kwargs: dict = {"seed": seed}
    for item in rest.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ConfigError(f"bad init parameter {item!r}")
        key, value = (p.strip() for p in item.split("=", 1))
        if key in ("k", "center"):
            kwargs[key] = tuple(float(v) if key == "center" else int(v)
                                for v in value.split("/"))
        elif key in ("mean", "amplitude", "mass", "sigma", "decay"):
            kwargs[key] = float(value)
        elif key == "seed":
            kwargs[key] = int(value)
        else:
            raise ConfigError(f"unknown init parameter {key!r}")
    if kind not in ("cosine", "gaussian", "random"):
        raise ConfigError(f"unknown init kind {kind!r}")
    try:
        return InitialCondition(kind=kind, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def classify_regime(cfg: RunConfig, rho0: RealField) -> str:
    """Classify against the well-posedness hypotheses; advisory only."""
    nonneg = float(np.min(rho0.values)) >= -1e-12
    if cfg.nu > 0.0:
        if cfg.alpha_minus_d == 0.0 and cfg.c_K > 0.0:
            return (
                "case2 (viscous); note: endpoint alpha-d = 0 with c_K > 0 needs a "
                "smallness condition max|rho0| < c nu / c_K with unknown constant c "
                "- cannot be checked, proceeding"
            )
        return "case2 (viscous)"
    if cfg.c_K < 0.0 and nonneg:
        return "case1 (repulsive inviscid, nonnegative data)"
    return "outside well-posedness hypotheses (exploratory run)"


# ---------------------------------------------------------------------------
# output files


def series_header(s_list) -> list:
    cols = ["t", "mass", "min_rho", "max_rho", "l2"]
    for s in s_list:
        cols.append(f"hsdot_{s:g}")
        cols.append(f"hs_{s:g}")
    cols += ["B1", "B2", "int_B1", "int_B2sq",
             "energy_residual_L2", "energy_residual_Hs"]
    return cols


def write_series(path: str, records, s_list):
    with open(path, "w") as fh:
        fh.write(",".join(series_header(s_list)) + "\n")
        for r in records:
            row = [r.t, r.mass, r.min_rho, r.max_rho, r.l2]
            for s in s_list:
                hom, inh = r.hs[float(s)]
                row += [hom, inh]
            row += [r.B1, r.B2, r.int_B1, r.int_B2sq,
                    r.energy_residual_L2, r.energy_residual_Hs]
            fh.write(",".join(FMT % v for v in row) + "\n")


def write_snapshot(path: str, f: RealField, t: float):
    values = f.values.ravel().tolist()
    with open(path, "w") as fh:
        fh.write(f"{f.grid.d} {f.grid.n} {FMT % t}\n")
        fh.write(((FMT + "\n") * len(values)) % tuple(values))


def read_snapshot(path: str) -> tuple:
    with open(path) as fh:
        d, n, t = fh.readline().split()
        d, n, t = int(d), int(n), float(t)
        vals = np.array([float(line) for line in fh])
    grid = TorusGrid(d=d, n=n)
    return RealField(grid, vals.reshape(grid.shape)), t


def _fill_energy_residuals(result: FinalState, p: ModelParams, s_mid: float):
    """Centered-difference residuals at interior samples (nu = 0 runs only)."""
    if p.nu != 0.0 or len(result.states) < 3:
        return
    for i in range(1, len(result.records) - 1):
        window = result.states[i - 1:i + 2]
        result.records[i].energy_residual_L2 = energy_residual_L2(window, p)
        result.records[i].energy_residual_Hs = energy_residual_Hs(window, p, s_mid)


def _audit(records):
    """Self-check before exit: monotone time, mass constant to tolerance."""
    ts = [r.t for r in records]
    if any(t1 <= t0 for t0, t1 in zip(ts, ts[1:])):
        raise RuntimeError("audit failed: sample times not strictly increasing")
    m0 = records[0].mass
    scale = max(abs(m0), 1.0)
    if any(abs(r.mass - m0) > 1e-12 * scale for r in records):
        raise RuntimeError("audit failed: mass drift beyond tolerance")


def run_simulation(cfg: RunConfig, quiet: bool = False) -> int:
    """Run one simulation, write series + snapshots, return the exit code."""
    os.makedirs(cfg.out, exist_ok=True)
    rho0 = cfg.initial_field()
    regime = classify_regime(cfg, rho0)
    if not quiet:
        print(f"regime: {regime}", file=sys.stderr)
    p = cfg.params()
    keep = p.nu == 0.0
    result = integrate(rho0, p, cfg.stepper(), keep_states=keep)
    if keep:
        _fill_energy_residuals(result, p, max(cfg.s_list))
    _audit(result.records)
    write_series(os.path.join(cfg.out, "series.csv"), result.records, cfg.s_list)
    write_snapshot(os.path.join(cfg.out, "snapshot_initial.txt"), rho0, 0.0)
    final = inverse_transform(result.state)
    write_snapshot(os.path.join(cfg.out, "snapshot_final.txt"), final, result.t)
    with open(os.path.join(cfg.out, "status.txt"), "w") as fh:
        fh.write(f"reason {result.reason}\n")
        fh.write(f"t_final {FMT % result.t}\n")
        fh.write(f"n_steps {result.n_steps}\n")
        fh.write(f"regime {regime}\n")
    if not quiet:
        print(f"finished: {result.reason} at t = {result.t:.6g} "
              f"({result.n_steps} steps)", file=sys.stderr)
    return 0 if result.reason == "completed" else 2


# ---------------------------------------------------------------------------
# campaigns


def run_to_final(cfg: RunConfig) -> FinalState:
    return integrate(cfg.initial_field(), cfg.params(), cfg.stepper())


def mu_convergence(cfg: RunConfig, mu_list) -> list:
    """Errors of regularized runs against the mu = 0 reference at t_end.

    Returns rows (mu, err_L2, err_Hsm1); expectation: nonincreasing in mu.
    """
    mu_list = list(mu_list)
    if any(m2 >= m1 for m1, m2 in zip(mu_list, mu_list[1:])):
        raise ConfigError("mu values must be descending")
    if any(m <= 0.0 for m in mu_list):
        raise ConfigError("mu values must be positive")
    ref_cfg = replace(cfg, mu=0.0)
    ref = run_to_final(ref_cfg)
    if ref.reason != "completed":
        raise RuntimeError(f"reference run did not complete: {ref.reason}")
    s_m1 = max(cfg.s_list) - 1.0
    rows = []
    for mu in mu_list:
        res = run_to_final(replace(cfg, mu=mu))
        diff = SpectralField(ref.state.grid, res.state.coeffs - ref.state.coeffs)
        err_l2 = l2_norm(diff)
        err_hs = diagnostics.sobolev_norm(diff, s_m1)
        rows.append((mu, err_l2, err_hs))
    return rows


def picard_iteration(cfg: RunConfig, n_max: int) -> dict:
    """Successive linear-transport solves with velocity frozen from the previous iterate.

    Each iterate advances with the fixed-step integrating-factor RK4 of
    :func:`fpmflow.stepper.step`, so diffusion is exact; the previous
    trajectory is stored per step and linearly interpolated at stage
    midpoints (the velocity law is linear in the state).  Returns the
    successive L2 differences d_n at t_end and a divergence flag.
    """
    if cfg.mu <= 0.0:
        raise ConfigError("picard iteration requires mu > 0")
    p = cfg.params()
    grid = cfg.grid()
    op = SpectralOperator(grid, p)
    rho0 = cfg.initial_field()
    c0 = forward_transform(rho0)
    n_steps = max(1, int(round(cfg.t_end / cfg.dt)))
    dt = cfg.t_end / n_steps
    # Iterate 0 is constant in time.
    prev_traj = [c0.copy() for _ in range(n_steps + 1)]
    diffs = []
    for _ in range(n_max):
        state = c0.copy()
        traj = [state.copy()]
        for k in range(n_steps):
            a, bb = prev_traj[k], prev_traj[k + 1]
            mid = SpectralField(grid, 0.5 * (a.coeffs + bb.coeffs))
            u_d = {tau: [op.dealias(u.values) for u in velocity(c, p, op)]
                   for tau, c in ((0.0, a), (0.5, mid), (1.0, bb))}

            def frozen_rhs(arr, tau, u_d=u_d):
                return op.transport(op.dealiased_values(arr), u_d[tau])

            state = _integrating_factor_rk4(state, dt, p.nu, frozen_rhs, op)
            traj.append(state.copy())
        d = l2_norm(SpectralField(grid, state.coeffs - prev_traj[-1].coeffs))
        diffs.append(d)
        prev_traj = traj
    diverged = False
    run = 0
    for a, bb in zip(diffs, diffs[1:]):
        run = run + 1 if bb > a else 0
        if run >= 3:
            diverged = True
            break
    return {"diffs": diffs, "diverged": diverged, "dt": dt}


def grid_refinement(cfg: RunConfig, n_list) -> list:
    """Successive-resolution errors at t_end, restricted to the coarse band.

    Returns rows (N_coarse, N_fine, err_L2).
    """
    n_list = list(n_list)
    if any(b != 2 * a for a, b in zip(n_list, n_list[1:])):
        raise ConfigError("N values must double")
    finals = {}
    for n in n_list:
        res = run_to_final(replace(cfg, modes=n))
        finals[n] = res.state
    rows = []
    for a, b in zip(n_list, n_list[1:]):
        ca = np.fft.fftshift(finals[a].coeffs)
        cb = np.fft.fftshift(finals[b].coeffs)
        lo = (b - a) // 2
        sl = tuple(slice(lo, lo + a) for _ in range(cfg.dimension))
        diff = cb[sl] - ca
        err = math.sqrt((2.0 * math.pi) ** cfg.dimension * float(np.sum(np.abs(diff) ** 2)))
        rows.append((a, b, err))
    return rows


ESTIMATES = ("lemma1", "bdiff", "gdecomp", "comm", "plaincomm", "antisymmetry")


def verify_suite(selection, seed: int = 0, n: int = 100_000) -> list:
    """Run the selected estimate verifications; one report per estimate."""
    selection = list(selection)
    if not selection:
        raise ConfigError("empty verification selection")
    unknown = [s for s in selection if s not in ESTIMATES]
    if unknown:
        raise ConfigError(f"unknown estimates: {unknown}")
    reports = []
    for name in selection:
        if name == "lemma1":
            for s in (3.0, 4.0, 6.0):
                for d in (1, 2):
                    reports.append(verify.sample_lemma1(s, d, n, seed=seed))
        elif name == "bdiff":
            for b in (0.25, 0.5, 0.75, 1.0):
                for d in (1, 2):
                    reports.append(verify.sample_bdiff(b, d, n, seed=seed))
        elif name == "gdecomp":
            for b in (0.0, 0.5, 1.0):
                for d in (1, 2):
                    reports.append(verify.sample_gdecomp(3.0, b, d, n, seed=seed))
        elif name == "comm":
            for b in (0.25, 0.5, 0.75):
                reports.append(
                    verify.sample_commutator(b, n_trials=min(200, max(10, n // 500)),
                                             N=64, d=1, seed=seed)
                )
        elif name == "plaincomm":
            for b in (0.25, 0.5, 0.75):
                reports.append(
                    verify.sample_commutator(b, n_trials=min(200, max(10, n // 500)),
                                             N=64, d=1, seed=seed, plain=True)
                )
        elif name == "antisymmetry":
            reports.append(verify.sample_antisymmetry(n_fields=100, N=32, d=1, seed=seed))
    return reports


# ---------------------------------------------------------------------------
# CLI


def _parse_overrides(extra: list) -> list:
    out = []
    i = 0
    while i < len(extra):
        tok = extra[i]
        if not tok.startswith("--"):
            raise ConfigError(f"unexpected argument {tok!r}")
        if i + 1 >= len(extra):
            raise ConfigError(f"missing value for {tok!r}")
        out.append((tok[2:], extra[i + 1]))
        i += 2
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fpmflow",
        description="Pseudo-spectral fractional porous medium flow on the torus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", default=None, help="key = value config file")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--seed", type=int, default=None)

    sp = sub.add_parser("simulate", help="run one simulation")
    add_common(sp)
    sp = sub.add_parser("mu-converge", help="regularization convergence campaign")
    add_common(sp)
    sp.add_argument("--mu-list", default="0.5,0.25,0.125")
    sp = sub.add_parser("picard", help="frozen-velocity iteration campaign")
    add_common(sp)
    sp.add_argument("--n-max", type=int, default=8)
    sp = sub.add_parser("refine", help="grid refinement campaign")
    add_common(sp)
    sp.add_argument("--n-list", default="64,128,256")
    sp = sub.add_parser("verify", help="run estimate verifications")
    sp.add_argument("--select", default=",".join(ESTIMATES))
    sp.add_argument("--samples", type=int, default=100_000)
    sp.add_argument("--out", default=None)
    sp.add_argument("--seed", type=int, default=0)

    args, extra = parser.parse_known_args(argv)
    try:
        if args.command == "verify":
            if extra:
                raise ConfigError(f"unexpected arguments {extra}")
            selection = [s for s in args.select.split(",") if s.strip()]
            reports = verify_suite(selection, seed=args.seed, n=args.samples)
            text = "\n".join(r.format() for r in reports)
            if args.out:
                os.makedirs(args.out, exist_ok=True)
                with open(os.path.join(args.out, "verify_report.txt"), "w") as fh:
                    fh.write(text)
            print(text)
            failed = [r.name for r in reports if not r.passed]
            if failed:
                print(f"unstable estimates: {failed}", file=sys.stderr)
                return 3
            return 0

        overrides = _parse_overrides(extra)
        if args.out is not None:
            overrides.append(("out", args.out))
        if args.seed is not None:
            overrides.append(("seed", str(args.seed)))
        cfg = load_config(args.config, overrides)

        if args.command == "simulate":
            return run_simulation(cfg)
        if args.command == "mu-converge":
            mu_list = [float(v) for v in args.mu_list.split(",") if v.strip()]
            rows = mu_convergence(cfg, mu_list)
            os.makedirs(cfg.out, exist_ok=True)
            path = os.path.join(cfg.out, "mu_convergence.csv")
            with open(path, "w") as fh:
                fh.write("mu,err_L2,err_Hsm1\n")
                for mu, e2, eh in rows:
                    fh.write(",".join(FMT % v for v in (mu, e2, eh)) + "\n")
            for mu, e2, eh in rows:
                print(f"mu={mu:g}  err_L2={e2:.6e}  err_Hsm1={eh:.6e}")
            monotone = all(b[1] <= a[1] for a, b in zip(rows, rows[1:]))
            print(f"L2 errors nonincreasing in mu: {monotone}")
            return 0
        if args.command == "picard":
            rep = picard_iteration(cfg, args.n_max)
            os.makedirs(cfg.out, exist_ok=True)
            with open(os.path.join(cfg.out, "picard.csv"), "w") as fh:
                fh.write("n,d_n\n")
                for i, d in enumerate(rep["diffs"], 1):
                    fh.write(f"{i}," + (FMT % d) + "\n")
            for i, d in enumerate(rep["diffs"], 1):
                print(f"d_{i} = {d:.6e}")
            if rep["diverged"]:
                print("iteration diverged", file=sys.stderr)
                return 2
            return 0
        if args.command == "refine":
            n_list = [int(v) for v in args.n_list.split(",") if v.strip()]
            rows = grid_refinement(cfg, n_list)
            os.makedirs(cfg.out, exist_ok=True)
            with open(os.path.join(cfg.out, "refinement.csv"), "w") as fh:
                fh.write("N_coarse,N_fine,err_L2\n")
                for a, b, e in rows:
                    fh.write(f"{a},{b}," + (FMT % e) + "\n")
            for a, b, e in rows:
                print(f"{a} -> {b}: err = {e:.6e}")
            return 0
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
