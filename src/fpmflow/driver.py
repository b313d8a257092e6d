"""Command-line entry point: simulations, experiment campaigns, verification.

Subcommands: simulate, mu-converge, picard, refine, verify.  Configuration
is a flat ``key = value`` text file plus ``--key value`` overrides; unknown
keys are errors.  All outputs are deterministic text (17 significant
digits), so identical configs and seeds reproduce files byte-for-byte.

Exit codes:

    0  completed (simulate), or the campaign or verification finished
    1  config error: a usage error (an unknown command, a flag without its value), an
       unknown key or flag, a value that does not parse, or one out of range (modes,
       dimension, c_K, nu, mu, dt, dt_max, t_end, s_list, seed, blowup_threshold,
       --samples, --n-max; mu-converge also max(s_list) < -1); bad init data (an
       unknown kind, a non-finite value, cosine without mean >= amplitude >= 0,
       gaussian mass <= 0, k or center with neither 1 nor `dimension` entries); init data
       whose field or first transform overflows on the grid (found when a run builds its
       first field, before it steps); a
       refine --n-list of fewer than two N or an empty mu-converge --mu-list, or one
       with a mu that is not finite, positive and descending; a picard step count
       t_end / dt above max_steps; an empty --out (verify's means no report file) or
       one that cannot be a directory.  All are found before any run starts, and an
       invocation that ends in one removes the --out directory it made.
    2  simulate ended blowup_detected (also at t = 0, after no step, when B1 of the
       first state is above blowup_threshold, and on a CFL dt that is not finite and
       positive, as an overflowing max|u| gives) or max_steps; picard diverged (d_n
       rose three times in a row, or one turned non-finite, which ends the
       iteration); a refine or mu-converge run (also the mu = 0 reference) did not
       complete, reported as one ``campaign stopped: ...`` line on stderr with its reason
    3  verify found an unstable ratio
"""

from __future__ import annotations

import argparse
import math
import os
import shutil
import sys
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from . import verify
from .model import InitialCondition, ModelParams, SpectralOperator, mollify_initial, velocity
from .spectral import (
    RealField,
    TorusGrid,
    band_power,
    half_coefficients,
    half_inverse,
    half_norm,
    half_transform,
    sobolev_weight,
)
from .stepper import FinalState, StepperConfig, _integrating_factor_rk4, integrate

FMT = "%.17g"


class ConfigError(ValueError):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is a config error (exit 1), not argparse's 2
        raise ConfigError(message)


class IncompleteRun(RuntimeError):
    """A campaign run ended without completing, so the campaign stops (exit code 2)."""


@dataclass(frozen=True)
class RunConfig:
    """Full description of one simulation run; a bad key is a ConfigError when it is made,
    and no field can be set afterwards (``dataclasses.replace`` makes a checked copy)."""

    dimension: int = 1
    modes: int = 64
    alpha_minus_d: float = -1.0
    c_K: float = -1.0
    nu: float = 0.0
    mu: float = 0.0
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

    def __post_init__(self):
        if not self.out:
            raise ConfigError("out must name a directory, got an empty path")
        try:
            self.grid(), self.params(), self.stepper()
            self.initial_condition().vectors(self.dimension)
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from exc

    def grid(self) -> TorusGrid:
        return TorusGrid(d=self.dimension, n=self.modes)

    def params(self) -> ModelParams:
        return ModelParams(**{f.name: getattr(self, f.name) for f in fields(ModelParams)})

    def stepper(self) -> StepperConfig:
        return StepperConfig(**{f.name: getattr(self, f.name) for f in fields(StepperConfig)})

    def initial_condition(self) -> InitialCondition:
        return parse_init(self.init, self.seed)

    def initial_field(self) -> RealField:
        """The run's first field, mollified; data that overflow on the grid (a Gaussian
        width whose square overflows too), or whose first transform overflows, are a
        ConfigError."""
        grid = self.grid()
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                rho0 = self.initial_condition().build(grid)
            except OverflowError as exc:  # a float power: the Gaussian's sigma ** 2
                raise ConfigError(f"init {self.init!r} overflows: {exc}") from exc
            rho0 = mollify_initial(rho0, self.mu)
            if not np.all(np.isfinite(rho0.values)):
                raise ConfigError(f"init {self.init!r} overflows: the initial field is not finite")
            # the run takes this transform again: at N = 256 in 2-D it costs 0.6 ms
            if not np.all(np.isfinite(half_transform(rho0.values, grid.shape))):
                raise ConfigError(
                    f"init {self.init!r} overflows: its first transform is not finite")
        return rho0


def _parse_list(text: str, convert, name: str, sep: str = ",") -> list:
    """sep-separated values; one that ``convert`` rejects, an empty one too, is a config error."""
    try:
        return [convert(v) for v in text.split(sep)]
    except ValueError as exc:
        raise ConfigError(f"bad value in {name}: {exc}") from exc


def _set_key(kwargs: dict, cls, key: str, value: str, sep: str = ","):
    """kwargs[key] = value as the type of cls's default (a tuple: sep-separated entries)."""
    default = {f.name: f.default for f in fields(cls)}.get(key, MISSING)
    if default is MISSING:
        raise ConfigError(f"unknown {cls.__name__} key {key!r}")
    if isinstance(default, tuple):
        kwargs[key] = tuple(_parse_list(value, type(default[0]), key, sep))
    else:
        kwargs[key] = type(default)(value)


def load_config(path: str | None, overrides: list) -> RunConfig:
    """Read a key = value file, then (key, value) overrides; any bad input is a ConfigError."""
    cfg_dict: dict = {}
    try:
        if path is not None:
            with open(path) as fh:
                for lineno, line in enumerate(fh, 1):
                    line = line.split("#", 1)[0].strip()
                    if not line:
                        continue
                    if "=" not in line:
                        raise ConfigError(f"{path}:{lineno}: expected key = value")
                    key, value = (part.strip() for part in line.split("=", 1))
                    _set_key(cfg_dict, RunConfig, key, value)
        for key, value in overrides:
            _set_key(cfg_dict, RunConfig, key, value)
        cfg = RunConfig(**cfg_dict)
    except (OSError, ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
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
        _set_key(kwargs, InitialCondition, key, value, "/")
    if kwargs["seed"] < 0:
        raise ConfigError(f"seed must be non-negative, got {kwargs['seed']}")
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


def write_csv(path: str, header, rows):
    """Header line, then one FMT-formatted line per row (an int prints as an int)."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(FMT % v for v in row) + "\n")


def write_series(path: str, records, s_list):
    def row(r):
        hs = [v for s in s_list for v in r.hs[float(s)]]
        return [r.t, r.mass, r.min_rho, r.max_rho, r.l2, *hs, r.B1, r.B2, r.int_B1,
                r.int_B2sq, r.energy_residual_L2, r.energy_residual_Hs]

    write_csv(path, series_header(s_list), map(row, records))


def write_snapshot(path: str, f: RealField, t: float):
    values = f.values.ravel().tolist()
    with open(path, "w") as fh:
        fh.write(f"{f.grid.d} {f.grid.n} {FMT % t}\n")
        fh.write(((FMT + "\n") * len(values)) % tuple(values))


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
    rho0 = cfg.initial_field()
    os.makedirs(cfg.out, exist_ok=True)
    regime = classify_regime(cfg, rho0)
    if not quiet:
        print(f"regime: {regime}", file=sys.stderr)
    p = cfg.params()
    result = integrate(rho0, p, cfg.stepper(), energy_residuals=p.nu == 0.0)
    _audit(result.records)
    write_series(os.path.join(cfg.out, "series.csv"), result.records, cfg.s_list)
    write_snapshot(os.path.join(cfg.out, "snapshot_initial.txt"), rho0, 0.0)
    final = RealField(result.grid, half_inverse(result.h, result.grid.shape))
    write_snapshot(os.path.join(cfg.out, "snapshot_final.txt"), final, result.t)
    with open(os.path.join(cfg.out, "status.txt"), "w") as fh:
        fh.write(f"reason {result.reason}\nt_final {FMT % result.t}\n"
                 f"n_steps {result.n_steps}\nregime {regime}\n")
    if not quiet:
        print(f"finished: {result.reason} at t = {result.t:.6g} "
              f"({result.n_steps} steps)", file=sys.stderr)
    return 0 if result.reason == "completed" else 2


# ---------------------------------------------------------------------------
# campaigns


def run_to_final(cfg: RunConfig) -> FinalState:
    return integrate(cfg.initial_field(), cfg.params(), cfg.stepper())


def _completed_run(cfg: RunConfig) -> FinalState:
    """run_to_final of a campaign run; one that did not complete raises IncompleteRun."""
    res = run_to_final(cfg)
    if res.reason != "completed":
        raise IncompleteRun(f"the run with modes={cfg.modes}, mu={cfg.mu:g} ended "
                            f"{res.reason} at t = {res.t:.6g} ({res.n_steps} steps)")
    return res


def mu_convergence(cfg: RunConfig, mu_list) -> list:
    """Errors of regularized runs against the mu = 0 reference at t_end.

    Returns rows (mu, err_L2, err_Hsm1); expectation: nonincreasing in mu.
    A run that does not complete, the reference included, raises IncompleteRun.
    """
    mu_list = list(mu_list)
    if not mu_list:
        raise ConfigError("empty mu list")
    runs = [replace(cfg, mu=mu) for mu in mu_list]  # a bad mu is a ConfigError before any run
    if any(m2 >= m1 for m1, m2 in zip(mu_list, mu_list[1:])):
        raise ConfigError("mu values must be descending")
    if any(m <= 0.0 for m in mu_list):
        raise ConfigError("mu values must be positive")
    s_m1 = max(cfg.s_list) - 1.0
    if s_m1 < -2.0:
        raise ConfigError(f"the H^(s-1) error needs max(s_list) >= -1, got {s_m1 + 1.0}")
    ref = _completed_run(replace(cfg, mu=0.0))
    grid = ref.grid
    w = sobolev_weight(grid.half_magnitude(), s_m1, False)
    rows = []
    for mu, run in zip(mu_list, runs):
        p2 = np.abs(_completed_run(run).h - ref.h) ** 2
        rows.append((mu, half_norm(grid, p2), half_norm(grid, p2, w)))
    return rows


def picard_iteration(cfg: RunConfig, n_max: int) -> dict:
    """Successive linear-transport solves with velocity frozen from the previous iterate.

    Each iterate advances at a fixed step with the integrating-factor RK4 that
    :func:`fpmflow.stepper.step` finishes, so diffusion is exact.  Its velocity
    is that of the previous iterate at the step's ends and at its midpoint,
    where the state is the mean of the two ends (the velocity law is linear in
    the state).  Step k of iterate n needs iterate n - 1 only at steps k and
    k + 1, so the iterates run as a wavefront that lags one step per iterate:
    wave w advances every live iterate n by its step k = w + 1 - n as one
    stack, in one RHS per RK4 stage.  That costs 4 (1 + d) real FFTs a wave,
    n_steps + n_max - 1 waves in all, plus three ``velocity`` calls (3d FFTs)
    per iterate and step.  The stack (the iterates in flight and the one the
    oldest of them reads) and the stack of one wave ago hold at most
    min(n_max, n_steps) + 1 states each, however many steps the run takes.
    Returns the successive L2 differences d_n at t_end and a divergence flag:
    set on three successive rises of d_n, or on a non-finite d_n, which ends
    the iteration.
    """
    if cfg.mu <= 0.0:
        raise ConfigError("picard iteration requires mu > 0")
    if n_max < 1:
        raise ConfigError(f"picard iteration needs n_max >= 1, got {n_max}")
    # capped at max_steps + 1, so a step count past the budget (inf included) is an int
    n_steps = max(1, round(min(cfg.t_end / cfg.dt, cfg.max_steps + 1)))
    if n_steps > cfg.max_steps:
        raise ConfigError(f"picard iteration needs t_end / dt = {cfg.t_end / cfg.dt:.6g} "
                          f"steps, more than max_steps = {cfg.max_steps}")
    op = SpectralOperator(cfg.grid(), cfg.params())
    c0 = half_coefficients(cfg.initial_field())[None]
    dt = cfg.t_end / n_steps
    # Wave w moves the live iterates lo..hi.  now holds the latest states of iterates
    # lo - 1..hi, where iterate 0 is c0 at every step and a new iterate starts from c0;
    # ago holds iterates lo - 1..hi - 1 one wave ago.  So iterate n's own state is a row
    # of now[1:], and iterate n - 1's states at steps k + 1 and k are rows of now[:-1]
    # and of ago.
    now, ago = np.concatenate([c0, c0]), c0
    lo = hi = 1
    diffs = []
    # An iterate that overflows has diverged: its d_n is checked below, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        for w in range(n_steps + n_max - 1):
            # velocity() per iterate and stage time, stacked afterwards (zip over a list:
            # zip(*generator) grows the traced heap by a tuple a wave)
            u_d = {tau: [np.stack(u) for u in zip(*[velocity(row, op) for row in op.mask * c])]
                   for tau, c in ((0.0, ago), (0.5, 0.5 * (ago + now[:-1])), (1.0, now[:-1]))}

            def frozen_rhs(arr, tau):
                return op.transport(op.physical(op.mask * arr), u_d[tau])

            new = _integrating_factor_rk4(now[1:], dt, frozen_rhs(now[1:], 0.0), frozen_rhs, op)
            if w >= n_steps - 1:  # iterate lo took its last step; now[0] is lo - 1's last state
                diffs.append(half_norm(op.grid, np.abs(new[0] - now[0]) ** 2))
                if not math.isfinite(diffs[-1]):
                    break
            # lo moves on once its iterate is done, hi once another iterate starts
            lo_next, hi_next = max(1, w + 3 - n_steps), min(n_max, w + 2)
            zero = [c0] if lo_next == 1 else []  # iterate 0, read by iterate 1
            start = [c0] if hi_next > hi else []  # the iterate that starts
            ago, now = now[lo_next - lo:hi_next - lo + 1], np.concatenate(zero + [new] + start)
            lo, hi = lo_next, hi_next
    rises = [bb > a for a, bb in zip(diffs, diffs[1:])]
    diverged = (not math.isfinite(diffs[-1])
                or any(all(rises[i:i + 3]) for i in range(len(rises) - 2)))
    return {"diffs": diffs, "diverged": diverged, "dt": dt}


def grid_refinement(cfg: RunConfig, n_list) -> list:
    """Successive-resolution errors at t_end, restricted to the coarse band.

    Returns rows (N_coarse, N_fine, err_L2).  A run that does not complete
    raises IncompleteRun.
    """
    n_list = list(n_list)
    if len(n_list) < 2:
        raise ConfigError(f"refinement needs at least two N values, got {n_list}")
    if any(b != 2 * a for a, b in zip(n_list, n_list[1:])):
        raise ConfigError("N values must double")
    runs = [replace(cfg, modes=n) for n in n_list]  # a bad N is a ConfigError before any run
    finals = [_completed_run(run) for run in runs]
    return [(a.grid.n, b.grid.n, float(half_norm(a.grid, band_power(a.grid, a.h, b.h))))
            for a, b in zip(finals, finals[1:])]


ESTIMATES = ("lemma1", "bdiff", "gdecomp", "comm", "plaincomm", "antisymmetry")


def verify_suite(selection, seed: int = 0, n: int = 100_000) -> list:
    """Run the selected estimate verifications; one report per estimate."""
    selection = list(selection)
    if not selection:
        raise ConfigError("empty verification selection")
    unknown = [s for s in selection if s not in ESTIMATES]
    if unknown:
        raise ConfigError(f"unknown estimates: {unknown}")
    if n < 1 or seed < 0:
        raise ConfigError(f"need samples >= 1 and seed >= 0, got {n} and {seed}")
    chosen = set(selection)
    # Each population is drawn once for every report that uses it; the
    # reports are then listed in the order of the selection.
    got = {}
    pointwise = {"lemma1": (3.0, 4.0, 6.0), "gdecomp": ((3.0, 0.0), (3.0, 0.5), (3.0, 1.0)),
                 "bdiff": (0.25, 0.5, 0.75, 1.0)}
    pointwise = {name: params for name, params in pointwise.items() if name in chosen}
    if pointwise:
        d1, d2 = (verify.pointwise_reports(d, n, seed, **pointwise) for d in (1, 2))
        for name in pointwise:
            got[name] = [r for pair in zip(d1[name], d2[name]) for r in pair]
    comm = {name: name == "plaincomm" for name in ("comm", "plaincomm") if name in chosen}
    if comm:
        reps = verify.commutator_reports((0.25, 0.5, 0.75), comm.values(),
                                         n_trials=min(200, max(10, n // 500)), N=64, d=1,
                                         seed=seed)
        got.update((name, reps[plain]) for name, plain in comm.items())
    if "antisymmetry" in chosen:
        got["antisymmetry"] = [verify.sample_antisymmetry(n_fields=100, N=32, d=1, seed=seed)]
    return [r for name in selection for r in got[name]]


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


def _make_out(path):
    """Create the output directory, if any, before any run; failing is a config error.

    Returns the outermost directory that this call created, or None if it made none.
    """
    if not path:
        return None
    made, head = None, os.path.abspath(path)
    while not os.path.lexists(head):
        made, head = head, os.path.dirname(head)
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}") from exc
    return made


def main(argv=None) -> int:
    parser = _ArgumentParser(
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

    made = None
    try:
        args, extra = parser.parse_known_args(argv)
        if args.command == "verify":
            if extra:
                raise ConfigError(f"unexpected arguments {extra}")
            selection = [s.strip() for s in args.select.split(",") if s.strip()]
            made = _make_out(args.out)
            reports = verify_suite(selection, seed=args.seed, n=args.samples)
            text = "\n".join(r.format() for r in reports)
            if args.out:
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
        made = _make_out(cfg.out)

        if args.command == "simulate":
            return run_simulation(cfg)
        if args.command == "mu-converge":
            mu_list = _parse_list(args.mu_list, float, "--mu-list")
            rows = mu_convergence(cfg, mu_list)
            write_csv(os.path.join(cfg.out, "mu_convergence.csv"),
                      ("mu", "err_L2", "err_Hsm1"), rows)
            for mu, e2, eh in rows:
                print(f"mu={mu:g}  err_L2={e2:.6e}  err_Hsm1={eh:.6e}")
            monotone = all(b[1] <= a[1] for a, b in zip(rows, rows[1:]))
            print(f"L2 errors nonincreasing in mu: {monotone}")
            return 0
        if args.command == "picard":
            rep = picard_iteration(cfg, args.n_max)
            write_csv(os.path.join(cfg.out, "picard.csv"), ("n", "d_n"),
                      enumerate(rep["diffs"], 1))
            for i, d in enumerate(rep["diffs"], 1):
                print(f"d_{i} = {d:.6e}")
            if rep["diverged"]:
                print("iteration diverged", file=sys.stderr)
                return 2
            return 0
        if args.command == "refine":
            n_list = _parse_list(args.n_list, int, "--n-list")
            rows = grid_refinement(cfg, n_list)
            write_csv(os.path.join(cfg.out, "refinement.csv"),
                      ("N_coarse", "N_fine", "err_L2"), rows)
            for a, b, e in rows:
                print(f"{a} -> {b}: err = {e:.6e}")
            return 0
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        if made:  # such as initial data that overflow: the invocation leaves no directory
            shutil.rmtree(made, ignore_errors=True)
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except IncompleteRun as exc:
        print(f"campaign stopped: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
