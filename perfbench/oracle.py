"""Correctness oracle for one workload call, and its negative self-test.

Every call is checked for the invariants below.  A call whose input seed
has an entry in reference.json (recorded from the commit that defined the
benchmark) is also compared with it at a round-off tolerance: refactors may
change bits, not results.
"""

from __future__ import annotations

import copy
import math

RTOL = 1e-9
ATOL = 1e-13
MASS_RTOL = 1e-12  # the driver's _audit rule


def _close(value, ref) -> bool:
    return abs(value - ref) <= RTOL * abs(ref) + ATOL


def invariant_problems(kind: str, s: dict) -> list:
    if kind == "simulate":
        problems = []
        if s["exit_code"] != 0 or s["reason"] != "completed":
            problems.append(f"ended with exit code {s['exit_code']}, reason {s['reason']}")
        if not s["finite"]:
            problems.append("final state is not finite")
        m0 = s["masses"][0]
        drift = max(abs(m - m0) for m in s["masses"])
        if not drift <= MASS_RTOL * max(abs(m0), 1.0):
            problems.append(f"mass drift {drift:.3e} beyond {MASS_RTOL:g} relative")
        return problems
    if kind == "picard":
        problems = [] if all(math.isfinite(d) for d in s["diffs"]) else ["non-finite d_n"]
        if s["diverged"]:
            problems.append("picard iteration diverged")
        return problems
    return [f"estimate {name} did not pass"
            for name, (_, _, passed) in s["reports"].items() if not passed]


def compared_values(kind: str, s: dict) -> dict:
    """The reference-compared outputs, flattened to name -> number."""
    if kind == "simulate":
        return {"n_steps": s["n_steps"], "l2_final": s["l2_final"], "B1_final": s["B1_final"]}
    if kind == "picard":
        return {f"d_{i}": d for i, d in enumerate(s["diffs"], 1)}
    out = {}
    for name, (n, sup, _) in s["reports"].items():
        out[f"{name}.n"] = n
        out[f"{name}.sup_ratio"] = sup
    return out


def reference_problems(kind: str, s: dict, ref: dict) -> list:
    got, want = compared_values(kind, s), compared_values(kind, ref)
    if got.keys() != want.keys():
        return [f"outputs {sorted(got)} differ from reference {sorted(want)}"]
    return [f"{k} = {got[k]!r}, reference {want[k]!r}"
            for k in want if not _close(got[k], want[k])]


def check(kind: str, s: dict, ref: dict | None) -> list:
    problems = invariant_problems(kind, s)
    if ref is not None:
        problems += reference_problems(kind, s, ref)
    return problems


def _perturbed(kind: str, ref: dict, key: str) -> dict:
    """ref with one compared value moved just beyond the tolerance."""
    bad = copy.deepcopy(ref)
    if kind == "simulate":
        bad[key] = bad[key] + 1 if key == "n_steps" else bad[key] * (1 + 1e-6) + 1e-9
    elif kind == "picard":
        i = int(key[2:]) - 1
        bad["diffs"][i] = bad["diffs"][i] * (1 + 1e-6) + 1e-9
    else:
        name, field = key.rsplit(".", 1)
        entry = bad["reports"][name]
        if field == "n":
            entry[0] += 1
        else:
            entry[1] = entry[1] * (1 + 1e-6) + 1e-9
    return bad


def _broken(kind: str, ref: dict) -> dict:
    """ref with one invariant violated."""
    bad = copy.deepcopy(ref)
    if kind == "simulate":
        bad["masses"][-1] *= 1 + 1e-9
    elif kind == "picard":
        bad["diverged"] = True
    else:
        next(iter(bad["reports"].values()))[2] = False
    return bad


def self_test(kind: str, ref: dict) -> list:
    """Negative check: the oracle must pass the reference and fail every perturbation."""
    problems = []
    if check(kind, ref, ref):
        problems.append("oracle rejects its own reference")
    for key in compared_values(kind, ref):
        if not reference_problems(kind, ref, _perturbed(kind, ref, key)):
            problems.append(f"oracle accepts a reference with {key} perturbed")
    if not invariant_problems(kind, _broken(kind, ref)):
        problems.append("oracle accepts an output that breaks an invariant")
    return problems
