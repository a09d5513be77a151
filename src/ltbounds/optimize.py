"""Derivative-free minimization of the deficit and averaging objectives.

Plain Nelder-Mead with the textbook coefficients (reflection 1, expansion
2, contraction 0.5, shrink 0.5) and a deterministic axis-aligned initial
simplex, in two stages.  The first descent stops once the simplex diameter
is at most _RESTART_SCALE (1e-4) and the value spread at most _F_TOL.  Then
the search restarts once, from the best vertex with a fresh simplex of
relative step _RESTART_SCALE, and runs to the final tolerances _X_TOL and
_F_TOL.  The restart guards against a collapsed simplex (McKinnon, SIAM J.
Optim. 9, 1998).  Any fresh, non-degenerate simplex gives that guard,
whatever its size, and a small one does not redo the first descent's steps
down to the restart scale.  Tolerances and simplex sizes are fixed
constants, so an OptConfig is just a seed and an iteration budget.  No
randomness anywhere: identical configs produce bit-identical traces.

Parameters are clipped into a fixed box before evaluation,

  a in [1.1, 20]   p in [0.05, 3]   q in [0.05, 3]   r in [0.5, 10]

and evaluations that are inadmissible anyway (2pa <= 1, divergent
functionals) score PENALTY = inf, which no objective value reaches (a
non-finite integrand is a DivergentError), so the simplex slides back into
the feasible region on its own.  Results report the clipped, scored point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functionals import DivergentError, ProblemSpec, averaging_objective, weighted_deficit
from .trial import (WEIGHT_KINDS, ConstraintViolationError, _is_json_number, json_object, normalize_profile,
                    normalize_weight, spec_to_json)

__all__ = [
    "PENALTY",
    "ObjectiveFailureError",
    "OptConfig",
    "OptResult",
    "minimize_deficit",
    "minimize_averaging",
    "default_seed",
    "run_sweep",
    "trial_pair",
]

PENALTY = math.inf

_X_TOL, _F_TOL = 1e-6, 1e-9  # converged: simplex diameter <= _X_TOL and value spread <= _F_TOL
_SIMPLEX_SCALE = 0.15  # initial simplex step relative to |x0|
_RESTART_SCALE = 1e-4  # the first descent stops at this diameter; the restart simplex has this step

_BOX = ((1.1, 20.0), (0.05, 3.0), (0.05, 3.0), (0.5, 10.0))


class ObjectiveFailureError(RuntimeError):
    """More than half of the initial simplex evaluations were penalized; the
    message names why the first penalized point was rejected."""


@dataclass(frozen=True)
class OptConfig:
    seed_params: tuple[float, ...]
    max_iters: int = 2000

    def __post_init__(self):
        object.__setattr__(self, "seed_params", tuple(float(v) for v in self.seed_params))
        if len(self.seed_params) == 0:
            raise ValueError("seed_params must be non-empty")
        if not all(map(math.isfinite, self.seed_params)):
            raise ValueError(f"seed_params must be finite, got {self.seed_params!r}")
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, (int, np.integer)) \
                or self.max_iters < 1:
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")


@dataclass(frozen=True)
class OptResult:
    best_params: tuple[float, ...]
    best_value: float
    iterations: int
    converged: bool
    trace: tuple[tuple[int, float], ...]

    to_json = spec_to_json


def _initial_simplex(x0: np.ndarray, scale: float) -> np.ndarray:
    n = x0.size
    simplex = np.tile(x0, (n + 1, 1))
    for i in range(n):
        simplex[i + 1, i] += scale * max(abs(x0[i]), 0.1)
    return simplex


def _clipped(x) -> tuple[float, ...]:
    return tuple(min(max(float(v), lo), hi) for v, (lo, hi) in zip(x, _BOX))


def _nelder_mead(score, x0: np.ndarray, cfg: OptConfig) -> OptResult:
    """Minimize score(*clipped params) over raw simplex coordinates; an
    inadmissible or divergent point scores PENALTY."""
    rejected = []  # why the first penalized point was

    def objective(x) -> float:
        try:
            return score(*_clipped(x))
        except (ConstraintViolationError, DivergentError) as exc:
            if not rejected:
                rejected.append(str(exc))
            return PENALTY

    n = x0.size
    simplex = _initial_simplex(x0, _SIMPLEX_SCALE)
    fvals = np.array([objective(x) for x in simplex])
    if np.count_nonzero(fvals >= PENALTY) > (n + 1) / 2:
        raise ObjectiveFailureError(
            f"{np.count_nonzero(fvals >= PENALTY)} of {n + 1} initial simplex points are infeasible"
            + (f"; the first: {rejected[0]}" if rejected else ""))

    iters = 0
    restarted = False
    converged = False
    trace = [(0, float(fvals.min()))]

    while iters < cfg.max_iters:
        order = np.argsort(fvals, kind="stable")
        simplex, fvals = simplex[order], fvals[order]

        diameter = float(np.max(np.abs(simplex[1:] - simplex[0])))
        if diameter <= (_X_TOL if restarted else _RESTART_SCALE) and fvals[-1] - fvals[0] <= _F_TOL:
            if restarted:
                converged = True
                break
            # restart once from the best vertex with a fresh simplex about as
            # small as the first descent's; its row 0 is that vertex, whose
            # value is already known
            restarted = True
            simplex = _initial_simplex(simplex[0], _RESTART_SCALE)
            fvals = np.array([fvals[0], *(objective(x) for x in simplex[1:])])
            continue

        iters += 1
        centroid = simplex[:-1].mean(axis=0)
        worst = simplex[-1]
        reflected = centroid + (centroid - worst)
        f_r = objective(reflected)
        if f_r < fvals[0]:
            expanded = centroid + 2.0 * (reflected - centroid)
            f_e = objective(expanded)
            if f_e < f_r:
                simplex[-1], fvals[-1] = expanded, f_e
            else:
                simplex[-1], fvals[-1] = reflected, f_r
        elif f_r < fvals[-2]:
            simplex[-1], fvals[-1] = reflected, f_r
        else:
            if f_r < fvals[-1]:
                contracted = centroid + 0.5 * (reflected - centroid)
                f_c = objective(contracted)
                accept = f_c <= f_r
            else:
                contracted = centroid + 0.5 * (worst - centroid)
                f_c = objective(contracted)
                accept = f_c < fvals[-1]
            if accept:
                simplex[-1], fvals[-1] = contracted, f_c
            else:
                simplex[1:] = simplex[0] + 0.5 * (simplex[1:] - simplex[0])
                fvals[1:] = [objective(x) for x in simplex[1:]]
        trace.append((iters, float(min(trace[-1][1], fvals.min()))))

    order = np.argsort(fvals, kind="stable")
    simplex, fvals = simplex[order], fvals[order]
    return OptResult(best_params=_clipped(simplex[0]),
                     best_value=float(fvals[0]), iterations=iters,
                     converged=converged, trace=tuple(trace))


def minimize_deficit(beta: float, cfg: OptConfig) -> OptResult:
    """Minimize J_beta over normalized rational_power profiles (a, p).

    The exact minimizer is (a, p) = (beta, 1) with value
    constants.deficit_min(beta).value, which makes this a self-test of the
    whole quadrature/optimization stack.
    """
    if len(cfg.seed_params) != 2:
        raise ValueError("minimize_deficit expects seed_params = (a, p)")

    def objective(a, p) -> float:
        return weighted_deficit(normalize_profile("rational_power", a=a, p=p), beta)

    return _nelder_mead(objective, np.asarray(cfg.seed_params, dtype=float), cfg)


def minimize_averaging(problem: ProblemSpec, cfg: OptConfig, phi_kind: str = "bump_rich") -> OptResult:
    """Minimize the averaging objective over trial pairs.

    The parameters are the profile's (a, p) followed by the weight's, as
    trial.WEIGHT_KINDS lists them: (a, p, q, r) for bump_rich and bump_poly,
    (a, p) for bump_simple and uniform.  Every evaluation rebuilds normalized
    families, so the reported best_value is the true objective value of the
    admissible pair in best_params.
    """
    if not isinstance(phi_kind, str) or phi_kind not in WEIGHT_KINDS:  # a sweep's JSON may hold any value
        raise ValueError(f"unknown phi_kind {phi_kind!r}")
    names = ("a", "p", *WEIGHT_KINDS[phi_kind])
    if len(cfg.seed_params) != len(names):
        raise ValueError(f"phi_kind {phi_kind!r} expects seed_params = ({', '.join(names)})")

    def objective(*params) -> float:
        return averaging_objective(*trial_pair(phi_kind, params), problem)

    return _nelder_mead(objective, np.asarray(cfg.seed_params, dtype=float), cfg)


def trial_pair(phi_kind: str, params):
    """The normalized (profile, weight) that minimize_averaging scores at
    params = (a, p) or (a, p, q, r).  Raises ConstraintViolationError on
    inadmissible parameters."""
    profile = normalize_profile("rational_power", a=params[0], p=params[1])
    return profile, normalize_weight(phi_kind, *params[2:])


def default_seed(problem: ProblemSpec, phi_kind: str = "bump_rich") -> tuple[float, ...]:
    """Reasonable starting point for minimize_averaging at this problem."""
    if not WEIGHT_KINDS[phi_kind]:
        return (max(1.5, problem.tau + 1.0), 0.5)
    if problem.d == 1 and problem.sigma == 1.0 and phi_kind == "bump_rich":
        return (4.5, 0.25, 0.36, 2.1)
    if phi_kind == "bump_poly":
        return (max(4.0, 2.0 * problem.tau + 2.0), 0.25, 2.0, 4.0)
    return (max(2.0, problem.tau + 1.0), 0.5, 0.5, 2.0)


def run_sweep(configs: list[dict]):
    """Run minimize_averaging for each config dict; yield one record per run
    and then one summary record per distinct (d, sigma).

    Config keys: d, sigma (numbers) and seed_params (an array of numbers)
    required; phi_kind and max_iters optional; anything else is
    rejected by a ValueError from the call itself, before the first run.  A
    failing run yields a record with an "error" field instead of aborting the
    sweep.
    """
    if not isinstance(configs, list):
        raise ValueError("sweep config must be a JSON array of run objects")
    for idx, raw in enumerate(configs):
        json_object(raw, f"run {idx}", ("d", "sigma", "seed_params"), ("phi_kind", "max_iters"))
        seed = raw["seed_params"]
        if not (isinstance(seed, (list, tuple))
                and all(map(_is_json_number, (raw["d"], raw["sigma"], *seed)))):
            raise ValueError(f"run {idx}: d and sigma must be numbers and seed_params an array of numbers")
    return _sweep_records(configs)


def _sweep_records(configs: list[dict]):
    best: dict[tuple[int, float], float] = {}
    for idx, raw in enumerate(configs):
        phi_kind = raw.get("phi_kind", "bump_rich")
        record = {"run": idx, "d": raw["d"], "sigma": raw["sigma"], "phi_kind": phi_kind,
                  "seed_params": list(raw["seed_params"])}
        key = (raw["d"], raw["sigma"])
        best.setdefault(key, math.inf)  # the summaries follow each problem's first run
        try:
            problem = ProblemSpec(d=raw["d"], sigma=raw["sigma"])
            cfg = OptConfig(tuple(raw["seed_params"]), raw.get("max_iters", OptConfig.max_iters))
            result = minimize_averaging(problem, cfg, phi_kind=phi_kind)
            record.update(result.to_json())
            best[key] = min(best[key], result.best_value)
        except Exception as exc:  # noqa: BLE001 - per-run isolation is the contract
            record["error"] = f"{type(exc).__name__}: {exc}"
        yield record
    for (d, sigma), value in best.items():
        yield {"summary": True, "d": d, "sigma": sigma,
               "best_value": None if math.isinf(value) else value}
