"""Derivative-free minimization of the deficit and averaging objectives.

Plain Nelder-Mead with the textbook coefficients (reflection 1, expansion
2, contraction 0.5, shrink 0.5), a deterministic axis-aligned initial
simplex, and a single restart from the best vertex after first convergence
to guard against premature collapse.  No randomness anywhere: identical
configs produce bit-identical traces.

Parameters are clipped into a fixed box before evaluation,

  a in [1.1, 20]   p in [0.05, 3]   q in [0.05, 3]   r in [0.5, 10]

and evaluations that are inadmissible anyway (2pa <= 1, divergent
functionals) score a flat 1e6 penalty, so the simplex slides back into the
feasible region on its own.  Results report the clipped, scored point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quad
from .functionals import DivergentError, ProblemSpec, averaging_objective, weighted_deficit
from .trial import ConstraintViolationError, _is_json_number, normalize_profile, normalize_weight

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

PENALTY = 1.0e6

_BOX = ((1.1, 20.0), (0.05, 3.0), (0.05, 3.0), (0.5, 10.0))

_PARAMETRIC_WEIGHTS = ("bump_rich", "bump_poly")
_FIXED_WEIGHTS = ("bump_simple", "uniform")


class ObjectiveFailureError(RuntimeError):
    """More than half of the initial simplex evaluations were penalized."""


@dataclass(frozen=True)
class OptConfig:
    seed_params: tuple[float, ...]
    x_tol: float = 1e-6
    f_tol: float = 1e-9
    max_iters: int = 2000
    initial_simplex_scale: float = 0.15

    def __post_init__(self):
        object.__setattr__(self, "seed_params", tuple(float(v) for v in self.seed_params))
        if len(self.seed_params) == 0:
            raise ValueError("seed_params must be non-empty")
        if not (self.x_tol > 0.0 and self.f_tol > 0.0):
            raise ValueError(f"tolerances must be positive, got x_tol={self.x_tol!r}, f_tol={self.f_tol!r}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters!r}")
        if not (self.initial_simplex_scale > 0.0):
            raise ValueError(f"initial_simplex_scale must be positive, got {self.initial_simplex_scale!r}")


@dataclass(frozen=True)
class OptResult:
    best_params: tuple[float, ...]
    best_value: float
    iterations: int
    converged: bool
    trace: tuple[tuple[int, float], ...]

    def to_json(self) -> dict:
        return {
            "best_params": list(self.best_params),
            "best_value": self.best_value,
            "iterations": self.iterations,
            "converged": self.converged,
            "trace": [[i, v] for i, v in self.trace],
        }


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

    def objective(x) -> float:
        try:
            return score(*_clipped(x))
        except (ConstraintViolationError, DivergentError):
            return PENALTY

    n = x0.size
    simplex = _initial_simplex(x0, cfg.initial_simplex_scale)
    fvals = np.array([objective(x) for x in simplex])
    if np.count_nonzero(fvals >= PENALTY) > (n + 1) / 2:
        raise ObjectiveFailureError(
            f"{np.count_nonzero(fvals >= PENALTY)} of {n + 1} initial simplex points are infeasible")

    iters = 0
    restarted = False
    converged = False
    trace = [(0, float(fvals.min()))]

    while iters < cfg.max_iters:
        order = np.argsort(fvals, kind="stable")
        simplex, fvals = simplex[order], fvals[order]

        diameter = float(np.max(np.abs(simplex[1:] - simplex[0]))) if n > 0 else 0.0
        if diameter <= cfg.x_tol and fvals[-1] - fvals[0] <= cfg.f_tol:
            if restarted:
                converged = True
                break
            # restart once from the best vertex with a fresh, smaller simplex
            restarted = True
            simplex = _initial_simplex(simplex[0], 0.5 * cfg.initial_simplex_scale)
            fvals = np.array([objective(x) for x in simplex])
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


def minimize_deficit(beta: float, cfg: OptConfig, quad_spec: quad.QuadSpec | None = None) -> OptResult:
    """Minimize J_beta over normalized rational_power profiles (a, p).

    The exact minimizer is (a, p) = (beta, 1) with value
    constants.deficit_min(beta).value, which makes this a self-test of the
    whole quadrature/optimization stack.
    """
    if len(cfg.seed_params) != 2:
        raise ValueError("minimize_deficit expects seed_params = (a, p)")

    def objective(a, p) -> float:
        return weighted_deficit(normalize_profile("rational_power", a=a, p=p), beta, quad_spec)

    return _nelder_mead(objective, np.asarray(cfg.seed_params, dtype=float), cfg)


def minimize_averaging(problem: ProblemSpec, cfg: OptConfig, phi_kind: str = "bump_rich",
                       quad_spec: quad.QuadSpec | None = None) -> OptResult:
    """Minimize the averaging objective over trial pairs.

    Parametrized weights (bump_rich, bump_poly) optimize (a, p, q, r);
    fixed weights (bump_simple, uniform) optimize (a, p) only.  Every
    evaluation rebuilds normalized families, so the reported best_value is
    the true objective value of the admissible pair in best_params.
    """
    if phi_kind in _PARAMETRIC_WEIGHTS:
        if len(cfg.seed_params) != 4:
            raise ValueError(f"phi_kind {phi_kind!r} expects seed_params = (a, p, q, r)")
    elif phi_kind in _FIXED_WEIGHTS:
        if len(cfg.seed_params) != 2:
            raise ValueError(f"phi_kind {phi_kind!r} expects seed_params = (a, p)")
    else:
        raise ValueError(f"unknown phi_kind {phi_kind!r}")

    def objective(*params) -> float:
        return averaging_objective(*trial_pair(phi_kind, params, quad_spec), problem, quad_spec)

    return _nelder_mead(objective, np.asarray(cfg.seed_params, dtype=float), cfg)


def trial_pair(phi_kind: str, params, quad_spec: quad.QuadSpec | None = None):
    """The normalized (profile, weight) that minimize_averaging scores at
    params = (a, p) or (a, p, q, r).  Raises ConstraintViolationError on
    inadmissible parameters."""
    profile = normalize_profile("rational_power", a=params[0], p=params[1])
    if phi_kind in _PARAMETRIC_WEIGHTS:
        return profile, normalize_weight(phi_kind, q=params[2], r=params[3], quad_spec=quad_spec)
    return profile, normalize_weight(phi_kind)


def default_seed(problem: ProblemSpec, phi_kind: str = "bump_rich") -> tuple[float, ...]:
    """Reasonable starting point for minimize_averaging at this problem."""
    if phi_kind in _FIXED_WEIGHTS:
        return (max(1.5, problem.tau + 1.0), 0.5)
    if problem.d == 1 and problem.sigma == 1.0 and phi_kind == "bump_rich":
        return (4.5, 0.25, 0.36, 2.1)
    if phi_kind == "bump_poly":
        return (max(4.0, 2.0 * problem.tau + 2.0), 0.25, 2.0, 4.0)
    return (max(2.0, problem.tau + 1.0), 0.5, 0.5, 2.0)


_RUN_REQUIRED = {"d", "sigma", "seed_params"}
_RUN_OPTIONAL = {"phi_kind", "x_tol", "f_tol", "max_iters", "initial_simplex_scale"}


def run_sweep(configs: list[dict], quad_spec: quad.QuadSpec | None = None):
    """Run minimize_averaging for each config dict; yield one record per run
    and then one summary record per distinct (d, sigma).

    Config keys: d, sigma (numbers) and seed_params (an array of numbers)
    required; phi_kind plus the OptConfig fields optional; anything else is
    rejected by a ValueError from the call itself, before the first run.  A
    failing run yields a record with an "error" field instead of aborting the
    sweep.
    """
    if not isinstance(configs, list):
        raise ValueError("sweep config must be a JSON array of run objects")
    for idx, raw in enumerate(configs):
        if not isinstance(raw, dict):
            raise ValueError(f"run {idx}: config entries must be objects")
        unknown = set(raw) - _RUN_REQUIRED - _RUN_OPTIONAL
        if unknown:
            raise ValueError(f"run {idx}: unknown config fields {sorted(unknown)!r}")
        missing = _RUN_REQUIRED - set(raw)
        if missing:
            raise ValueError(f"run {idx}: missing config fields {sorted(missing)!r}")
        seed = raw["seed_params"]
        if not (isinstance(seed, (list, tuple))
                and all(map(_is_json_number, (raw["d"], raw["sigma"], *seed)))):
            raise ValueError(f"run {idx}: d and sigma must be numbers and seed_params an array of numbers")
    return _sweep_records(configs, quad_spec)


def _sweep_records(configs: list[dict], quad_spec: quad.QuadSpec | None):
    best: dict[tuple[int, float], float] = {}
    keys_in_order: list[tuple[int, float]] = []
    for idx, raw in enumerate(configs):
        phi_kind = raw.get("phi_kind", "bump_rich")
        record = {"run": idx, "d": raw["d"], "sigma": raw["sigma"], "phi_kind": phi_kind,
                  "seed_params": list(raw["seed_params"])}
        key = (raw["d"], raw["sigma"])
        if key not in best:
            best[key] = math.inf
            keys_in_order.append(key)
        try:
            problem = ProblemSpec(d=raw["d"], sigma=raw["sigma"])
            cfg = OptConfig(seed_params=tuple(raw["seed_params"]),
                            **{k: raw[k] for k in _RUN_OPTIONAL - {"phi_kind"} if k in raw})
            result = minimize_averaging(problem, cfg, phi_kind=phi_kind, quad_spec=quad_spec)
            record.update(result.to_json())
            best[key] = min(best[key], result.best_value)
        except Exception as exc:  # noqa: BLE001 - per-run isolation is the contract
            record["error"] = f"{type(exc).__name__}: {exc}"
        yield record
    for d, sigma in keys_in_order:
        value = best[(d, sigma)]
        yield {"summary": True, "d": d, "sigma": sigma,
               "best_value": None if math.isinf(value) else value}
