"""Derivative-free minimization of the deficit and averaging objectives.

Two stages.  Plain Nelder-Mead with the textbook coefficients (reflection
1, expansion 2, contraction 0.5, shrink 0.5) from a deterministic
axis-aligned initial simplex descends until the simplex diameter is at
most _HANDOFF_DIAMETER (3e-2), below which the objectives are smooth
quadratics.  A Newton refinement then starts from the best vertex, whose
value is known: each round scores a central-difference stencil, n(n + 3)/2
points whose steps start at _HANDOFF_SCALE (1e-4) relative to each
coordinate, and steps towards the minimum of the quadratic model it gives
(Nocedal and Wright, Numerical Optimization, ch. 8).  An indefinite model
Hessian H is shifted to H + lambda I, positive definite (their Algorithm
3.3), and the step is backtracked until it scores below the round's start
(their ch. 3).  The search ends when that step is at most _X_TOL and the
stencil's first-order spread at most _F_TOL.  A fresh stencil every round
also guards against a collapsed simplex (McKinnon, SIAM J. Optim. 9,
1998).  Tolerances and step sizes are fixed constants, so an OptConfig is
just a seed and an iteration budget.  No randomness anywhere: identical
configs produce bit-identical traces.

Parameters are clipped into a fixed box before evaluation,

  a in [1.1, 20]   p in [0.05, 3]   q in [0.05, 3]   r in [0.5, 10]

and evaluations that are inadmissible anyway (2pa <= 1, divergent
functionals) score PENALTY = inf, which no objective value reaches (a
non-finite integrand is a DivergentError), so the simplex slides back into
the feasible region on its own; a refinement round holds fixed each
coordinate whose stencil would leave the box or scores PENALTY.  Results
report the clipped, scored point.
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

_X_TOL, _F_TOL = 1e-6, 1e-9  # converged: Newton step <= _X_TOL and first-order spread <= _F_TOL
_SIMPLEX_SCALE = 0.15  # initial simplex step relative to |x0|
_HANDOFF_DIAMETER = 3e-2  # the descent's stopping simplex diameter
_HANDOFF_SCALE = 1e-4  # the refinement's first relative stencil step
_HALVINGS = 8  # the most a refinement round halves its Newton step

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


def _initial_simplex(x0: np.ndarray) -> np.ndarray:
    n = x0.size
    simplex = np.tile(x0, (n + 1, 1))
    for i in range(n):
        simplex[i + 1, i] += _SIMPLEX_SCALE * max(abs(x0[i]), 0.1)
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
    simplex = _initial_simplex(x0)
    fvals = np.array([objective(x) for x in simplex])
    if np.count_nonzero(fvals >= PENALTY) > (n + 1) / 2:
        raise ObjectiveFailureError(
            f"{np.count_nonzero(fvals >= PENALTY)} of {n + 1} initial simplex points are infeasible"
            + (f"; the first: {rejected[0]}" if rejected else ""))

    iters = 0
    trace = [(0, float(fvals.min()))]

    while iters < cfg.max_iters:
        order = np.argsort(fvals, kind="stable")
        simplex, fvals = simplex[order], fvals[order]

        diameter = float(np.max(np.abs(simplex[1:] - simplex[0])))
        if diameter <= _HANDOFF_DIAMETER:
            return _refine(objective, simplex[0], float(fvals[0]), iters, trace, cfg)

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

    best = int(np.argmin(fvals))
    return OptResult(best_params=_clipped(simplex[best]), best_value=float(fvals[best]),
                     iterations=iters, converged=False, trace=tuple(trace))


def _refine(objective, x, fx: float, iters: int, trace: list, cfg: OptConfig) -> OptResult:
    """Newton rounds on central differences from x, whose value fx is known:
    the best vertex of a simplex of diameter at most _HANDOFF_DIAMETER.

    A round scores x +- h_i e_i and x + h_i e_i + h_j e_j, i < j, with h_i =
    s max(|x_i|, 0.1), for the gradient g and Hessian H, where s starts at
    _HANDOFF_SCALE.  A coordinate whose stencil leaves the box or scores
    PENALTY is held fixed for the round.  The Newton step is d = -(H +
    lambda I)^-1 g with lambda = 0 when H is positive definite; otherwise
    lambda starts at max(0, -min H_ii) + 1e-3 max |H_ii| and doubles until
    the Cholesky factorization succeeds (Nocedal and Wright, Algorithm 3.3).
    The round then scores the clipped x + alpha d for alpha = 1, 1/2, ...,
    at most _HALVINGS halvings, and stops at the first trial below fx.  The
    next round starts from the lowest point scored, which is the lowest
    stencil point when there is no model or no trial is lower.  Converged:
    the Newton step is at most _X_TOL in every coordinate, or the round did
    not move, and the stencil's first-order spread max |f(x + h_i e_i) -
    f(x - h_i e_i)| / 2 is at most _F_TOL (its even part is curvature times
    h_i^2, which no step closes).  A round that neither moves nor converges
    halves the steps for the rest of the search: a repeat would score the
    same stencil, and one that straddles a jump in the curvature (McKinnon's
    function at x = 0) resolves it only when smaller.
    """
    n = x.size
    lo, hi = np.array(_BOX[:n]).T
    x = np.array(_clipped(x))
    converged = False
    scale = _HANDOFF_SCALE
    while iters < cfg.max_iters:
        iters += 1
        steps = np.diag(scale * np.maximum(np.abs(x), 0.1))
        h = np.diag(steps)
        points, values = [x], [fx]

        def scored(y) -> float:
            points.append(y)
            values.append(objective(y))
            return values[-1]

        f_up, f_down = np.full(n, PENALTY), np.full(n, PENALTY)
        for i in np.flatnonzero((x - h >= lo) & (x + h <= hi)):
            f_up[i], f_down[i] = scored(x + steps[i]), scored(x - steps[i])
        free = np.flatnonzero((f_up < PENALTY) & (f_down < PENALTY))
        grad = (f_up[free] - f_down[free]) / (2.0 * h[free])
        hess = np.diag((f_up[free] + f_down[free] - 2.0 * fx) / h[free] ** 2)
        for a, i in enumerate(free):
            for b, j in enumerate(free[a + 1:], a + 1):
                f_ij = scored(x + steps[i] + steps[j])
                hess[a, b] = hess[b, a] = (f_ij - f_up[i] - f_up[j] + fx) / (h[i] * h[j])
        spread = float(np.max(np.abs(f_up[free] - f_down[free]), initial=0.0)) / 2.0

        newton = None
        if np.all(np.isfinite(hess)):
            shifted = _shifted_newton_step(grad, hess)
            if shifted is not None:
                newton = np.zeros(n)
                newton[free] = shifted
        small = newton is not None and float(np.max(np.abs(newton))) <= _X_TOL
        if newton is not None and not (small and spread <= _F_TOL):
            for alpha in 0.5 ** np.arange(_HALVINGS + 1):
                if scored(np.array(_clipped(x + alpha * newton))) < fx:
                    break
        best = int(np.argmin(values))  # 0, the round's start, on a tie
        x, fx = points[best], float(values[best])
        trace.append((iters, fx))
        converged = spread <= _F_TOL and (small or best == 0)
        if converged:
            break
        if best == 0:
            scale *= 0.5  # a repeat of a round that did not move would score the same stencil
    return OptResult(best_params=_clipped(x), best_value=fx, iterations=iters,
                     converged=converged, trace=tuple(trace))


def _shifted_newton_step(grad: np.ndarray, hess: np.ndarray) -> np.ndarray | None:
    """-(H + lambda I)^-1 g for the first lambda in 0, lambda_0, 2 lambda_0,
    ... at which H + lambda I is positive definite, where lambda_0 =
    max(0, -min H_ii) + 1e-3 max |H_ii|; None when lambda_0 is 0 (H has no
    diagonal to scale a shift by)."""
    diag = np.diag(hess)
    first = max(0.0, -float(np.min(diag, initial=0.0))) + 1e-3 * float(np.max(np.abs(diag), initial=0.0))
    shift, eye = 0.0, np.eye(grad.size)
    while True:
        try:
            np.linalg.cholesky(hess + shift * eye)  # raises unless positive definite
        except np.linalg.LinAlgError:
            if not first > 0.0:
                return None
            shift = 2.0 * shift if shift else first
        else:
            return -np.linalg.solve(hess + shift * eye, grad)


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
