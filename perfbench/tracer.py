"""Outside-in tracer for the ltbounds layers.

The tracer replaces public functions at the module attribute their callers
resolve (``optimize.normalize_weight`` is a different binding from
``trial.normalize_weight``), so nothing inside ``src/ltbounds`` changes.
Every call becomes a span: name, parent span, start and end.  Spans
stay in compact arrays until the run ends; self time is a span's duration
minus the durations of its direct children, and a name's inclusive time
counts only its outermost spans, so recursion through nested quadrature is
not counted twice.

``installed()`` patches the functions and restores every original in a
``finally`` block, also when a traced call raises.
"""

from __future__ import annotations

import contextlib
from array import array
from collections import Counter
from time import perf_counter

from ltbounds import cli, functionals, optimize, quad, trial, verify
from ltbounds.functionals import DivergentError
from ltbounds.trial import ConstraintViolationError

_PENALIZED = (ConstraintViolationError, DivergentError)


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._active: list[int] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.name_of = array("l")
        self.parent = array("l")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()

    # ---------------------------------------------------------- spans --

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        stack = self._stack
        self.name_of.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.outer.append(self._active[nid] == 0)
        self._active[nid] += 1
        stack.append(sid)
        self.end.append(0.0)
        self.start.append(perf_counter())
        return sid

    def _close(self, sid: int) -> float:
        end = perf_counter()
        self.end[sid] = end
        self._stack.pop()
        self._active[self.name_of[sid]] -= 1
        return end - self.start[sid]

    # -------------------------------------------------------- patching --

    def _patch(self, module, attr: str, replacement) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def _wrap(self, module, attr: str, name: str, after=None, failed=None, counter: str | None = None):
        original = getattr(module, attr)
        nid = self._name_id(name)
        counts = self.counts

        def traced(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            sid = self._open(nid)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                seconds = self._close(sid)
                if failed is not None:
                    failed(exc, args, seconds)
                raise
            seconds = self._close(sid)
            if after is not None:
                after(result, args, seconds)
            return result

        self._patch(module, attr, traced)

    def _wrap_integrate(self):
        original = quad.integrate
        nid = self._name_id("quad.integrate")
        inner_nid = self._name_id("quad.integrand")
        counts = self.counts

        def traced_integrate(func, *args, **kwargs):
            def traced_integrand(x):
                counts["quad.integrand.nodes"] += x.size
                sid = self._open(inner_nid)
                try:
                    return func(x)
                finally:
                    self._close(sid)

            sid = self._open(nid)
            try:
                result = original(traced_integrand, *args, **kwargs)
            finally:
                self._close(sid)
            counts["quad.integrate.panels"] += 1 + 2 * result.subdivisions_used
            if not result.converged:
                counts["quad.integrate.nonconverged"] += 1
            return result

        self._patch(quad, "integrate", traced_integrate)

    def _install(self) -> None:
        counts = self.counts

        # hooks get (result or exception, positional args, seconds); every
        # caller passes the profile family positionally
        def penalized(exc, args, seconds):
            if isinstance(exc, _PENALIZED):
                counts["optimize.penalized"] += 1

        def objective_done(result, args, seconds):
            kind = "indicator" if args[0].kind == "indicator" else "smooth"
            counts[f"functionals.averaging_objective.{kind}_s"] += seconds

        def objective_failed(exc, args, seconds):
            objective_done(None, args, seconds)
            if isinstance(exc, DivergentError):
                counts["functionals.averaging_objective.divergent"] += 1

        def optimizer_objective_failed(exc, args, seconds):
            objective_failed(exc, args, seconds)
            penalized(exc, args, seconds)

        def minimized(result, args, seconds):
            counts["optimize.iterations"] += result.iterations

        def solved(result, args, seconds):
            counts["verify.grid_nodes"] += result.grid.n_points
            counts["verify.eigenvalues"] += len(result.negative_eigenvalues)

        self._wrap_integrate()
        for module in (trial, optimize, cli):
            self._wrap(module, "normalize_weight", "trial.normalize_weight",
                       failed=penalized if module is optimize else None)
            self._wrap(module, "normalize_profile", "trial.normalize_profile",
                       failed=penalized if module is optimize else None,
                       counter="optimize.evals" if module is optimize else None)
        self._wrap(functionals, "one_minus_profile", "trial.one_minus_profile")
        self._wrap(functionals, "eval_weight", "trial.eval_weight")
        for module in (functionals, optimize, cli):
            self._wrap(module, "averaging_objective", "functionals.averaging_objective",
                       after=objective_done,
                       failed=optimizer_objective_failed if module is optimize else objective_failed)
        self._wrap(functionals, "weight_l2", "functionals.weight_l2")
        self._wrap(optimize, "minimize_averaging", "optimize.minimize_averaging", after=minimized)
        self._wrap(verify, "discretize_and_solve", "verify.discretize_and_solve", after=solved)
        self._wrap(verify, "potential_integral", "verify.potential_integral")
        self._wrap(verify, "potential_values", "verify.potential_values")
        self._wrap(cli, "main", "cli.main")

    @contextlib.contextmanager
    def installed(self):
        """Patch the traced functions for the duration of the block."""
        try:
            self._install()
            yield self
        finally:
            while self._patches:
                module, attr, original = self._patches.pop()
                setattr(module, attr, original)

    # ------------------------------------------------------- summaries --

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds of outermost spans, self seconds."""
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        in_children = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                in_children[p] += duration[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            entry = out[self.names[self.name_of[i]]]
            entry["calls"] += 1
            entry["self_s"] += duration[i] - in_children[i]
            if self.outer[i]:
                entry["s"] += duration[i]
        return out

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of one traced pass, by metric name."""
        t = self.totals()
        zero = {"calls": 0, "s": 0.0, "self_s": 0.0}

        def get(name, key):
            return t.get(name, zero)[key]

        c = self.counts
        evals = c["optimize.evals"]
        objective_s = get("functionals.averaging_objective", "s")
        weight_s = get("trial.normalize_weight", "s") + get("functionals.weight_l2", "s")
        return {
            "quad.integrate.calls": get("quad.integrate", "calls"),
            "quad.integrate.panels": c["quad.integrate.panels"],
            "quad.integrand.calls": get("quad.integrand", "calls"),
            "quad.integrand.nodes": c["quad.integrand.nodes"],
            "quad.integrate.self_s": get("quad.integrate", "self_s"),
            "quad.integrand.s": get("quad.integrand", "s"),
            "quad.integrate.nonconverged": c["quad.integrate.nonconverged"],
            "trial.normalize_weight.calls": get("trial.normalize_weight", "calls"),
            "trial.normalize_weight.s": get("trial.normalize_weight", "s"),
            "trial.one_minus_profile.calls": get("trial.one_minus_profile", "calls"),
            "trial.one_minus_profile.s": get("trial.one_minus_profile", "s"),
            "trial.eval_weight.calls": get("trial.eval_weight", "calls"),
            "trial.eval_weight.s": get("trial.eval_weight", "s"),
            "functionals.averaging_objective.calls": get("functionals.averaging_objective", "calls"),
            "functionals.averaging_objective.s": objective_s,
            "functionals.averaging_objective.self_s": get("functionals.averaging_objective", "self_s"),
            "functionals.averaging_objective.divergent": c["functionals.averaging_objective.divergent"],
            "functionals.averaging_objective.smooth_s": c["functionals.averaging_objective.smooth_s"],
            "functionals.averaging_objective.indicator_s": c["functionals.averaging_objective.indicator_s"],
            "functionals.weight_l2.s": get("functionals.weight_l2", "s"),
            "functionals.weight_share": weight_s / objective_s if objective_s > 0.0 else 0.0,
            "optimize.minimize_averaging.s": get("optimize.minimize_averaging", "s"),
            "optimize.minimize_averaging.self_s": get("optimize.minimize_averaging", "self_s"),
            "optimize.evals": evals,
            "optimize.iterations": c["optimize.iterations"],
            "optimize.penalized": c["optimize.penalized"],
            "optimize.useful_ratio": (evals - c["optimize.penalized"]) / evals if evals else 0.0,
            "verify.discretize_and_solve.calls": get("verify.discretize_and_solve", "calls"),
            "verify.discretize_and_solve.s": get("verify.discretize_and_solve", "s"),
            "verify.discretize_and_solve.self_s": get("verify.discretize_and_solve", "self_s"),
            "verify.potential_integral.s": get("verify.potential_integral", "s"),
            "verify.grid_nodes": c["verify.grid_nodes"],
            "verify.eigenvalues": c["verify.eigenvalues"],
            "cli.main.s": get("cli.main", "s"),
        }

    def write_spans(self, fh, t0: float) -> None:
        """One tab-separated line per span: id, parent, name, start and end in
        seconds since t0."""
        fh.write("id\tparent\tname\tstart_s\tend_s\n")
        names, name_of, parent = self.names, self.name_of, self.parent
        for i in range(len(self.start)):
            fh.write(f"{i}\t{parent[i]}\t{names[name_of[i]]}\t"
                     f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n")
