"""Command-line front end.

Subcommands:

  bound     one bound report for a problem (d, sigma) by a chosen method
  optimize  sweep of averaging-objective minimizations from a JSON config,
            streamed as JSON Lines
  table     --paper: recompute the headline constants against their
            published values; nonzero exit on any tolerance breach
  verify    run the spectral harness over a suite of potentials and check
            the eigenvalue-sum inequality at a given l_ratio

Machine formats (json, csv) print numbers to 15 significant digits and
carry identical values; text rounds to 6 decimals for reading.  Exit codes:
0 success, 1 regression or verification failure, 2 usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import sys

from . import constants, optimize, verify
from .functionals import ProblemSpec, averaging_objective
from .trial import WEIGHT_KINDS, json_object, normalize_profile, normalize_weight

_METHODS = ("rumin-original", "momentum-optimal", "from-c", "best-of")


def _sig15(value):
    if isinstance(value, float):
        return float(f"{value:.15g}")
    if isinstance(value, dict):
        return {k: _sig15(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sig15(v) for v in value]
    return value


def _output(args, parser):
    """The --out file opened for writing, or stdout; an unopenable path is a usage error."""
    if not args.out:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(args.out, "w")
    except OSError as exc:
        parser.error(f"cannot write --out: {exc}")


def _emit(args, parser, payload, rows: list[dict], lines: list[str]) -> None:
    """Write what --format asks for to --out or stdout: payload as JSON, rows
    as CSV (numbers to 15 digits) or lines as text."""
    if args.format == "json":
        text = json.dumps(_sig15(payload), indent=2) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
            writer.writeheader()
            for row in rows:
                writer.writerow({k: (f"{v:.15g}" if isinstance(v, float) else v) for k, v in row.items()})
        text = buf.getvalue()
    else:
        text = "\n".join(lines) + "\n"
    with _output(args, parser) as fh:
        fh.write(text)


def _read_config(path: str, parser):
    """The parsed JSON at path; an unreadable file or invalid JSON is a usage error."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        parser.error(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        parser.error(f"config is not valid JSON: {exc}")


def _add_common(sub, formats=True):
    if formats:
        sub.add_argument("--format", choices=("json", "csv", "text"), default="json")
    sub.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")


# ---------------------------------------------------------------- bound --

def _optimized_c(problem: ProblemSpec, args, parser):
    phi_kind = args.phi_kind or ("bump_rich" if (problem.d, problem.sigma) == (1, 1.0) else "bump_poly")
    seed = tuple(args.seed) if args.seed else optimize.default_seed(problem, phi_kind)
    cfg = optimize.OptConfig(seed_params=seed, max_iters=args.max_iters)
    result = optimize.minimize_averaging(problem, cfg, phi_kind=phi_kind)
    if not result.converged:  # C is still an admissible pair's value, so still an upper bound
        print(f"{parser.prog}: warning: --optimize did not converge within --max-iters {cfg.max_iters}; "
              "C is the best value found", file=sys.stderr)
    return result.best_value, optimize.trial_pair(phi_kind, result.best_params)


def cmd_bound(args, parser) -> int:
    if not args.optimize and (args.phi_kind is not None or args.seed is not None):
        parser.error("--phi-kind and --seed set up the --optimize search: give them with --optimize")
    if args.optimize and args.c_value is not None:
        parser.error("--c-value and --optimize both set C; give one")
    if args.method in ("rumin-original", "momentum-optimal") and (args.optimize or args.c_value is not None):
        parser.error(f"--method {args.method} takes no C: drop --c-value and --optimize")
    try:
        problem = ProblemSpec(d=args.d, sigma=args.sigma)
    except ValueError as exc:
        parser.error(str(exc))
    c_value, trial = args.c_value, None
    if args.optimize:
        try:
            c_value, trial = _optimized_c(problem, args, parser)
        except (optimize.ObjectiveFailureError, ValueError) as exc:
            parser.error(f"--optimize: {exc}")
    try:
        if args.method == "rumin-original":
            report = constants.bound_rumin_original(problem)
        elif args.method == "momentum-optimal":
            report = constants.bound_momentum_optimal(problem)
        elif args.method == "from-c":
            if c_value is None:
                parser.error("--method from-c requires --c-value or --optimize")
            report = constants.bound_from_c(problem, c_value, trial)
        else:
            report = constants.bound_best_of(problem, c_value, trial)
    except ValueError as exc:
        parser.error(str(exc))
    payload = report.to_json()
    row = {k: payload[k] for k in ("d", "sigma", "method", "k_ratio", "l_ratio", "c_value")}
    lines = [f"problem            d={payload['d']} sigma={payload['sigma']:g}",
             f"method             {payload['method']}",
             f"k_ratio            {payload['k_ratio']:.6f}",
             f"l_ratio            {payload['l_ratio']:.6f}"]
    if payload["c_value"] is not None:
        lines.append(f"c_value            {payload['c_value']:.6f}")
    _emit(args, parser, payload, [row], lines)
    return 0


# ------------------------------------------------------------- optimize --

def cmd_optimize(args, parser) -> int:
    configs = _read_config(args.config, parser)
    try:  # validate before --out truncates the file
        records = optimize.run_sweep(configs)
    except ValueError as exc:
        parser.error(str(exc))
    with _output(args, parser) as out:
        for record in records:
            out.write(json.dumps(_sig15(record)) + "\n")
            out.flush()
    return 0


# ---------------------------------------------------------------- table --

def _paper_rows() -> list[dict]:
    """Recomputed headline values next to their published counterparts."""
    p11 = ProblemSpec(d=1, sigma=1.0)
    p31 = ProblemSpec(d=3, sigma=1.0)
    p3h = ProblemSpec(d=3, sigma=0.5)

    momentum_11 = constants.bound_momentum_optimal(p11)
    momentum_31 = constants.bound_momentum_optimal(p31)
    rumin_11 = constants.bound_rumin_original(p11)

    simple = averaging_objective(normalize_profile("deficit_optimal", a=1.5),
                                 normalize_weight("bump_simple"), p11)
    rich = averaging_objective(normalize_profile("rational_power", a=4.5, p=0.25),
                               normalize_weight("bump_rich", q=0.36, r=2.1), p11)
    frac = averaging_objective(normalize_profile("rational_power", a=10.0, p=0.25),
                               normalize_weight("bump_poly", q=2.0, r=4.0), p3h)
    from_rich = constants.bound_from_c(p11, rich)
    from_frac = constants.bound_from_c(p3h, frac)

    gated = [
        ("k ratio, momentum-optimal split (d=1, sigma=1)", 0.381777, momentum_11.k_ratio, 1e-5),
        ("l ratio, momentum-optimal split (d=1, sigma=1)", 1.618435, momentum_11.l_ratio, 1e-5),
        ("l ratio, momentum-optimal split (d=3, sigma=1)", 1.994584, momentum_31.l_ratio, 1e-5),
        ("l ratio, uniform-splitting baseline (d=1)", 2.236068, rumin_11.l_ratio, 1e-5),
        ("averaging objective, simple trial (d=1)", 0.381378, simple, 1e-5),
        ("averaging objective, rich trial (d=1)", 0.373556, rich, 1e-5),
        ("k ratio from rich trial (d=1)", 0.471851, from_rich.k_ratio, 1e-5),
        ("l ratio from rich trial (d=1)", 1.455786, from_rich.l_ratio, 1e-5),
        ("averaging objective (d=3, sigma=1/2)", 0.046737, frac, 2e-6),
        ("k ratio from averaging (d=3, sigma=1/2)", 0.826297, from_frac.k_ratio, 1e-4),
        ("semiclassical kinetic constant (d=3, sigma=1/2)", 2.923, constants.k_cl(p3h), 5e-4),
        ("l ratio at d=1000 vs limit e", math.e, constants.large_d_limit_probe(1000), 1e-2),
        ("product identity residual (d1=1, d=3)", 0.0, constants.product_identity_check(1, 3), 1e-12),
    ]
    rows = []
    for quantity, paper, computed, tol in gated:
        diff = abs(computed - paper)
        rows.append({"quantity": quantity, "paper": paper, "computed": float(computed),
                     "abs_diff": diff, "tol": tol, "status": "pass" if diff <= tol else "fail"})
    rows.append({"quantity": "dimension-free l ratio (established)", "paper": constants.UNIVERSAL_L_RATIO,
                 "computed": constants.LIFTED_1D_L_RATIO, "abs_diff": None, "tol": None, "status": "info"})
    rows.append({"quantity": "conjectured sharp l ratio (d=1, unproven)", "paper": constants.CONJECTURED_1D_L_RATIO,
                 "computed": constants.CONJECTURED_1D_L_RATIO, "abs_diff": None, "tol": None, "status": "info"})
    return rows


def cmd_table(args, parser) -> int:
    if not args.paper:
        parser.error("table requires --paper")
    rows = _paper_rows()
    lines = [f"{'quantity':<50} {'paper':>12} {'computed':>12} {'diff':>10} {'status':>6}"]
    for row in rows:
        diff = f"{row['abs_diff']:.2e}" if row["abs_diff"] is not None else "-"
        lines.append(f"{row['quantity']:<50} {row['paper']:>12.6f} {row['computed']:>12.6f} "
                     f"{diff:>10} {row['status']:>6}")
    _emit(args, parser, rows, rows, lines)
    return 0 if all(row["status"] != "fail" for row in rows) else 1


# --------------------------------------------------------------- verify --

def _label(pot: verify.PotentialSpec) -> str:
    fields = {k: v for k, v in pot.to_json().items() if k != "kind"}
    inner = ",".join(f"{k}={v:g}" for k, v in sorted(fields.items()))
    return f"{pot.kind}({inner})"


def _verify_suite(raw) -> list:
    """The (potential, grid) cases of a verify config; a bad input raises a
    ValueError that names it, as in "case 2 grid: missing fields ['n_points']"."""
    if isinstance(raw, dict):
        raw = json_object(raw, "top level", ("cases",))["cases"]
    if not isinstance(raw, list):
        raise ValueError("top level: must be a JSON array of cases or {'cases': [...]}")
    suite = []
    for idx, case in enumerate(raw):
        json_object(case, f"case {idx}", ("grid", "potential"))
        try:
            suite.append((verify.potential_from_json(case["potential"]), verify.grid_from_json(case["grid"])))
        except ValueError as exc:
            raise ValueError(f"case {idx} {exc}") from None
    return suite


def cmd_verify(args, parser) -> int:
    if not (args.l_ratio > 0.0 and math.isfinite(args.l_ratio)):
        parser.error(f"--l-ratio must be positive and finite, got {args.l_ratio!r}")
    if args.config:
        try:
            suite = _verify_suite(_read_config(args.config, parser))
        except ValueError as exc:
            parser.error(f"bad verify config: {exc}")
    else:
        suite = list(verify.default_suite())

    cases = []
    for pot, grid in suite:
        result = verify.discretize_and_solve(pot, grid)
        chk = verify.check_inequality(result, args.l_ratio)
        cases.append({"potential": _label(pot), "n_points": grid.n_points,
                      "half_width": grid.half_width,
                      "negative_eigenvalues": list(result.negative_eigenvalues),
                      "lhs": chk.lhs, "rhs": chk.rhs, "margin": chk.margin, "holds": chk.holds})
    all_hold = all(case["holds"] for case in cases)
    payload = {"l_ratio": args.l_ratio, "cases": cases, "all_hold": all_hold}
    flat = [{k: case[k] for k in ("potential", "n_points", "half_width", "lhs", "rhs", "margin", "holds")}
            for case in cases]
    lines = [f"l_ratio = {args.l_ratio:g}"]
    for case in cases:
        verdict = "holds" if case["holds"] else "FAILS"
        lines.append(f"{case['potential']:<42} lhs={case['lhs']:>10.6f} rhs={case['rhs']:>10.6f} "
                     f"margin={case['margin']:>10.6f} {verdict}")
    lines.append("all hold" if all_hold else "INEQUALITY VIOLATED")
    _emit(args, parser, payload, flat, lines)
    return 0 if all_hold else 1


# ----------------------------------------------------------------- main --

def _seed_list(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"seed must be comma-separated floats: {exc}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ltbounds",
                                     description="bounds on kinetic and eigenvalue-sum constants")
    subs = parser.add_subparsers(dest="command", required=True)

    bound = subs.add_parser("bound", help="compute one bound report")
    bound.add_argument("--d", type=int, required=True)
    bound.add_argument("--sigma", type=float, required=True)
    bound.add_argument("--method", choices=_METHODS, required=True)
    bound.add_argument("--c-value", type=float, default=None,
                       help="averaging-objective value to convert (from-c, best-of)")
    bound.add_argument("--optimize", action="store_true",
                       help="minimize the averaging objective to obtain the c value")
    bound.add_argument("--phi-kind", choices=WEIGHT_KINDS, default=None)
    bound.add_argument("--seed", type=_seed_list, default=None, metavar="A,P[,Q,R]")
    bound.add_argument("--max-iters", type=int, default=optimize.OptConfig.max_iters)
    _add_common(bound)
    bound.set_defaults(func=cmd_bound, parser=bound)

    opt = subs.add_parser("optimize", help="run an optimization sweep from a JSON config")
    opt.add_argument("config", help="JSON array of run configs")
    _add_common(opt, formats=False)
    opt.set_defaults(func=cmd_optimize, parser=opt)

    table = subs.add_parser("table", help="recompute published values")
    table.add_argument("--paper", action="store_true", help="compare against published values")
    _add_common(table)
    table.set_defaults(func=cmd_table, parser=table)

    ver = subs.add_parser("verify", help="spectral check of the eigenvalue-sum inequality")
    ver.add_argument("config", nargs="?", default=None, help="JSON suite of {potential, grid} cases")
    ver.add_argument("--l-ratio", type=float, default=constants.UNIVERSAL_L_RATIO)
    _add_common(ver)
    ver.set_defaults(func=cmd_verify, parser=ver)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args, args.parser)  # the subcommand's parser prints its own usage line


if __name__ == "__main__":
    sys.exit(main())
