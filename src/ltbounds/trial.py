"""Trial families: momentum profiles f and averaging weights phi.

A profile f lives on (0, inf) with f(0+) = 1 and int f(t)^2 dt = 1; the
kinetic bounds come out of how fast 1 - f can vanish at 0 while keeping the
L2 normalization.  Kinds:

  rational_power   f(t) = (1 + mu t^a)^(-p), needs 2pa > 1 for L2;
                   normalization fixes mu = (B(1/a, 2p - 1/a)/a)^a
                   (substitute u = mu t^a and integrate termwise)
  deficit_optimal  f(t) = 1/(1 + mu* t^beta), the exact minimizer of the
                   weighted deficit int (1-f)^2 t^(-beta) dt at exponent
                   beta; stored as the a = beta, p = 1 member with the
                   closed-form scale
  indicator        f = 1 on (0,1], 0 beyond; already normalized

A weight phi lives on (0,1] with int phi = 1.  WEIGHT_KINDS maps each
kind to the parameters it takes; the optimizer and the CLI read it:

  bump_rich    (q, r)  phi(t) = c (1 - t^q)^r / (1 + t), c on quad.graded_rule
  bump_poly    (q, r)  phi(t) = c (1 - t^q)^r, c = q / B(1/q, r + 1)
  bump_simple  ()      phi(t) = 5 (1 - t^(1/4)), the bump_poly (1/4, 1) member
  uniform      ()      phi = 1 on (0,1], the bump_poly (1, 0) member

The two fixed members are stored with their (q, r) and the c that
bump_poly's closed form gives, exactly 5 and 1, so everything downstream
reads one formula for all three kinds.

Families are immutable, and normalize_profile / normalize_weight are the
only way to build one, so the stored scale constants always match the
stated normalization.  to_json writes a family as a flat JSON object for
reports, absent fields omitted; nothing reads a family back.  json_object
checks every JSON input the package reads (sweep runs, verify's config and
cases, and through spec_from_json its potential and grid specs).
"""

from __future__ import annotations

import functools
from dataclasses import MISSING, dataclass, fields

import numpy as np

from . import quad
from .specfun import beta, log_beta

__all__ = [
    "ConstraintViolationError",
    "ProfileFamily",
    "WeightFamily",
    "normalize_profile",
    "normalize_weight",
    "eval_profile",
    "one_minus_profile",
    "eval_weight",
    "spec_to_json",
    "json_object",
    "spec_from_json",
]

WEIGHT_KINDS = {"bump_rich": ("q", "r"), "bump_poly": ("q", "r"), "bump_simple": (), "uniform": ()}
_FIXED_MEMBERS = {"bump_simple": (0.25, 1.0), "uniform": (1.0, 0.0)}  # kind: bump_poly's (q, r)

_EXP_OVERFLOW = 709.0


class ConstraintViolationError(ValueError):
    """Family parameters violate an admissibility constraint."""


def _is_json_number(v) -> bool:
    """A JSON number as json.load returns it: an int or float, not a bool."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def spec_to_json(spec) -> dict:
    """A dataclass as a JSON object, None fields omitted; json writes tuples as arrays."""
    return {f.name: getattr(spec, f.name) for f in fields(spec) if getattr(spec, f.name) is not None}


@dataclass(frozen=True)
class ProfileFamily:
    kind: str
    a: float | None = None
    p: float | None = None
    mu: float | None = None

    to_json = spec_to_json


@dataclass(frozen=True)
class WeightFamily:
    kind: str
    q: float | None = None
    r: float | None = None
    c: float | None = None

    to_json = spec_to_json


def normalize_profile(kind: str, a: float | None = None, p: float | None = None) -> ProfileFamily:
    """Build a profile with the L2 normalization constant filled in.

    rational_power and deficit_optimal compute mu in closed form; the
    indicator needs no parameters.  Raises ConstraintViolationError when
    the parameters leave L2 (2pa <= 1) or are out of domain.
    """
    if kind == "indicator":
        if a is not None or p is not None:
            raise ConstraintViolationError("indicator profile takes no parameters")
        return ProfileFamily(kind="indicator")
    if kind == "deficit_optimal":
        # the a = beta, p = 1 member; mu comes out of the same closed form
        if a is None or not (a > 1.0):
            raise ConstraintViolationError(f"deficit_optimal requires exponent a > 1, got {a!r}")
        if p is not None and p != 1.0:
            raise ConstraintViolationError("deficit_optimal fixes p = 1")
        return ProfileFamily(kind="deficit_optimal", a=float(a), p=1.0, mu=_mu_closed_form(float(a), 1.0))
    if kind == "rational_power":
        if a is None or p is None or not (a > 0.0 and p > 0.0):
            raise ConstraintViolationError(f"rational_power requires a > 0 and p > 0, got a={a!r}, p={p!r}")
        if 2.0 * p * a <= 1.0:
            raise ConstraintViolationError(f"rational_power needs 2pa > 1 for L2, got 2pa={2.0 * p * a!r}")
        return ProfileFamily(kind="rational_power", a=float(a), p=float(p), mu=_mu_closed_form(float(a), float(p)))
    raise ConstraintViolationError(f"unknown profile kind {kind!r}")


def _mu_closed_form(a: float, p: float) -> float:
    # int f^2 = mu^(-1/a) B(1/a, 2p - 1/a)/a, so int f^2 = 1 at
    # mu = (B(1/a, 2p - 1/a)/a)^a; evaluated in log space.
    log_mu = float(a * (log_beta(1.0 / a, 2.0 * p - 1.0 / a) - np.log(a)))
    if log_mu > _EXP_OVERFLOW:
        raise ConstraintViolationError(f"normalization scale overflows: log mu = {log_mu!r}")
    return float(np.exp(log_mu))


def eval_profile(fam: ProfileFamily, t):
    """f(t) for t >= 0 (scalar or ndarray)."""
    t = np.asarray(t, dtype=float)
    if fam.kind == "indicator":
        return np.where(t <= 1.0, 1.0, 0.0)
    with np.errstate(over="ignore"):
        return np.exp(-fam.p * np.log1p(fam.mu * t**fam.a))


def one_minus_profile(fam: ProfileFamily, t):
    """1 - f(t) without cancellation at small t."""
    t = np.asarray(t, dtype=float)
    if fam.kind == "indicator":
        return np.where(t <= 1.0, 0.0, 1.0)
    with np.errstate(over="ignore"):
        return one_minus_rational(fam.p, fam.mu * t**fam.a)


def one_minus_rational(p: float, x, out=None):
    """1 - (1 + x)^(-p), which is 1 - f at x = mu t^a; expm1/log1p keep the
    leading order p x exact where the direct difference loses every digit.
    An ndarray out (x itself allowed) takes the result without allocating."""
    y = np.log1p(x, out=out)
    y *= -p
    return np.negative(np.expm1(y, out=out), out=out)


def normalize_weight(kind: str, q: float | None = None, r: float | None = None) -> WeightFamily:
    """Build a weight with int_0^1 phi = 1.

    bump_poly and its fixed members bump_simple and uniform carry a
    Beta-function closed form, bump_rich 1 / mass on quad.graded_rule(), the
    rule every objective scores it on.  Raises ConstraintViolationError on bad
    parameters or a degenerate (zero / non-finite) unnormalized integral.
    """
    if not isinstance(kind, str) or kind not in WEIGHT_KINDS:
        raise ConstraintViolationError(f"unknown weight kind {kind!r}")
    if kind in _FIXED_MEMBERS:
        if q is not None or r is not None:
            raise ConstraintViolationError(f"{kind} takes no parameters")
        q, r = _FIXED_MEMBERS[kind]
    if q is None or r is None or not (q > 0.0) or not (r >= 0.0):
        raise ConstraintViolationError(f"{kind} requires q > 0 and r >= 0, got q={q!r}, r={r!r}")
    q, r = float(q), float(r)
    if kind != "bump_rich":
        # int_0^1 (1 - t^q)^r dt = B(1/q, r+1)/q via u = t^q; specfun.beta keeps
        # c to a few ulp where exp of the log Beta would carry its absolute error
        mass = beta(1.0 / q, r + 1.0) / q
        if not 0.0 < mass < np.inf:
            log_c = float(np.log(q) - log_beta(1.0 / q, r + 1.0))
            raise ConstraintViolationError(f"normalization constant overflows: log c = {log_c!r}")
        return WeightFamily(kind=kind, q=q, r=r, c=1.0 / mass)
    s, w = quad.graded_rule()
    mass = float(w @ (_bump_on_rule(q, r) / (1.0 + s)))
    if not (mass > 0.0) or not np.isfinite(mass):
        raise ConstraintViolationError(f"weight normalization integral degenerate: {mass!r}")
    return WeightFamily(kind="bump_rich", q=q, r=r, c=1.0 / mass)


@functools.lru_cache(maxsize=1)
def _bump_on_rule(q: float, r: float):
    """(1 - s^q)^r at the nodes s of quad.graded_rule(), read-only: bump_rich's
    normalize_weight takes its mass from it, and eval_weight on those nodes
    reuses it, so an objective evaluation forms the powers once."""
    out = np.power(quad.graded_rule()[0], q)
    np.subtract(1.0, out, out=out)
    np.power(out, r, out=out)
    out.setflags(write=False)
    return out


def eval_weight(fam: WeightFamily, t):
    """phi(t), zero outside [0, 1] (scalar or ndarray)."""
    t = np.asarray(t, dtype=float)
    if fam.kind == "bump_rich" and t is quad.graded_rule()[0]:  # every node is in [0, 1]
        out = np.multiply(fam.c, _bump_on_rule(fam.q, fam.r))
        return np.divide(out, np.add(1.0, t), out=out)
    inside = (t >= 0.0) & (t <= 1.0)
    # out is an array even for a scalar t, so every step below writes in place
    out = np.clip(t, 0.0, 1.0, out=np.empty_like(t))
    one_plus = np.add(1.0, out) if fam.kind == "bump_rich" else None  # bump_rich's 1 + t, t clipped
    # the powers x^1 = x and x^0 = 1 (nan included) are skipped, as uniform's and bump_simple's are
    if fam.r == 0.0:
        out.fill(1.0)
    else:
        if fam.q != 1.0:
            np.power(out, fam.q, out=out)
        np.subtract(1.0, out, out=out)
        if fam.r != 1.0:
            np.power(out, fam.r, out=out)
    np.multiply(fam.c, out, out=out)
    if one_plus is not None:
        np.divide(out, one_plus, out=out)
    out[~inside] = 0.0
    return out


def json_object(obj, name: str, required, optional=(), kind: str | None = None) -> dict:
    """obj, checked to be a JSON object with every key of required and no key
    outside required and optional; else a ValueError that starts with name,
    as in "run 3: unknown fields ['x_tol']", ending " for kind 'k'" if given."""
    if not isinstance(obj, dict):
        raise ValueError(f"{name}: must be a JSON object, got {type(obj).__name__}")
    where = "" if kind is None else f" for kind {kind!r}"
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ValueError(f"{name}: unknown fields {unknown!r}{where}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise ValueError(f"{name}: missing fields {missing!r}{where}")
    return obj


def spec_from_json(obj: dict, cls, label: str, fields_by_kind: dict | None = None):
    """Inverse of spec_to_json for the dataclass cls; raises a ValueError
    that starts with label, cls's own errors included.

    fields_by_kind maps each kind to the fields it takes; without it there is
    no kind and every field of cls is taken.  Fields must be JSON numbers and
    are required unless their dataclass default is a value other than None.
    """
    defaults = {f.name: f.default for f in fields(cls)}
    names, kind = list(defaults), None
    if fields_by_kind is not None and isinstance(obj, dict):
        kind = obj.get("kind")
        if not isinstance(kind, str) or kind not in fields_by_kind:
            raise ValueError(f"{label}: unknown kind {kind!r}")
        names = ["kind", *fields_by_kind[kind]]
    required = [name for name in names if defaults[name] in (None, MISSING)]
    vals = dict(json_object(obj, label, required, names, kind))
    head = {} if kind is None else {"kind": vals.pop("kind")}
    for name, v in vals.items():
        if not _is_json_number(v):
            raise ValueError(f"{label}: field {name!r} must be a number, got {v!r}")
    try:
        return cls(**head, **{name: float(v) for name, v in vals.items()})
    except (ValueError, OverflowError) as exc:  # float() overflows on an integer past the float range
        raise ValueError(f"{label}: {exc}") from None
