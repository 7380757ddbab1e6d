"""Instance files: a JSON format for composite problems, loaders with
eager validation, and the shipped test battery.

The smooth map is either a per-output polynomial of degree at most two
(so analytic Hessians always exist) or a registered builtin family; the
battery uses the affine matrix-pencil family for the semidefinite
instances.  Canonical schema::

    {
      "name": "...",
      "n": 1,
      "F": {"polynomial": [{"const": c, "linear": [...], "quadratic": [[...]]}, ...]}
           or {"builtin": {"id": "affine_pencil", "params": {...}}},
      "g": [{"kind": "...", ...}, ...],
      "known_solution": {"x": [...], "mu": [...]},   # optional
      "start": {"x": [...], "mu": [...]}             # optional
    }

Off-diagonal svec coordinates carry the sqrt(2) scaling throughout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .pieces import PIECE_KINDS, ConvexPiece, _size
from .problem import CompositeProblem, DimensionError, KKTPoint, SmoothMap, kkt_check
from .symmat import svec


class InstanceFormatError(ValueError):
    pass


@dataclass
class InstanceMeta:
    name: str
    known_solution: KKTPoint | None
    start: KKTPoint | None


def _finite(value, field: str) -> np.ndarray:
    """The value as a float array; NaN and infinite entries are format errors."""
    arr = np.asarray(value, dtype=float)
    if not np.isfinite(arr).all():
        raise InstanceFormatError(f"{field} has a non-finite entry")
    return arr


def _vector(value, field: str) -> np.ndarray:
    """The value as a finite 1-d float array; a number is one entry, as
    for a box bound."""
    arr = np.atleast_1d(_finite(value, field))
    if arr.ndim != 1:
        raise InstanceFormatError(f"{field} must be a 1-d array, got shape {arr.shape}")
    return arr


def _expect(value, kind: type, field: str):
    """The value, which must be a JSON object (kind dict) or array (list)."""
    if not isinstance(value, kind):
        raise InstanceFormatError(f"{field} must be a JSON {'object' if kind is dict else 'array'}")
    return value


# ----------------------------------------------------------------------
# smooth-map families


def _poly_output(n: int, out: dict, label: str) -> tuple[float, np.ndarray, np.ndarray | None]:
    """(const, linear, symmetrized quadratic) of one polynomial output; the
    quadratic is None for an affine output, one with no "quadratic" or one
    whose symmetrized quadratic is 0, after the same validation."""
    _expect(out, dict, label)
    c = float(_finite(out.get("const", 0.0), f"{label}: const"))
    a = _vector(out.get("linear", np.zeros(n)), f"{label}: linear part")
    if a.size != n:
        raise DimensionError(f"{label}: linear part has {a.size} entries, expected n={n}")
    if "quadratic" not in out:
        return c, a, None
    Q = _finite(out["quadratic"], f"{label}: quadratic part")
    if Q.shape != (n, n):
        raise DimensionError(
            f"{label}: quadratic part has shape {Q.shape}, expected ({n}, {n})")
    Q = 0.5 * (Q + Q.T)
    return c, a, Q if Q.any() else None


def _poly_smooth_map(n: int, outputs: list[dict]) -> SmoothMap:
    """The map of the outputs.  Only the curved outputs, those with a
    nonzero quadratic, keep an n x n matrix and take a product in the value,
    Jacobian and weighted Hessian; an affine output's quadratic term is the
    +0.0 that its zero matrix gave, so every entry has the bits of the
    dense per-output formulas c + a.x + x.Q.x / 2, a + Q x and
    sum_i mu_i Q_i."""
    parts = [_poly_output(n, out, f"output {k}") for k, out in enumerate(outputs)]
    curved = np.array([k for k, (_, _, Q) in enumerate(parts) if Q is not None], dtype=int)
    quads = [parts[k][2] for k in curved]
    m = len(outputs)
    A = np.array([a for _, a, _ in parts])
    c0 = np.array([c for c, _, _ in parts])

    def value(x):
        x = np.asarray(x, dtype=float)
        half = np.zeros(m)
        half[curved] = [x @ Q @ x for Q in quads]
        return c0 + A @ x + 0.5 * half

    def jac(x):
        x = np.asarray(x, dtype=float)
        Qx = np.zeros((m, n))
        for k, Q in zip(curved, quads):
            Qx[k] = Q @ x
        return A + Qx

    def whess(x, mu):
        H = np.zeros((n, n))
        for mi, Q in zip(np.asarray(mu, dtype=float)[curved], quads):
            if mi != 0.0:
                H = H + mi * Q
        return H

    return SmoothMap(n=n, m=m, eval=value, jacobian=jac, weighted_hessian_fn=whess)


def _affine_pencil_smooth_map(n: int, params: dict) -> SmoothMap:
    """Scalar objective output followed by svec of an affine matrix pencil."""
    c, a, Q = _poly_output(n, params["objective"], "objective")
    if Q is None:
        Q = np.zeros((n, n))
    M0 = _finite(params["pencil_const"], "pencil_const")
    if M0.ndim != 2 or M0.shape[0] != M0.shape[1]:
        raise InstanceFormatError(f"pencil_const must be a square matrix, got shape {M0.shape}")
    Ms = [_finite(M, f"pencil_coeff[{k}]")
          for k, M in enumerate(_expect(params["pencil_coeff"], list, "pencil_coeff"))]
    if len(Ms) != n:
        raise DimensionError(
            f"pencil has {len(Ms)} coefficient matrices, expected n={n}")
    order = M0.shape[0]
    for k, M in enumerate([M0] + Ms):
        if M.shape != (order, order) or np.max(np.abs(M - M.T)) > 1e-12:
            raise InstanceFormatError(f"pencil matrix {k} is not symmetric {order}x{order}")
    svec_cols = np.array([svec(M) for M in Ms]).T
    m = 1 + order * (order + 1) // 2

    def value(x):
        x = np.asarray(x, dtype=float)
        top = c + a @ x + 0.5 * x @ Q @ x
        S = M0 + sum(xi * Mi for xi, Mi in zip(x, Ms))
        return np.concatenate([[top], svec(S)])

    def jac(x):
        x = np.asarray(x, dtype=float)
        J = np.zeros((m, n))
        J[0] = a + Q @ x
        J[1:] = svec_cols
        return J

    def whess(x, mu):
        return float(np.asarray(mu, dtype=float)[0]) * Q

    return SmoothMap(n=n, m=m, eval=value, jacobian=jac, weighted_hessian_fn=whess)


BUILTIN_MAPS = {
    "affine_pencil": _affine_pencil_smooth_map,
}


# ----------------------------------------------------------------------
# piece parsing


def parse_piece(spec: dict) -> ConvexPiece:
    """Build a piece from its spec; ``piece.spec()`` is the inverse."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InstanceFormatError(f"piece spec must be an object with a 'kind': {spec!r}")
    kind = spec["kind"]
    cls = PIECE_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise InstanceFormatError(f"unknown piece kind {kind!r}")
    try:
        return cls.from_spec(spec, parse_piece)
    except KeyError as exc:
        raise InstanceFormatError(
            f"piece {kind!r} is missing required key {exc.args[0]!r}") from None
    except InstanceFormatError:
        raise  # an inner piece's error already names that piece
    except (TypeError, ValueError) as exc:
        fields = {k: v for k, v in spec.items() if k != "kind"}
        raise InstanceFormatError(
            f"piece {kind!r} has an invalid value in {fields}: {exc}") from None


# ----------------------------------------------------------------------
# loading


def _parse_point(problem: CompositeProblem, data: dict, label: str) -> KKTPoint:
    try:
        x = _vector(data["x"], f"{label}: x")
        mu = _vector(data["mu"], f"{label}: mu")
    except (KeyError, TypeError) as exc:
        raise InstanceFormatError(f"{label}: expected fields 'x' and 'mu'") from exc
    if x.size != problem.n or mu.size != problem.m:
        raise DimensionError(
            f"{label}: dims ({x.size}, {mu.size}) do not match "
            f"(n, m)=({problem.n}, {problem.m})")
    return KKTPoint(x, mu)


def instance_from_dict(data: dict) -> tuple[CompositeProblem, InstanceMeta]:
    _expect(data, dict, "the instance")
    for key in ("name", "n", "F", "g"):
        if key not in data:
            raise InstanceFormatError(f"missing required field {key!r}")
    try:
        n = _size(data, "n")
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from None
    fspec = _expect(data["F"], dict, "field 'F'")
    if "polynomial" in fspec:
        F = _poly_smooth_map(n, _expect(fspec["polynomial"], list, "field 'F': polynomial"))
    elif "builtin" in fspec:
        builtin = _expect(fspec["builtin"], dict, "field 'F': builtin")
        ident = builtin.get("id")
        if ident not in BUILTIN_MAPS:
            raise InstanceFormatError(f"unknown builtin map id {ident!r}")
        params = _expect(builtin.get("params", {}), dict, "field 'F': builtin params")
        try:
            F = BUILTIN_MAPS[ident](n, params)
        except KeyError as exc:
            raise InstanceFormatError(
                f"builtin map {ident!r} is missing required key {exc.args[0]!r}") from None
    else:
        raise InstanceFormatError("field 'F' needs 'polynomial' or 'builtin'")
    pieces = [parse_piece(s) for s in _expect(data["g"], list, "field 'g'")]
    problem = CompositeProblem(F, pieces, name=str(data["name"]))
    known = None
    if data.get("known_solution") is not None:
        known = _parse_point(problem, data["known_solution"], "known_solution")
        rep = kkt_check(problem, known, tol=1e-8)
        if not rep.ok:
            raise InstanceFormatError(
                f"known_solution fails the KKT check at 1e-08 "
                f"(stationarity {rep.stationarity_norm:.3e}, "
                f"fixed point {rep.fixed_point_norm:.3e})")
    start = None
    if data.get("start") is not None:
        start = _parse_point(problem, data["start"], "start")
    return problem, InstanceMeta(name=str(data["name"]), known_solution=known,
                                 start=start)


def load_instance(path) -> tuple[CompositeProblem, InstanceMeta]:
    """Load and validate an instance file; all invariants are checked
    eagerly so later stages can trust the problem data."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InstanceFormatError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    try:
        return instance_from_dict(data)
    except (InstanceFormatError, DimensionError, ValueError) as exc:
        exc.args = (f"{path}: {exc}",)
        raise


# ----------------------------------------------------------------------
# shipped battery

BATTERY_NAMES = ("nlp_toy", "sdp_toy", "sdp_degenerate", "l1_toy", "smooth_toy")


def battery_path(name: str):
    if name not in BATTERY_NAMES:
        raise KeyError(f"unknown battery instance {name!r}; "
                       f"choose from {BATTERY_NAMES}")
    return resources.files("kktstab").joinpath("battery", f"{name}.json")


def load_battery(name: str) -> tuple[CompositeProblem, InstanceMeta]:
    with resources.as_file(battery_path(name)) as p:
        return load_instance(p)
