"""Damped semismooth Newton method on nonsmooth residual maps.

The driver works on any residual/element pair; the KKT front end in
:mod:`kktstab.problem` supplies the composite-problem specifics.  Steps
solve the element system by least squares with a ridge fallback when the
element is near singular, and are globalized by Armijo backtracking on
half the squared residual norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class NewtonOptions:
    tol: float = 1e-10
    max_iter: int = 100
    armijo_c: float = 1e-4
    backtrack_factor: float = 0.5
    min_step: float = 1e-12
    regularization_floor: float = 1e-12

    def __post_init__(self):
        for name in ("tol", "armijo_c", "min_step", "regularization_floor"):
            check_positive(name, getattr(self, name))
        if isinstance(self.backtrack_factor, bool) or not 0.0 < self.backtrack_factor < 1.0:
            raise ValueError(
                f"backtrack_factor must lie in (0, 1), got {self.backtrack_factor!r}")
        check_integer("max_iter", self.max_iter, 1)


def check_positive(name: str, value: float) -> None:
    """Raise ValueError naming ``name`` unless value is a finite positive number."""
    if isinstance(value, bool) or not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")


def check_integer(name: str, value: int, least: int) -> None:
    """Raise ValueError naming ``name`` unless value is an integer (not a
    bool) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


@dataclass
class NewtonTrace:
    residual_norms: list[float] = field(default_factory=list)
    step_lengths: list[float] = field(default_factory=list)
    element_min_sv: list[float] = field(default_factory=list)
    status: str = "running"

    @property
    def iterations(self) -> int:
        return len(self.step_lengths)


class NewtonError(RuntimeError):
    def __init__(self, message: str, trace: NewtonTrace):
        super().__init__(message)
        self.trace = trace


class NewtonNonConvergence(NewtonError):
    """Iteration limit reached before the residual target."""


class NewtonStagnation(NewtonError):
    """Line search collapsed below the minimal step length."""


class InsufficientTraceError(ValueError):
    """The trace is too short for rate classification."""


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each pair of rows, with the bits of np.dot on one pair."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _each_row(fn: Callable, *stacks: np.ndarray) -> tuple[np.ndarray | None, dict[int, Exception]]:
    """fn on whole stacks, or on each row alone when that raises.

    Returns the stacked results of the rows that did not raise and the
    exception of each row that did, by position.  A stacked LAPACK call or
    callback fails as a whole when one row fails; redone row by row, the
    error stays with the row that causes it.
    """
    try:
        return fn(*stacks), {}
    except Exception as exc:  # kept as the outcome of the row that raised it
        if len(stacks[0]) == 1:
            return None, {0: exc}
    outs, errors = [], {}
    for i in range(len(stacks[0])):
        try:
            outs.append(fn(*(s[i:i + 1] for s in stacks)))
        except Exception as exc:
            errors[i] = exc
    return (np.concatenate(outs) if outs else None), errors


def semismooth_solve_rows(residual: Callable[[np.ndarray, np.ndarray], np.ndarray],
                          element: Callable[[np.ndarray, np.ndarray], np.ndarray],
                          Z0: np.ndarray,
                          opts: NewtonOptions | None = None) -> list:
    """Run one semismooth Newton iteration per row of Z0, in lock-step.

    Parameters
    ----------
    residual : callable
        ``residual(Z, rows)`` maps a stack of points (k, N) to their
        residuals (k, N); ``rows`` holds the index into Z0 of each row.
    element : callable
        ``element(Z, rows)`` maps a stack of points to one
        generalized-derivative matrix per row, (k, N, N).
    Z0 : ndarray
        Starting points, one per row.

    Returns one entry per row: ``(z, trace)`` for a converged row, else the
    exception that ended it, as ``semismooth_solve`` raises it for that
    row alone (NewtonNonConvergence, NewtonStagnation, a LinAlgError or an
    error from a callback).  Every row takes the steps, the line-search
    trials and the arithmetic of its own solve, bit for bit; each
    iteration makes one element call, one svd and one solve for the rows
    still running, and each line-search round one residual call for the
    rows still searching.
    """
    opts = opts or NewtonOptions()
    Z = np.array(Z0, dtype=float, ndmin=2)
    outcomes: list = [None] * len(Z)
    traces = [NewtonTrace() for _ in Z]
    finite = np.isfinite(Z).all(axis=1)
    for i in (~finite).nonzero()[0]:
        outcomes[i] = ValueError("starting point must be finite")
    act = finite.nonzero()[0]
    R = np.zeros_like(Z)
    rnorm = np.zeros(len(Z))

    def drop(errors: dict[int, Exception], rows: np.ndarray,
             *arrays: np.ndarray) -> list[np.ndarray]:
        """End rows[pos] with its exception for each pos in errors; return
        the arrays without those positions."""
        if not errors:
            return list(arrays)
        keep = np.ones(len(rows), dtype=bool)
        for pos, exc in errors.items():
            outcomes[rows[pos]] = exc
            keep[pos] = False
        return [a[keep] for a in arrays]

    R_act, errors = _each_row(residual, Z[act], act)
    act, = drop(errors, act, act)
    if act.size:
        R[act] = R_act
        rnorm[act] = np.max(np.abs(R_act), axis=1)
    for i in act:
        traces[i].residual_norms.append(float(rnorm[i]))

    for _ in range(opts.max_iter):
        done = rnorm[act] <= opts.tol
        if done.any():
            for i in act[done]:
                traces[i].status = "converged"
                outcomes[i] = (Z[i].copy(), traces[i])
            act = act[~done]
        if not act.size:
            break
        E, errors = _each_row(element, Z[act], act)
        act, = drop(errors, act, act)
        if not act.size:
            break
        svals, errors = _each_row(lambda M: np.linalg.svd(M, compute_uv=False), E)
        act, E = drop(errors, act, act, E)
        if not act.size:
            break
        r = R[act]
        min_sv = svals[:, -1]
        ridge = (min_sv < 1e-10).nonzero()[0]
        A, b = (E.copy() if ridge.size else E), -r
        for j in ridge:
            # ridge-regularized least squares keeps the iteration alive in
            # degenerate regions; the analyzer reports the degeneracy itself
            tau = max(opts.regularization_floor, 1e-10 * float(svals[j, 0]))
            A[j] = E[j].T @ E[j] + tau * np.eye(E.shape[2])
            b[j] = -E[j].T @ r[j]
        S, errors = _each_row(lambda M, v: np.linalg.solve(M, v[..., None])[..., 0], A, b)
        act, E, r, min_sv = drop(errors, act, act, E, r, min_sv)
        if not act.size:
            break
        merit = 0.5 * _rowdot(r, r)
        slope = _rowdot((E @ S[..., None])[..., 0], r)  # derivative of the merit along s
        slope = np.where(slope >= 0.0, -2.0 * merit, slope)

        # backtracking in rounds over the rows still searching
        alpha = np.ones(act.size)
        search = np.arange(act.size)
        moved = np.zeros(act.size, dtype=bool)
        while search.size:
            rows = act[search]
            Z_new = Z[rows] + alpha[search, None] * S[search]
            R_new, errors = _each_row(residual, Z_new, rows)
            search, rows, Z_new = drop(errors, rows, search, rows, Z_new)
            if not search.size:
                break
            merit_new = 0.5 * _rowdot(R_new, R_new)
            ok = merit_new <= merit[search] + opts.armijo_c * alpha[search] * slope[search]
            if ok.all():
                Z[rows], R[rows] = Z_new, R_new
                moved[search] = True
                break
            rows = rows[ok]
            Z[rows], R[rows] = Z_new[ok], R_new[ok]
            moved[search[ok]] = True
            search = search[~ok]
            alpha[search] *= opts.backtrack_factor
            short = alpha[search] < opts.min_step
            for j in search[short]:
                i = act[j]
                traces[i].status = "stagnated"
                outcomes[i] = NewtonStagnation(
                    f"line search collapsed at residual {rnorm[i]:.3e}", traces[i])
            search = search[~short]
        act_moved = act[moved]
        rnorm[act_moved] = np.max(np.abs(R[act_moved]), axis=1)
        for j in moved.nonzero()[0]:
            i = act[j]
            traces[i].residual_norms.append(float(rnorm[i]))
            traces[i].step_lengths.append(float(alpha[j]))
            traces[i].element_min_sv.append(float(min_sv[j]))
        act = act_moved

    for i in act:
        if rnorm[i] <= opts.tol:
            traces[i].status = "converged"
            outcomes[i] = (Z[i].copy(), traces[i])
        else:
            traces[i].status = "max_iter"
            outcomes[i] = NewtonNonConvergence(
                f"no convergence in {opts.max_iter} iterations, residual {rnorm[i]:.3e}",
                traces[i])
    return outcomes


def semismooth_solve(residual: Callable[[np.ndarray], np.ndarray],
                     element: Callable[[np.ndarray], np.ndarray],
                     z0: np.ndarray,
                     opts: NewtonOptions | None = None) -> tuple[np.ndarray, NewtonTrace]:
    """Drive z to a zero of the residual map.

    Parameters
    ----------
    residual : callable
        Maps a point to the residual vector.
    element : callable
        Maps a point to one generalized-derivative matrix of the residual.
    z0 : ndarray
        Finite starting point.

    This is the one-row case of :func:`semismooth_solve_rows`.
    """
    outcome, = semismooth_solve_rows(lambda Z, rows: np.asarray(residual(Z[0]))[None],
                                     lambda Z, rows: np.asarray(element(Z[0]))[None],
                                     np.asarray(z0, dtype=float)[None], opts)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


NOISE_FLOOR = 1e-14


def local_rate(trace: NewtonTrace) -> str:
    """Classify the tail convergence rate of a converged trace.

    Returns one of 'quadratic', 'superlinear', 'linear', 'none'.  The
    quadratic verdict requires log e_{k+1} / log e_k >= 1.8 on the last
    comparable pairs above the noise floor; residuals that drop straight
    below the floor terminate the comparable tail (finite termination is
    faster than any measurable rate, not evidence against one).
    """
    if trace.status != "converged" or trace.iterations < 2:
        raise InsufficientTraceError(
            "rate classification needs a converged trace with at least 2 iterations")
    e = [max(v, 0.0) for v in trace.residual_norms]
    # comparable pairs: the log ratio is meaningful (e_k safely below 1),
    # or the residual fell straight below the noise floor, which is faster
    # than any measurable rate and scores as +inf
    ratios = []
    for a, b in zip(e, e[1:]):
        if a <= NOISE_FLOOR:
            continue
        if b <= NOISE_FLOOR:
            ratios.append(np.inf)
        elif a < 0.5:
            ratios.append(np.log(b) / np.log(a))
    tail = ratios[-3:]
    if tail:
        if min(tail) >= 1.8:
            return "quadratic"
        if min(tail) >= 1.1:
            return "superlinear"
    lin_pairs = [(a, b) for a, b in zip(e, e[1:]) if a > NOISE_FLOOR]
    if len(lin_pairs) >= 2 and all(b <= 0.9 * a for a, b in lin_pairs[-3:]):
        return "linear"
    return "none"
