"""Damped semismooth Newton method on nonsmooth residual maps.

The driver works on any residual/element pair; the KKT front end in
:mod:`kktstab.problem` supplies the composite-problem specifics.  The
element callback returns a dense matrix or an element with the operations
of :class:`DenseElement`, which screens its own Newton step (by LU on the
dense matrix here, on a reduced system for a KKT element kept in its
blocks' frames) and bounds the element's least singular value from above
through a solve against a fixed unit probe vector (in the frames'
coordinates for a framed element); only an element whose bound is small,
or that follows a singular one, gets an exact svd of its dense matrix,
which only then is formed for a framed element, and a singular one takes
a ridge-regularized least-squares step.  Steps are globalized by Armijo
backtracking on half the squared residual norm: the step lengths 1, f,
f**2, ... are tried in order, one residual call each, and the first that
passes is taken.  The driver keeps nothing from one iteration to the next
but the iterate, its residual and the previous element's sigma_min.
"""

from __future__ import annotations

import functools
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


RIDGE_SV = 1e-10  # an element with sigma_min below this takes a ridge step
SCREEN_SV = 1e-6  # an element whose bound on sigma_min falls below this gets an svd


@functools.cache
def _probe_vector(n: int) -> np.ndarray:
    """The fixed unit probe vector of dimension n."""
    g = np.random.default_rng(0).standard_normal(n)
    g /= np.sqrt(np.dot(g, g))
    g.flags.writeable = False
    return g


class DenseElement:
    """A generalized-derivative element as the driver uses it, here a dense
    matrix.  An element kept in another form (``problem.FramedElement``)
    supplies the same three operations: ``step`` (the Newton step and an
    upper bound on sigma_min), ``dense`` (the matrix, for the svd and the
    ridge step) and ``apply`` (the element times a vector)."""

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix

    def step(self, r: np.ndarray, rr: float,
             probe: Callable[[int], np.ndarray]) -> tuple[np.ndarray, float]:
        """The LU step ``E s = -r`` and the bound ``min(|r| / |s|,
        1 / |E^-1 g|)`` on sigma_min(E) (Dixon 1983) from one solve against
        ``[-r | g]``, g = ``probe(N)`` and ``rr = r . r``; a NaN step and
        bound where the solve raises."""
        try:
            X = np.linalg.solve(self.matrix, np.stack([-r, probe(r.size)], axis=1))
        except np.linalg.LinAlgError:
            return np.full(r.size, np.nan), np.nan
        s, y = X.T.copy()
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return s, float(np.minimum(np.sqrt(rr / np.dot(s, s)), 1.0 / np.sqrt(np.dot(y, y))))

    def dense(self) -> np.ndarray:
        return self.matrix

    def apply(self, s: np.ndarray) -> np.ndarray:
        return self.matrix @ s


def _newton_step(E, r: np.ndarray, rr: float, floor: float,
                 was_singular: bool) -> tuple[np.ndarray, float]:
    """The Newton step ``E s = -r``, screened for a near singular element.

    ``E.step`` screens the element, except after a singular one
    (``was_singular``), which goes straight to the svd.  A bound below
    SCREEN_SV (which includes a solve that raised or is not finite) gets
    the exact sigma_min of the dense element: below RIDGE_SV the step is
    the ridge-regularized least-squares one, else the screened step, solved
    again by LU only if that raised, is not finite or was skipped.  An svd
    that raises ends the solve.  Returns the step and the exact sigma_min
    where the svd ran, the bound elsewhere (so always exact below
    SCREEN_SV).
    """
    if was_singular:  # a bound of 0 sends the element to the svd
        s, bound = np.full(r.size, np.nan), 0.0
    else:
        s, bound = E.step(r, rr, _probe_vector)
    if bound >= SCREEN_SV:  # a non-finite step makes the bound 0 or NaN
        return s, bound
    M = E.dense()
    sv = np.linalg.svd(M, compute_uv=False)
    bound = float(sv[-1])
    if bound < RIDGE_SV:
        # ridge-regularized least squares keeps the iteration alive in
        # degenerate regions; the analyzer reports the degeneracy itself
        tau = max(floor, 1e-10 * float(sv[0]))
        s = np.linalg.solve(M.T @ M + tau * np.eye(r.size), -M.T @ r)
    elif not np.isfinite(s).all():
        s = np.linalg.solve(M, -r)
    return s, bound


def semismooth_solve(residual: Callable, element: Callable, z0: np.ndarray,
                     opts: NewtonOptions | None = None) -> tuple[np.ndarray, NewtonTrace]:
    """Drive z to a zero of the residual map.

    Parameters
    ----------
    residual : callable
        Maps a point to the residual vector.
    element : callable
        Maps a point to one generalized-derivative element of the
        residual: a dense matrix, or an object with the operations of
        :class:`DenseElement`.  It is called only at the point of the last
        residual call.
    z0 : ndarray
        Finite starting point.

    Each iteration makes one element call and one screen of the element
    (for a dense matrix, one LU solve of the step and of a fixed probe
    vector); only an element whose bound on sigma_min falls below
    SCREEN_SV, or that follows a singular one, gets an svd (see
    :func:`_newton_step`).  The line search backtracks on half the squared
    residual norm over the step lengths 1, f, f**2, ...
    (``alpha *= backtrack_factor``, cut at ``min_step``), one trial point
    per residual call, and takes the first that passes the Armijo test.
    One that passes without lowering the merit ends the solve as a
    stagnation.  A trace's ``element_min_sv`` holds, per iteration, the
    exact sigma_min of the element where the svd ran and the upper bound
    elsewhere.

    Raises NewtonNonConvergence, NewtonStagnation, a LinAlgError, an error
    from a callback, or a ValueError for a start that is not finite, whose
    residual is not finite or whose squared residual norm overflows.
    """
    opts = opts or NewtonOptions()
    z = np.array(z0, dtype=float)
    if not np.isfinite(z).all():
        raise ValueError("starting point must be finite")
    trace = NewtonTrace()
    # a start whose residual, or its squared norm, is not finite leaves no
    # merit to descend on: it ends at once, without numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        r = residual(z)
        rr = np.dot(r, r)
    if not np.isfinite(rr):
        raise ValueError("squared residual norm at the starting point overflows"
                         if np.isfinite(r).all()
                         else "residual at the starting point is not finite")
    rnorm = float(np.abs(r).max())
    trace.residual_norms.append(rnorm)
    min_sv = np.inf  # of the previous element

    for _ in range(opts.max_iter):
        if rnorm <= opts.tol:
            break
        E = element(z)
        if not hasattr(E, "step"):
            E = DenseElement(np.asarray(E, dtype=float))
        s, min_sv = _newton_step(E, r, rr, opts.regularization_floor, min_sv < RIDGE_SV)
        merit = 0.5 * rr
        slope = np.dot(E.apply(s), r)  # derivative of the merit along s
        if slope >= 0.0:
            slope = -2.0 * merit
        alpha = 1.0
        while True:
            z_new = z + alpha * s
            r_new = residual(z_new)
            rr_new = np.dot(r_new, r_new)
            if 0.5 * rr_new <= merit + opts.armijo_c * alpha * slope:
                break
            alpha *= opts.backtrack_factor
            if alpha < opts.min_step:
                trace.status = "stagnated"
                raise NewtonStagnation(f"line search collapsed at residual {rnorm:.3e}", trace)
        if not 0.5 * rr_new < merit:  # an Armijo term that rounds to 0
            trace.status = "stagnated"
            raise NewtonStagnation(f"step does not lower the merit at residual {rnorm:.3e}", trace)
        z, r, rr = z_new, r_new, rr_new
        rnorm = float(np.abs(r).max())
        trace.residual_norms.append(rnorm)
        trace.step_lengths.append(alpha)
        trace.element_min_sv.append(float(min_sv))

    if rnorm <= opts.tol:
        trace.status = "converged"
        return z, trace
    trace.status = "max_iter"
    raise NewtonNonConvergence(
        f"no convergence in {opts.max_iter} iterations, residual {rnorm:.3e}", trace)


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
