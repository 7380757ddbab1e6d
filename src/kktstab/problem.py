"""Composite problems min g(F(x)) and their nonsmooth KKT machinery.

The residual map stacks dual stationarity with the prox fixed-point gap of
the conjugate block function.  Generalized-derivative elements follow the
convention [[H, J^T], [(I-U) J, -U]]: the second row block carries the
opposite sign of the literal derivative of the residual's second block,
which leaves singular values and nonsingularity untouched.  The Newton
front ends therefore iterate on the sign-adjusted residual whose elements
these matrices are.  ``solve`` keeps its canonical elements in their
blocks' Clarke frames (``FramedElement``) and takes each Newton step from
a symmetric system of order n + |S|; ``solve_linearized_ge`` uses the
dense matrices.  ``solve`` evaluates each iterate once: the residual
call that accepts a point also gives its Jacobian and its PSD blocks'
frames, from which, with the separable blocks' frames at that point, the
element is built.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .newton import NewtonOptions, NewtonTrace, check_integer, semismooth_solve
from .pieces import BlockGroups, ClarkeFrame, ConvexPiece, LinearOperatorElement

FD_HESS_STEP = 1e-5


class DimensionError(ValueError):
    pass


@dataclass
class SmoothMap:
    """Smooth map with value, Jacobian and the weighted Hessian form.

    ``weighted_hessian(x, mu)`` returns sum_i mu_i * Hess F_i(x); when the
    callback is omitted it falls back to central finite differences of
    x -> J(x)^T mu.
    """

    n: int
    m: int
    eval: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    weighted_hessian_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def weighted_hessian(self, x: np.ndarray, mu: np.ndarray) -> np.ndarray:
        if self.weighted_hessian_fn is not None:
            H = np.asarray(self.weighted_hessian_fn(x, mu), dtype=float)
        else:
            x = np.asarray(x, dtype=float)
            h = FD_HESS_STEP * (1.0 + float(np.linalg.norm(x)))
            H = np.empty((self.n, self.n))
            for j in range(self.n):
                e = np.zeros(self.n)
                e[j] = h
                gp = np.asarray(self.jacobian(x + e)).T @ mu
                gm = np.asarray(self.jacobian(x - e)).T @ mu
                H[:, j] = (gp - gm) / (2.0 * h)
        return 0.5 * (H + H.T)


class CompositeProblem:
    """A smooth map composed with a block-separable convex function."""

    def __init__(self, F: SmoothMap, pieces: list[ConvexPiece], name: str = ""):
        if not pieces:
            raise ValueError("at least one block is required")
        total = sum(p.dim for p in pieces)
        if total != F.m:
            raise DimensionError(
                f"block dims sum to {total} but the smooth map has m={F.m}")
        self.F = F
        self.pieces = list(pieces)
        self.name = name
        self.offsets = np.cumsum([0] + [p.dim for p in pieces])

    @functools.cached_property
    def block_groups(self) -> BlockGroups:
        """The blocks grouped by kind for every blockwise map, built on first use."""
        return BlockGroups(self.pieces, self.offsets)

    @property
    def n(self) -> int:
        return self.F.n

    @property
    def m(self) -> int:
        return self.F.m

    def blocks(self, y: np.ndarray) -> list[np.ndarray]:
        """The per-piece slices of y along its last axis."""
        y = np.asarray(y, dtype=float)
        return [y[..., self.offsets[i]:self.offsets[i + 1]] for i in range(len(self.pieces))]

    def prox_g(self, w: np.ndarray, sigma: float = 1.0) -> np.ndarray:
        """Blockwise prox of w, or of each row of a stack (..., m), with the
        bits of each block's ``prox``: one call per group of separable
        blocks of one kind (``block_groups``)."""
        return self.block_groups.prox(w, sigma)

    def prox_gstar(self, w: np.ndarray, sigma: float = 1.0) -> np.ndarray:
        """Blockwise prox of the conjugate of w, or of each row of a stack
        (..., m), with the bits of each block's ``prox_conjugate``: one call
        per group of separable blocks of one kind (``block_groups``)."""
        return self.block_groups.prox_conjugate(w, sigma)

    def prox_gstar_frames(self, w: np.ndarray) -> tuple[np.ndarray, list[ClarkeFrame | None]]:
        """``prox_gstar(w)``, with its bits, and the Clarke frame of each
        block's prox at w, or None where the block's kind gives none, from
        one ``prox_and_frame`` call per block; w is a point or a stack
        (..., m)."""
        wblocks = self.blocks(w)
        parts = [p.prox_and_frame(wb) for p, wb in zip(self.pieces, wblocks)]
        # the Moreau identity of ConvexPiece.prox_conjugate at sigma = 1
        return (np.concatenate([wb - prox for wb, (prox, _) in zip(wblocks, parts)], axis=-1),
                [frame for _, frame in parts])


@dataclass(frozen=True)
class KKTPoint:
    x: np.ndarray
    mu: np.ndarray

    def stacked(self) -> np.ndarray:
        return np.concatenate([np.atleast_1d(np.asarray(self.x, dtype=float)),
                               np.atleast_1d(np.asarray(self.mu, dtype=float))])


def as_point(problem: CompositeProblem, z) -> KKTPoint:
    if isinstance(z, KKTPoint):
        x = np.atleast_1d(np.asarray(z.x, dtype=float))
        mu = np.atleast_1d(np.asarray(z.mu, dtype=float))
    else:
        z = np.asarray(z, dtype=float)
        if z.size != problem.n + problem.m:
            raise DimensionError(
                f"point has {z.size} entries, expected n+m={problem.n + problem.m}")
        x, mu = z[:problem.n], z[problem.n:]
    if x.size != problem.n or mu.size != problem.m:
        raise DimensionError(
            f"point dims ({x.size}, {mu.size}) do not match (n, m)=({problem.n}, {problem.m})")
    return KKTPoint(x, mu)


def _smooth_parts(problem: CompositeProblem, z) -> tuple:
    """J(x), J(x)^T mu, w = F(x) + mu and mu of a point; of a stack (k, n+m),
    the list of the rows' Jacobians and the other three stacked."""
    def parts(pt: KKTPoint) -> tuple[np.ndarray, ...]:
        J = np.atleast_2d(np.asarray(problem.F.jacobian(pt.x), dtype=float))
        return J, J.T @ pt.mu, np.asarray(problem.F.eval(pt.x), dtype=float) + pt.mu, pt.mu

    if isinstance(z, KKTPoint) or np.ndim(z) < 2:
        return parts(as_point(problem, z))
    J, *rest = zip(*(parts(as_point(problem, row)) for row in np.asarray(z, dtype=float)))
    return (list(J), *map(np.array, rest))


def residual(problem: CompositeProblem, z) -> np.ndarray:
    """Stacked KKT residual (stationarity; mu - prox of conjugate at F(x)+mu)
    of a point, or of each row of a stack (k, n+m).

    F and its Jacobian run per point and the prox once for all of them;
    each row has the bits of its one-point call.
    """
    _, r1, w, mu = _smooth_parts(problem, z)
    return np.concatenate([r1, mu - problem.prox_gstar(w)], axis=-1)


def signed_residual(problem: CompositeProblem, z) -> np.ndarray:
    """Residual with the second block negated; its elements are the
    assembled matrices below."""
    r = residual(problem, z)
    out = r.copy()
    out[..., problem.n:] *= -1.0
    return out


def evaluate(problem: CompositeProblem, z) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                                    list[ClarkeFrame | None]]:
    """The signed residual of a point with its Jacobian, w = F(x) + mu and
    the blocks' frames there (see ``prox_gstar_frames``): F and J once and
    one ``prox_and_frame`` call per block.

    The residual has the bits of ``signed_residual``; the Jacobian, w and
    the frames have those of ``framed_element`` at the point.
    """
    J, r1, w, mu = _smooth_parts(problem, z)
    gstar, frames = problem.prox_gstar_frames(w)
    r = np.concatenate([r1, mu - gstar], axis=-1)
    r[..., problem.n:] *= -1.0
    return r, J, w, frames


@dataclass
class KKTReport:
    ok: bool
    tol: float
    stationarity_norm: float
    fixed_point_norm: float
    residual: np.ndarray = field(repr=False)


def kkt_check(problem: CompositeProblem, z, tol: float = 1e-8, *,
              parts: tuple[np.ndarray, np.ndarray] | None = None,
              prox: np.ndarray | None = None) -> KKTReport:
    """The KKT test of a point at tol, in the max-norm of each residual
    block.  ``parts`` = (J(x), F(x)) and ``prox``, the m-vector
    ``prox_g(w)`` at w = F(x) + mu, are the caller's where it already
    holds them, as an analysis point does for its x; the report has the
    bits of the call without them."""
    pt = as_point(problem, z)
    J, Fx = parts or (np.atleast_2d(np.asarray(problem.F.jacobian(pt.x), dtype=float)),
                      np.asarray(problem.F.eval(pt.x), dtype=float))
    w = Fx + pt.mu
    # prox_gstar(w), by the Moreau identity of ConvexPiece.prox_conjugate at sigma = 1
    gstar = w - (problem.prox_g(w) if prox is None else prox)
    r = np.concatenate([J.T @ pt.mu, pt.mu - gstar])
    r1 = r[:problem.n]
    r2 = r[problem.n:]
    s = float(np.linalg.norm(r1, np.inf)) if r1.size else 0.0
    f = float(np.linalg.norm(r2, np.inf)) if r2.size else 0.0
    return KKTReport(ok=max(s, f) <= tol, tol=tol, stationarity_norm=s,
                     fixed_point_norm=f, residual=r)


@dataclass
class JacobianElementR:
    """One generalized-derivative element of the KKT residual map."""

    matrix: np.ndarray
    provenance: tuple[str, ...] = ()

    def min_singular_value(self) -> float:
        return float(np.linalg.svd(self.matrix, compute_uv=False)[-1])


def _element_matrix(problem: CompositeProblem, H: np.ndarray, J: np.ndarray,
                    prox_elements: list[LinearOperatorElement]) -> np.ndarray:
    """[[H, J^T], [(I-U) J, -U]] with U block diagonal over the prox elements;
    a stack (k, N, N) when the prox elements are stacks of k matrices."""
    if len(prox_elements) != len(problem.pieces):
        raise DimensionError(
            f"got {len(prox_elements)} prox elements for {len(problem.pieces)} blocks")
    n, m = problem.n, problem.m
    stack = prox_elements[0].matrix.shape[:-2]
    U = np.zeros(stack + (m, m))
    for i, el in enumerate(prox_elements):
        lo, hi = problem.offsets[i], problem.offsets[i + 1]
        if el.matrix.shape != stack + (hi - lo, hi - lo):
            raise DimensionError(
                f"block {i} element has shape {el.matrix.shape}, expected "
                f"{stack + (hi - lo, hi - lo)}")
        U[..., lo:hi, lo:hi] = el.matrix
    E = np.zeros(stack + (n + m, n + m))
    E[..., :n, :n] = H
    E[..., :n, n:] = J.T
    # in place, so a stack holds no extra (k, m, m) temporaries
    np.negative(U, out=E[..., n:, n:])
    np.subtract(np.eye(m), U, out=U)
    E[..., n:, :n] = U @ J
    return E


def _canonical_prox_elements(problem: CompositeProblem,
                             w: np.ndarray) -> list[LinearOperatorElement]:
    return [p.clarke_element(wb) for p, wb in zip(problem.pieces, problem.blocks(w))]


def assemble_element(problem: CompositeProblem, z,
                     prox_elements: list[LinearOperatorElement]) -> JacobianElementR:
    """Assemble [[H, J^T], [(I-U) J, -U]] from one prox element per block;
    a stack (k, N, N) with H and J computed once when the prox elements are
    stacks of k matrices."""
    pt = as_point(problem, z)
    H = problem.F.weighted_hessian(pt.x, pt.mu)
    J = np.atleast_2d(np.asarray(problem.F.jacobian(pt.x), dtype=float))
    return JacobianElementR(_element_matrix(problem, H, J, prox_elements),
                            tuple(el.provenance for el in prox_elements))


def canonical_element(problem: CompositeProblem, z) -> JacobianElementR:
    pt = as_point(problem, z)
    w = np.asarray(problem.F.eval(pt.x), dtype=float) + pt.mu
    return assemble_element(problem, pt, _canonical_prox_elements(problem, w))


class FramedElement:
    """One point's canonical element [[H, J^T], [(I-U) J, -U]] with
    U = Q diag(w) Q^T kept as the blocks' Clarke frames: Q is block
    diagonal and orthogonal, and the frame coordinates of J are
    ``J~ = Q^T J``, one ``P^T smat(J_col) P`` per column of a PSD block.

    It has the operations of ``newton.DenseElement``.  A Newton step
    solves the reduced matrix R of order n + |S| (see ``reduced``) and
    back-substitutes.  With the row scales ``Lam = 1 / (1 - w_S)`` and
    ``1 / w_L``, all in [1, 2], E in frame coordinates, with the S
    coordinates before the L ones, is

        diag(Lam)^-1 [[I, -Y], [0, I]] diag(R, -I) [[I, 0], [-Z, I]],

    ``Y = [J~_L^T; 0]`` and ``Z = [D_L J~_L, 0]``.  The outer factors are
    nonsingular, so R and E are singular together.  ``step`` solves R
    once against the step's column and a unit probe's, and reports the
    Dixon bound on sigma_min(E) itself.  An element whose bound falls
    below ``newton.SCREEN_SV`` is one the driver confirms by the svd of
    its dense matrix (``dense``), formed only then.  The driver never
    multiplies the element by a vector: the slope of a solved step is
    ``-r . r``, and a ridge step's comes from the dense matrix."""

    def __init__(self, problem: CompositeProblem, H: np.ndarray, J: np.ndarray,
                 frames: list[ClarkeFrame]):
        self.problem, self.H, self.J, self.frames = problem, H, J, frames
        self.w = np.concatenate([f.weight for f in frames])
        self.Jt = self.coords(J.T).T
        self.matrix = None  # the dense element, once formed

    def coords(self, V: np.ndarray) -> np.ndarray:
        """``Q^T v`` for each row v of V (..., m)."""
        return np.concatenate([f.coords(v) for f, v in zip(self.frames, self.problem.blocks(V))],
                              axis=-1)

    def vectors(self, W: np.ndarray) -> np.ndarray:
        """``Q w`` for each row w of W (..., m)."""
        return np.concatenate([f.vectors(v) for f, v in zip(self.frames, self.problem.blocks(W))],
                              axis=-1)

    def dense(self) -> np.ndarray:
        """The dense element, formed on the first call."""
        if self.matrix is None:
            self.matrix = _element_matrix(self.problem, self.H, self.J,
                                          [f.element() for f in self.frames])
        return self.matrix

    def reduced(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The reduced matrix R, the mask of the eliminated coordinates and
        their rows ``J~_L`` of J~.

        In frame coordinates a row with weight w reads
        ``(1 - w) (J~ dx)_i - w dmu~_i = -r~_i``.  A coordinate with w > 1/2
        (the set L) is eliminated, ``dmu~_i = ((1 - w)(J~ dx)_i + r~_i) / w``;
        one with w <= 1/2 (the set S) is kept, its row divided by 1 - w.
        That leaves the symmetric system of order n + |S|

            R = [[H + J~_L^T D_L J~_L, J~_S^T], [J~_S, -D_S]],

        ``D_L = (1 - w_L) / w_L`` and ``D_S = w_S / (1 - w_S)``, all in [0, 1].
        """
        n, w, Jt = self.problem.n, self.w, self.Jt
        big = w > 0.5
        JL, JS, wS = Jt[big], Jt[~big], w[~big]
        R = np.zeros((n + wS.size,) * 2)
        R[:n, :n] = self.H + JL.T @ (((1.0 - w[big]) / w[big])[:, None] * JL)
        R[:n, n:] = JS.T
        R[n:, :n] = JS
        R[n:, n:][np.diag_indices(wS.size)] = -wS / (1.0 - wS)
        return R, big, JL

    def step(self, r: np.ndarray, rr: float, probe) -> tuple[np.ndarray, float]:
        """The Newton step ``E s = -r`` through R, and the Dixon bound
        ``min(|r| / |s|, 1 / |E^-1 g|)`` on sigma_min(E), ``rr = r . r``.

        The unit probe g is ``probe(n + m)`` taken in frame coordinates (any
        unit vector gives a bound); its column is eliminated and
        back-substituted as the step's is, and its solution is measured in
        frame coordinates, where Q keeps norms.
        """
        n, w = self.problem.n, self.w
        R, big, JL = self.reduced()
        wL, wS = w[big], w[~big]
        rt, g = self.coords(r[n:]), probe(n + w.size)
        B = np.empty((len(R), 2))
        for col, (t1, t2) in enumerate(((r[:n], rt), (g[:n], g[n:]))):  # E y = -t
            B[:n, col] = -t1 - JL.T @ (t2[big] / wL)
            B[n:, col] = -t2[~big] / (1.0 - wS)
        try:
            y, v = np.linalg.solve(R, B).T
        except np.linalg.LinAlgError:
            return np.full(r.size, np.nan), np.nan
        dmu, vmu = np.empty(w.size), np.empty(w.size)
        for out, col, t2 in ((dmu, y, rt), (vmu, v, g[n:])):
            out[~big] = col[n:]
            out[big] = ((1.0 - wL) * (JL @ col[:n]) + t2[big]) / wL
        s = np.concatenate([y[:n], self.vectors(dmu)])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            b = np.minimum(np.sqrt(rr / np.dot(s, s)),
                           1.0 / np.sqrt(np.dot(v[:n], v[:n]) + np.dot(vmu, vmu)))
        return s, float(b)


def framed_element(problem: CompositeProblem, z) -> FramedElement:
    """The canonical element at z in its blocks' frames; its dense matrix
    has the bits of ``canonical_element(problem, z)``."""
    pt = as_point(problem, z)
    w = np.asarray(problem.F.eval(pt.x), dtype=float) + pt.mu
    J = np.atleast_2d(np.asarray(problem.F.jacobian(pt.x), dtype=float))
    frames = [p.clarke_frame(wb) for p, wb in zip(problem.pieces, problem.blocks(w))]
    return _framed(problem, pt, J, frames)


def _framed(problem: CompositeProblem, pt: KKTPoint, J: np.ndarray,
            frames: list[ClarkeFrame]) -> FramedElement:
    """The framed element at pt, given J(x) and the frames."""
    return FramedElement(problem, problem.F.weighted_hessian(pt.x, pt.mu), J, frames)


class SampledElements(list):
    """A list of JacobianElementR whose matrices are the rows of one stack
    (k, N, N), kept as ``matrices``."""

    def __init__(self, matrices: np.ndarray, provenances: list[tuple[str, ...]]):
        super().__init__(JacobianElementR(M, p) for M, p in zip(matrices, provenances))
        self.matrices = matrices


def sample_elements_R(problem: CompositeProblem, z, count: int,
                      seed: int) -> SampledElements:
    """Sampled elements of the residual's generalized Jacobian.

    Combines per-block prox-element samples, always including the fully
    canonical combination; deterministic under the seed.  Beyond the
    canonical one, the combinations are the first distinct rows of
    ``rng.integers(0, sizes, size=(count, blocks))`` batches, which draw
    the stream of one ``rng.integers(0, size)`` per block and pick.  All
    combinations are assembled in one stacked call.  They need no
    deduplication: each block's samples are pairwise distinct (the
    contract of ConvexPiece.sample_clarke), the combinations are distinct,
    and the -U block of each element carries every block's matrix exactly.
    """
    check_integer("count", count, 1)
    check_integer("seed", seed, 0)
    pt = as_point(problem, z)
    w = np.asarray(problem.F.eval(pt.x), dtype=float) + pt.mu
    wblocks = problem.blocks(w)
    per_block = [p.sample_clarke(wb, count, seed + 977 * i)
                 for i, (p, wb) in enumerate(zip(problem.pieces, wblocks))]
    sizes = [len(s) for s in per_block]
    combos: list[tuple[int, ...]] = [tuple(0 for _ in sizes)]  # canonical first
    total = math.prod(sizes)
    if total <= count:
        combos = [tuple(ix) for ix in np.ndindex(*sizes)]
    else:
        rng = np.random.default_rng(seed)
        seen = {combos[0]}
        while len(combos) < count:
            for pick in map(tuple, rng.integers(0, sizes, size=(count, len(sizes))).tolist()):
                if pick not in seen and len(combos) < count:
                    seen.add(pick)
                    combos.append(pick)
    picks = np.array(combos).T
    stacks = [LinearOperatorElement(np.stack([el.matrix for el in s])[ix])
              for s, ix in zip(per_block, picks)]
    E = assemble_element(problem, pt, stacks).matrix
    return SampledElements(E, [tuple(s[j].provenance for s, j in zip(per_block, combo))
                               for combo in combos])


def _base_parts(problem: CompositeProblem, base: KKTPoint) -> tuple[np.ndarray, ...]:
    """The weighted Hessian, J and F at a base point, the data of its
    linearization."""
    return (problem.F.weighted_hessian(base.x, base.mu),
            np.atleast_2d(np.asarray(problem.F.jacobian(base.x), dtype=float)),
            np.asarray(problem.F.eval(base.x), dtype=float))


def linearized_residual(problem: CompositeProblem, zbar, z, parts=None) -> np.ndarray:
    """Residual of the linearization around the base point zbar, at a point
    z or at each row of a stack (k, n+m), with one prox call for all rows.
    ``parts`` is the weighted Hessian, J and F at zbar, when the caller
    already holds them with the bits of their evaluation here."""
    base = as_point(problem, zbar)
    if isinstance(z, KKTPoint) or np.ndim(z) < 2:
        z = as_point(problem, z).stacked()
    Z = np.asarray(z, dtype=float)
    if Z.shape[-1] != problem.n + problem.m:
        raise DimensionError(f"point has {Z.shape[-1]} entries, expected "
                             f"n+m={problem.n + problem.m}")
    Hbar, Jbar, Fbar = parts or _base_parts(problem, base)
    dx, mu = Z[..., :problem.n] - base.x, Z[..., problem.n:]
    w = Fbar + _apply(Jbar, dx) + mu
    r1 = _apply(Hbar, dx) + _apply(Jbar.T, mu - base.mu)
    r2 = mu - problem.prox_gstar(w)
    return np.concatenate([r1, r2], axis=-1)


def _apply(A: np.ndarray, V: np.ndarray) -> np.ndarray:
    """A applied to each row of V, with the bits of A @ v on one row."""
    return (A @ V[..., None])[..., 0]


def solve_linearized_ge(problem: CompositeProblem, zbar, delta,
                        start=None, opts: NewtonOptions | None = None) -> KKTPoint:
    """Solve the canonically perturbed linearized generalized equation.

    The perturbed inclusion is translated into the nonsmooth equation for
    the shifted dual variable nu = mu + delta_2, solved by semismooth
    Newton from ``start`` (the base point when None); the returned point
    undoes the shift.  Non-convergence of the Newton iteration propagates,
    signalling probable failure of strong regularity.
    """
    base = as_point(problem, zbar)
    n, m = problem.n, problem.m
    delta = np.asarray(delta, dtype=float).ravel()
    if delta.size != n + m:
        raise DimensionError(f"delta has {delta.size} entries, expected {n + m}")
    z0 = base.stacked() if start is None else as_point(problem, start).stacked()
    Hbar, Jbar, Fbar = _base_parts(problem, base)
    rhs = np.concatenate([delta[:n] + Jbar.T @ delta[n:], delta[n:]])

    def res(z: np.ndarray) -> np.ndarray:
        # sign-adjusted so that elem() below is its derivative element;
        # zeros coincide with solutions of (linearized residual) == rhs
        dx, nu = z[:n] - base.x, z[n:]
        Fx = Fbar + Jbar @ dx
        r1 = Hbar @ dx + Jbar.T @ (nu - base.mu) - rhs[:n]
        r2 = Fx - problem.prox_g(Fx + nu) + rhs[n:]
        return np.concatenate([r1, r2])

    def elem(z: np.ndarray) -> np.ndarray:
        w = Fbar + Jbar @ (z[:n] - base.x) + z[n:]
        return _element_matrix(problem, Hbar, Jbar, _canonical_prox_elements(problem, w))

    z, _ = semismooth_solve(res, elem, z0, opts)
    return KKTPoint(z[:n], z[n:] - delta[n:])


def solve(problem: CompositeProblem, z0,
          opts: NewtonOptions | None = None) -> tuple[KKTPoint, NewtonTrace]:
    """Semismooth Newton on the KKT residual from the given start.

    Each iteration uses the canonical element at the current iterate, in
    its blocks' frames (:func:`framed_element`), and backtracks on half the
    squared residual norm.  Each trial point gets one :func:`evaluate`
    call, and the last one is kept: the driver asks for the element only
    at the point it evaluated last, the accepted one, and builds it from
    that call's Jacobian, w and frames, with the bits of
    ``framed_element``, so each iterate is evaluated once.  A block whose
    kind shares no decomposition between prox and frame gets its frame
    there, at the accepted point only.
    """
    start = as_point(problem, z0)
    last = ()  # the last point evaluated, its Jacobian, w and frames

    def rho(z: np.ndarray) -> np.ndarray:
        nonlocal last
        r, *parts = evaluate(problem, z)
        last = z, *parts
        return r

    def elem(z: np.ndarray) -> FramedElement:
        at, J, w, frames = last
        if at.tobytes() != z.tobytes():
            raise ValueError("the element is asked for a point other than the last one evaluated")
        frames = [p.clarke_frame(wb) if f is None else f
                  for p, wb, f in zip(problem.pieces, problem.blocks(w), frames)]
        return _framed(problem, as_point(problem, z), J, frames)

    zsol, trace = semismooth_solve(rho, elem, start.stacked(), opts)
    return KKTPoint(zsol[:problem.n], zsol[problem.n:]), trace
