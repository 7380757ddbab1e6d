"""Constraint qualifications, second-order conditions, and the empirical
cross-check of the stability equivalence at a KKT point.

Verdicts always carry the tolerance they were decided at.  Everything that
rests on sampling (the alternating-projection cone search) is reported as
evidence, never as a certificate: the wording is "heuristic-likely".
The point is evaluated once (``AnalysisPoint``): F, J and each block's
prox at wbar = F(x) + mu serve its KKT test, the blocks' subgradient
tests, the uniqueness candidates' KKT tests and both probes'
linearizations, so a report calls F, J and the weighted Hessian once
each.  Every leg reads one local model of the point (``LocalModel``): J
in every block's frame, the critical codes, H with the curvature weights
of the alpha-gamma coordinates of PSD blocks folded in, and the two
kernels that legs a and b and srcq's span test read, with the svd of the
pinned rows J_P and the eigendecomposition of the reduced Hessian that
they come from.  The element sweep
(leg b) is exact at every point: two inertia computations decide every
element of a superset of the product set of Clarke elements, in which
every PSD block's beta-beta part lies between 0 and I, and the verdict
reads "all-elements-nonsingular" or names a singular witness element.  So
is the probe (leg c), on the same model: it first decides
whether one symmetric K x K matrix W over the kinks is positive
definite, from the model's svd and eigendecomposition, which solve the
canonical piece by the null-space method.  A simple zero eigenvalue of a
PSD block is one more half-line kink of the projection's B-derivative,
and W positive definite says the 2^K local pieces are coherently
oriented; the beta-beta coordinates of a block with |beta| >= 2 are one
PSD kink, where the inertia identity that leg b reads makes W positive
definite iff leg b holds.  Where W is not, the point is not strongly
regular, and leg c reads that certificate at any K.  Otherwise it solves
each sampled perturbation exactly, as one complementarity problem with a
positive definite matrix over an orthant times one PSD cone per block
with |beta| >= 2, all perturbations in one stacked semismooth Newton
solve, and checks each solution; a solve that does not converge, or a
solution that fails its check, leaves leg c undecided.

Every check takes ``(problem, zbar, opts=None)`` and reads its settings
from the one ``AnalyzerOptions`` of the ``AnalysisPoint`` it runs at, which
decides each cone once.

rcq, srcq and multiplier uniqueness ask whether null(J^T) meets a cone
only at the origin.  Every cone is read in each block's frame (the
identity for a polyhedral block), where it pins some coordinates P, bounds
some on one side and makes the rest NSD blocks, and is decided in one
order.  Its points in null(J^T) lie in B = null(J_f[~P]^T), J_f being J
in every block's frame: one svd per set P.  A "holds" comes first and is
exact: either B is {0}, or Gordan's alternative gives a y inside R_+ x
PSD, orthogonal to the range of B's one-sided and NSD rows, checked with
one eigvalsh per block and a factor-2 margin.

A cone is its kernel B and its class codes, and nothing else: the point's
one projection onto it (per block, the codes' intervals and an NSD
projection in the frame) serves every witness test and search.  When no
certificate verifies and B is one line, the cone's points in null(J^T)
lie on that line, so an exact test of its two rays decides: a ray in the
cone is the "fails" point, and no ray is an exact "holds".  Only a kernel
of two or more dimensions goes further.  A polyhedral (interval) cone
then gets one rank test and at most one bounded linear program: a "fails"
carries the point found, a "holds" a Farkas certificate from the
program's duals, which one matrix-vector product checks, and when neither
checks out the verdict is "heuristic-likely".  A cone with PSD blocks
gets the alternating-projection search, which finds "fails" points or
leaves "heuristic-likely".
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .newton import NewtonOptions, check_integer, check_positive
from .pieces import (
    _LOWER,
    _POLAR,
    _UPPER,
    BLOCK,
    DOWN,
    FREE,
    PINNED,
    UP,
    ConvexPiece,
    LinearOperatorElement,
    PSDConeIndicator,
    _gram,
    _kink_tol,
    _outside_curvature_domain,
    sampled_gamma,
)
from .problem import (
    CompositeProblem,
    KKTPoint,
    KKTReport,
    as_point,
    block_prox,
    kkt_check,
    linearized_residual,
)
from .symmat import smat, svec, svec_order

_RANK_TOL = 1e-10
_CONIC_MAX_ITER = 50  # Newton iterations of one conic complementarity solve

# the class codes of each block's frame coordinates in the named product cone
_CONE_CODES = {"critical_polar_cone": lambda st: _POLAR[st.critical],
               "domain_normal_cone": lambda st: st.normal}


class UnsupportedCaseError(RuntimeError):
    """The analysis needs a unique multiplier and the instance has none."""


class CurvatureDomainError(RuntimeError):
    """The curvature term is infinite on the critical subspace."""


@dataclass
class Verdict:
    status: str
    tol: float
    detail: str = ""


@dataclass
class CriticalSubspace:
    basis: np.ndarray
    dim: int


@dataclass
class SsoscResult:
    status: str
    tol: float
    min_eigenvalue: float
    subspace_dim: int
    detail: str = ""


@dataclass
class SweepStats:
    """Leg b's verdict, the element it names and its ``margin`` (``_exact_sweep``)."""

    verdict: str
    margin: float
    n_elements: int
    tol: float
    argmin_provenance: tuple[str, ...] = ()


@dataclass
class ProbeStats:
    """The probe's tally over its num_delta + 1 perturbations, each solved
    on the local model (``_exact_probe``).  ``pieces`` is 2^K for the K
    half-line kinks of the local model: each one doubles the pieces of a
    piecewise-linear map, while the beta-beta factor of a PSD block with
    |beta| >= 2 is a projection onto a PSD cone, not piecewise linear, and
    adds no factor.  A probe whose W is not positive definite reads the
    certificate that the point is not strongly regular: 1 violation and 1
    solved (the point itself at delta = 0), with modulus 0.  ``failures``
    counts the perturbations left undecided, whose solve did not converge
    or whose solution failed its check, and ``failure`` names the first of
    them ("" when there is none); any failure leaves leg c undecided."""

    modulus: float
    violations: int
    failures: int
    solved: int
    num_delta: int
    radius: float
    pieces: int
    failure: str


class LocalModel(NamedTuple):
    """The local model of an analysis point, in every block's frame
    (``AnalysisPoint.model``).  A Clarke element of the KKT map is, up to
    the orthogonal frames, [[H0, J^T], [(I - U) J, -U]] with H0 the
    weighted Hessian and U block diagonal: 0 on the PINNED coordinates, a
    weight in [0, 1] on the UP and DOWN kinks, an operator between 0 and
    I on each block's BLOCK coordinates (Pang, Sun & Sun 2003), and
    1 / (1 + weight) on the FREE ones, below 1 on the alpha-gamma
    coordinates of a PSD block.  Solving a FREE row for its multiplier
    folds its weight into H = H0 + J^T diag(weight) J.  Its two kernels at
    ``opts.tol``: Z0 spans
    null(J_P), the critical subspace, read from the full svd ``svd_P`` =
    (U, s, Vh) of J_P, so that J_P has rank n - dim Z0; A0 = Z0^T H Z0 has the ascending eigenvalues ``lam`` with
    eigenvectors ``V0``; Z1 spans null(G) for G = J_K Z0 on the kinks K
    (neither PINNED nor FREE), the probe's kinks.  The svd and V0 also give
    every solve with the saddle [[H, J_P^T], [J_P, 0]] (``_exact_probe``),
    and ``sv_G`` are G's singular values, from the svd that Z1 is read from."""

    J: np.ndarray
    H: np.ndarray
    codes: np.ndarray
    weight: np.ndarray
    Z0: np.ndarray
    svd_P: tuple[np.ndarray, np.ndarray, np.ndarray]
    A0: np.ndarray
    lam: np.ndarray
    V0: np.ndarray
    G: np.ndarray
    Z1: np.ndarray
    sv_G: np.ndarray

    def saddle_nonsingular(self) -> bool:
        """Whether the saddle [[H, J_P^T], [J_P, 0]], the canonical element, is nonsingular."""
        return (self.J.shape[1] - self.Z0.shape[1] == np.count_nonzero(self.codes == PINNED)
                and bool((np.abs(self.lam) > SWEEP_TOL).all()))


@dataclass
class StabilityReport:
    instance: str
    rcq: Verdict
    srcq: Verdict
    nondegeneracy: Verdict
    multiplier_unique: bool
    ssosc: SsoscResult | Verdict
    sweep: SweepStats
    probe: ProbeStats
    consistency: dict
    seed: int
    tolerances: dict


SWEEP_TOL = 1e-8  # an element whose reduced matrix has an eigenvalue this near 0 is singular


@dataclass(frozen=True)
class AnalyzerOptions:
    """The settings of one analysis point: ``tol`` for its KKT, cone and
    rank tests, ``srcq_budget`` and ``seed`` for a cone search,
    ``num_delta`` and ``radius`` for the probe.  ``count`` and ``newton``
    no longer change the analysis, since the sweep samples no element and
    the probe solves each perturbation on the local model; they are kept,
    and validated, for callers that still pass them."""

    count: int = 32
    num_delta: int = 50
    radius: float = 0.05
    seed: int = 0
    tol: float = 1e-8
    srcq_budget: int = 1000
    newton: NewtonOptions = field(default_factory=NewtonOptions)

    def __post_init__(self):
        check_integer("num_delta", self.num_delta, 0)
        check_integer("seed", self.seed, 0)
        check_positive("radius", self.radius)
        check_positive("tol", self.tol)
        for name in ("count", "srcq_budget"):
            check_integer(name, getattr(self, name), 1)


# ----------------------------------------------------------------------
# linear-algebra helpers


def nullspace(M: np.ndarray, rtol: float = _RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the null space, columns of the result.  The svd
    forms the full factors only for an M with more columns than rows, whose
    kernel needs all of Vh; a tall M's U stops at its columns."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[0] == 0 or not np.any(M):
        return np.eye(M.shape[1])
    _, s, Vh = np.linalg.svd(M, full_matrices=M.shape[0] < M.shape[1])
    return _kernel(s, Vh, rtol)


def _kernel(s: np.ndarray, Vh: np.ndarray, rtol: float) -> np.ndarray:
    """The rows of Vh past the numerical rank of s, as columns."""
    return Vh[int(np.sum(s > rtol * max(1.0, s[0]))):].T


def _kernel_svd(M: np.ndarray, rtol: float) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """``nullspace(M, rtol)`` and the full svd (U, s, Vh) of M it is read
    from, so M has rank n - (its columns); s has one value per row, 0 past
    the columns, and an M without a nonzero entry has U = I, s = 0 and Vh = I."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    p, n = M.shape
    if p == 0 or not np.any(M):
        return np.eye(n), (np.eye(p), np.zeros(p), np.eye(n))
    U, s, Vh = np.linalg.svd(M)
    return _kernel(s, Vh, rtol), (U, np.concatenate([s, np.zeros(p - s.size)]), Vh)


def orthonormal_span(columns: np.ndarray, rtol: float = _RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the column span."""
    A = np.atleast_2d(np.asarray(columns, dtype=float))
    if A.shape[1] == 0 or not np.any(A):
        return np.zeros((A.shape[0], 0))
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    rank = int(np.sum(s > rtol * max(1.0, s[0])))
    return U[:, :rank]


def span_residual(A: np.ndarray, B: np.ndarray) -> float:
    """Largest distance of a unit column of A from span(B)."""
    if A.shape[1] == 0:
        return 0.0
    R = A - B @ (B.T @ A)
    return float(np.max(np.linalg.norm(R, axis=0)))


def mutual_span_residual(A: np.ndarray, B: np.ndarray) -> float:
    return max(span_residual(A, B), span_residual(B, A))


# ----------------------------------------------------------------------
# the analysis point


class AnalysisPoint:
    """A point evaluated once and tested once against the KKT system at
    ``opts.tol``, the tolerance of every test at the point.  F(x), J(x)
    and each block's prox at wbar = F(x) + mu (``prox``) are evaluated
    here, and every reader at the point takes them from it: the KKT test,
    each block's subgradient test in its structure, the KKT tests of the
    multiplier-uniqueness candidates (only mu moves) and the
    linearization of both probes.  It keeps the block pairs
    (piece, F(x)_b, mu_b).  The weighted Hessian, the block structures
    (whose class codes give the cones; every block's subgradient test and
    one classification per group of separable blocks of one kind, from
    the problem's ``block_groups``), J_f, the local model, and each
    cone's kernel and decision are computed on first use and kept, so the
    checks that share one point compute each of them once, and a report
    calls F, J and the weighted Hessian once each."""

    def __init__(self, problem: CompositeProblem, z, opts: AnalyzerOptions | None = None,
                 *, _kkt_test: bool = True):
        pt = as_point(problem, z)
        if not (np.isfinite(pt.x).all() and np.isfinite(pt.mu).all()):
            raise ValueError("point must be finite")
        self.opts = opts or AnalyzerOptions()
        self.problem, self.kkt = problem, pt
        self.J = np.atleast_2d(np.asarray(problem.F.jacobian(pt.x), dtype=float))
        self.Fbar = np.asarray(problem.F.eval(pt.x), dtype=float)
        self.wbar = self.Fbar + pt.mu
        self.prox = block_prox(problem, self.wbar)
        if _kkt_test:
            rep = self.kkt_test(pt.mu)
            if not rep.ok:
                raise ValueError(
                    f"point is not a KKT point at tolerance {self.opts.tol:.1e} "
                    f"(stationarity {rep.stationarity_norm:.3e}, "
                    f"fixed point {rep.fixed_point_norm:.3e})")
        self.pairs = list(zip(problem.pieces, problem.blocks(self.Fbar), problem.blocks(pt.mu)))
        self._searches: dict[str, tuple[list[np.ndarray], str]] = {}
        self._kernels: dict[bytes, np.ndarray] = {}

    def kkt_test(self, mu: np.ndarray) -> KKTReport:
        """``kkt_check`` at (x, mu) for this point's x, at ``opts.tol``, from
        the point's F and J; a block whose slice of F(x) + mu has the bits
        of wbar's keeps the point's prox."""
        w = self.problem.blocks(self.Fbar + mu)
        prox = [pb if wb.tobytes() == vb.tobytes() else p.prox(wb)
                for p, pb, wb, vb in zip(self.problem.pieces, self.prox, w,
                                         self.problem.blocks(self.wbar))]
        return kkt_check(self.problem, KKTPoint(self.kkt.x, mu), self.opts.tol,
                         parts=(self.J, self.Fbar), prox=prox)

    @functools.cached_property
    def structures(self) -> list:
        """Each block's ``structure`` at the point, with its bits, from the
        problem's ``block_groups``: one classification per group of
        separable blocks of one kind, each block at its own kink tolerance."""
        return self.problem.block_groups.structures(self.Fbar, self.kkt.mu, self.opts.tol,
                                                    self.prox)

    @functools.cached_property
    def polyhedral(self) -> bool:
        """Whether every block's frame is the identity, so that both cones
        are products of intervals."""
        return all(st.frame is None for st in self.structures)

    @functools.cached_property
    def hessian(self) -> np.ndarray:
        """The weighted Hessian sum_i mu_i Hess F_i(x) at the point."""
        return self.problem.F.weighted_hessian(self.kkt.x, self.kkt.mu)

    @functools.cached_property
    def J_f(self) -> np.ndarray:
        """J in every block's frame; its left kernel is null(J^T) there."""
        return self.coords(self.J.T).T

    @functools.cached_property
    def model(self) -> LocalModel:
        """The local model of every leg, in every block's frame: J, H with
        the curvature weights folded in, the critical codes (the one BLOCK
        coordinate of a |beta| = 1 block read as UP, a half-line kink) and
        the two kernels.  At a polyhedral point J and H are the point's
        own."""
        codes = np.concatenate([np.where(c == BLOCK, UP, c) if np.sum(c == BLOCK) == 1 else c
                                for c in (st.critical for st in self.structures)])
        weight = np.concatenate([st.weight for st in self.structures])
        J, on = self.J_f, weight > 0.0
        H = self.hessian + _gram(J[on].T, weight[on]) if on.any() else self.hessian
        pinned = codes == PINNED
        Z0, svd_P = _kernel_svd(J[pinned], self.opts.tol)
        A0, G = Z0.T @ H @ Z0, J[~(pinned | (codes == FREE))] @ Z0
        Z1, (_, sv_G, _) = _kernel_svd(G, self.opts.tol)
        return LocalModel(J, H, codes, weight, Z0, svd_P, A0, *np.linalg.eigh(A0), G, Z1, sv_G)

    def coords(self, V: np.ndarray) -> np.ndarray:
        """Every block's frame coordinates of each row of a stack (..., m)."""
        if self.polyhedral:
            return V
        return np.concatenate([Vb if st.frame is None else Vb @ st.frame
                               for st, Vb in zip(self.structures, self.problem.blocks(V))],
                              axis=-1)

    def vectors(self, W: np.ndarray) -> np.ndarray:
        """The vectors of each row of a stack (..., m) of frame coordinates."""
        if self.polyhedral:
            return W
        return np.concatenate([Wb if st.frame is None else Wb @ st.frame.T
                               for st, Wb in zip(self.structures, self.problem.blocks(W))],
                              axis=-1)

    def cone_kernel(self, cone_name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(B, codes, groups): each frame row's class code in the named
        cone and its block's index, and the orthonormal B = null(J_f[~P]^T)
        at ``opts.tol`` on the rows outside the PINNED rows P and 0 on P:
        the points of null(J^T) that are 0 on P, in frame coordinates,
        computed once per P."""
        codes = np.concatenate([_CONE_CODES[cone_name](st) for st in self.structures])
        groups = np.repeat(np.arange(len(self.structures)),
                           [st.critical.size for st in self.structures])
        free = codes != PINNED
        key = free.tobytes()
        if key not in self._kernels:
            K = nullspace(self.J_f[free].T, self.opts.tol)
            B = self._kernels[key] = np.zeros((free.size, K.shape[1]))
            B[free] = K
        return self._kernels[key], codes, groups

    def project(self, cone_name: str, V: np.ndarray) -> np.ndarray:
        """The projection of a vector, or of each row of a stack (..., m),
        onto the named product cone: per block into its frame, each
        coordinate clipped to the interval of its class and the BLOCK
        coordinates, the svec image of one block, projected onto the NSD
        cone, and back out."""
        parts = []
        for st, Vb in zip(self.structures, self.problem.blocks(V)):
            codes = _CONE_CODES[cone_name](st)
            w = np.clip(Vb if st.frame is None else Vb @ st.frame,
                        _LOWER[codes], _UPPER[codes])
            block = codes == BLOCK
            if block.any():
                lam, Q = np.linalg.eigh(smat(w[..., block]))
                w[..., block] = svec((Q * np.minimum(lam, 0.0)[..., None, :])
                                     @ Q.swapaxes(-1, -2))
            parts.append(w if st.frame is None else w @ st.frame.T)
        return np.concatenate(parts, axis=-1)

    def cone_search(self, cone_name: str) -> tuple[list[np.ndarray], str]:
        """Nonzero points of null(J^T) inside the named product cone, and the
        status they support: 'fails' when one was found, else 'holds' or
        'heuristic-likely'.

        Every cone is decided once per point, in one order, on its kernel
        B (``cone_kernel``): an empty B, then ``_gordan_certificate``, each
        an exact 'holds'.  When no certificate verifies and B is one line,
        ``_ray_decision`` decides exactly both ways.  Only a B of two or
        more columns goes, as vectors, to ``_lp_nonzero_points`` (interval
        cones) or to ``opts.srcq_budget`` alternating-projection restarts
        drawn from ``opts.seed`` (cones with PSD blocks), every test at
        ``opts.tol``."""
        if cone_name not in self._searches:
            self._searches[cone_name] = self._decide(cone_name)
        return self._searches[cone_name]

    def _decide(self, cone_name: str) -> tuple[list[np.ndarray], str]:
        B, codes, groups = self.cone_kernel(cone_name)
        if _gordan_certificate(B, codes, groups):
            return [], "holds"
        project, opts = functools.partial(self.project, cone_name), self.opts
        N = self.vectors(B.T).T
        if N.shape[1] == 1:
            return _ray_decision(N, project, opts.tol)
        if self.polyhedral:
            return _lp_nonzero_points(N, codes, project, opts.tol)[:2]
        found = _ap_nonzero_points(N @ N.T, project, opts.srcq_budget, opts.tol,
                                   np.random.default_rng(opts.seed))
        return found, "fails" if found else "heuristic-likely"


def analysis_point(problem: CompositeProblem, z,
                   opts: AnalyzerOptions | None = None) -> AnalysisPoint:
    """z itself when it is an AnalysisPoint, else the point of z under opts;
    a point built with other options raises ValueError."""
    if not isinstance(z, AnalysisPoint):
        return AnalysisPoint(problem, z, opts)
    if opts is not None and opts != z.opts:
        raise ValueError("the analysis point was built with other AnalyzerOptions")
    return z


# ----------------------------------------------------------------------
# critical subspace and first-order conditions


def critical_subspace(problem: CompositeProblem, zbar,
                      opts: AnalyzerOptions | None = None) -> CriticalSubspace:
    """Primal directions mapped by the Jacobian into the blockwise affine
    hulls of the critical sets: Z0 of ``AnalysisPoint.model``."""
    Z0 = analysis_point(problem, zbar, opts).model.Z0
    return CriticalSubspace(basis=Z0, dim=Z0.shape[1])


def critical_subspace_from_samples(problem: CompositeProblem, zbar,
                                   count: int = 16, seed: int = 0) -> CriticalSubspace:
    """Same subspace, but derived from the ranges of sampled prox elements
    instead of the closed-form affine hulls; used as an independent
    cross-check of the domain identity."""
    check_integer("seed", seed, 0)
    point = analysis_point(problem, zbar)
    rows = []
    for i, ((p, xb, ub), Jb) in enumerate(zip(point.pairs, problem.blocks(point.J.T))):
        samples = p.sample_clarke(xb + ub, count, seed + 31 * i)
        B = orthonormal_span(np.hstack([el.matrix for el in samples]))
        rows.append(Jb.T - B @ (B.T @ Jb.T))
    N = nullspace(np.vstack(rows))
    return CriticalSubspace(basis=N, dim=N.shape[1])


def nondegeneracy_check(problem: CompositeProblem, zbar,
                        opts: AnalyzerOptions | None = None) -> Verdict:
    """Rank test: the Jacobian range plus the blockwise lineality spaces
    must fill the whole image space; its rank is #FREE + n - dim Z1 of
    ``AnalysisPoint.model``."""
    point = analysis_point(problem, zbar, opts)
    rank = int(np.sum(point.model.codes == FREE)) + problem.n - point.model.Z1.shape[1]
    status = "holds" if rank == problem.m else "fails"
    return Verdict(status, point.opts.tol, f"rank {rank} of {problem.m}")


# ----------------------------------------------------------------------
# cone-subspace intersection searches


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on first use: importing
    scipy.optimize takes most of the package's import time, and only the
    exact linear-programming path needs it."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


class LPSearch(NamedTuple):
    """Outcome of the exact search of an interval cone: the points found
    ([] or one witness), the status they support, and for 'holds' the
    certificate (lam, nu) on the rows (G, E) of ``_lp_nonzero_points``."""

    points: list[np.ndarray]
    status: str
    certificate: tuple[np.ndarray, np.ndarray] | None = None


def _in_cone(project, v: np.ndarray, tol: float) -> bool:
    """The witness test: v lies within tol (1 + |v|) of its projection."""
    return bool(np.linalg.norm(v - project(v)) <= tol * (1.0 + np.linalg.norm(v)))


def _lp_nonzero_points(N: np.ndarray, codes: np.ndarray, project, tol: float) -> LPSearch:
    """Exact search for a nonzero point of span(N) inside an interval cone,
    with the class code of each row in ``codes`` and its projection
    ``project``, by one rank test and at most one linear program.
    ``cone_search`` calls it only for a cone kernel N of two or more
    columns, 0 on the PINNED rows, that ``_gordan_certificate`` leaves.

    N has orthonormal columns, so t != 0 gives a nonzero point N t of the
    coefficient cone C = {t : E t = 0, G t <= 0}, with E the PINNED rows
    of N and G the UP rows negated and the DOWN rows, in row order.  A
    null vector of M = [E; G] is a witness.  Otherwise C is pointed and
    nontrivial iff min 1^T G t over C with -G t <= 1 is negative.  When the
    optimum is 0, the duals give lam >= 1 and nu with G^T lam + E^T nu = r.
    For a unit t in C, |G t| <= |G t|_1 <= -lam^T G t = -t^T r <= |r|,
    while |G t| = |M t| >= sigma_min(M); so |r| < sigma_min(M) proves
    C = {0}, and one matrix-vector product checks it (with a factor 2 to
    spare for rounding).  A witness that fails ``_in_cone`` or a
    certificate that fails the check gives 'heuristic-likely'.
    """
    if N.shape[1] == 0:
        return LPSearch([], "holds")

    def witness(t: np.ndarray) -> LPSearch:
        v = N @ t
        if _in_cone(project, v, tol):
            return LPSearch([v], "fails")
        return LPSearch([], "heuristic-likely")

    sign = np.where(codes == DOWN, 1.0, np.where(codes == UP, -1.0, 0.0))
    E, G = N[codes == PINNED], sign[sign != 0.0, None] * N[sign != 0.0]
    M = np.vstack([E, G])
    null = nullspace(M)
    if null.shape[1]:
        return witness(null[:, 0])
    g = G.shape[0]
    if g == 0:
        return LPSearch([], "holds", (np.ones(0), np.zeros(E.shape[0])))
    res = linprog(G.sum(axis=0), A_ub=np.vstack([G, -G]),
                  b_ub=np.concatenate([np.zeros(g), np.ones(g)]),
                  A_eq=E, b_eq=np.zeros(E.shape[0]), bounds=(None, None), method="highs")
    if res.status != 0:
        return LPSearch([], "heuristic-likely")
    if res.fun < -max(tol, 1e-9):
        return witness(res.x)
    # scipy's marginals satisfy G^T 1 = [G; -G]^T m_ub + E^T m_eq
    lam = 1.0 - res.ineqlin.marginals[:g] + res.ineqlin.marginals[g:]
    nu = -res.eqlin.marginals
    scale = lam.min()
    if scale > 0.0:
        lam, nu = lam / scale, nu / scale
        r = np.concatenate([nu, lam]) @ M
        if np.linalg.norm(r) < 0.5 * np.linalg.svd(M, compute_uv=False)[-1]:
            return LPSearch([], "holds", (lam, nu))
    return LPSearch([], "heuristic-likely")


def _gordan_certificate(B: np.ndarray, codes: np.ndarray, groups: np.ndarray) -> bool:
    """Whether s = 0 is the only s with B s in the cone, proved exactly;
    False when no proof verifies.  B has orthonormal columns and 0 on the
    PINNED rows; row i is a frame coordinate with class code codes[i], and
    the BLOCK rows of each group, in row order, are the svec coordinates
    of one NSD block.

    When B has no column, the cone meets span(B) only at 0.  Otherwise the
    cone is {s : A s in K} with K = R_+^g x (PSD blocks): A holds the UP
    rows, the negated DOWN rows and the negated BLOCK rows of B.  A kernel
    of A leaves the question open.  For injective A, Gordan's alternative
    says the cone is {0} iff some y in the interior of K has A^T y = 0;
    the candidate is the projection of (1, ..., 1, svec(I) per block) onto
    range(A)^perp, and ``_gordan_verifies`` checks it.
    """
    if B.shape[1] == 0:
        return True
    half = np.flatnonzero((codes == UP) | (codes == DOWN))
    block = np.flatnonzero(codes == BLOCK)
    rows = np.concatenate([half, block])
    A = np.where(codes[rows] == UP, 1.0, -1.0)[:, None] * B[rows]
    if A.shape[0] < A.shape[1]:
        return False
    U, sv, _ = np.linalg.svd(A, full_matrices=False)
    if sv[-1] <= _RANK_TOL * max(1.0, sv[0]):
        return False
    sizes = np.unique(groups[block], return_counts=True)[1]
    y = np.concatenate([np.ones(half.size)] + [svec(np.eye(svec_order(d))) for d in sizes])
    return _gordan_verifies(A, sv[-1], y - U @ (U.T @ y), sizes)


def _ray_decision(N: np.ndarray, project, tol: float) -> tuple[list[np.ndarray], str]:
    """([v], 'fails') for the first of v = N[:, 0] and -v that passes
    ``_in_cone``, else ([], 'holds'), for N of one column.  N spans every
    point of null(J^T) that is 0 on the cone's PINNED rows, so every point
    of null(J^T) in the cone lies on its line: its two rays are the only
    candidates, and their exact test decides the cone both ways."""
    for v in (N[:, 0], -N[:, 0]):
        if _in_cone(project, v, tol):
            return [v], "fails"
    return [], "holds"


def _gordan_verifies(A: np.ndarray, sigma_min: float, y: np.ndarray,
                     sizes: np.ndarray) -> bool:
    """Whether y proves that A s in K only for s = 0, where sigma_min is
    the least singular value of A and K = R_+^g x (PSD blocks of svec
    dimensions ``sizes``), the blocks last in y.

    Let delta be the least of y's orthant entries and of the eigenvalues of
    its blocks.  If delta > 0, then <y, u> >= delta |u| for u in K, so
    A s in K gives delta sigma_min |s| <= <y, A s> = <A^T y, s> <=
    |A^T y| |s|.  Hence |A^T y| < delta sigma_min / 2 proves s = 0, with a
    factor 2 to spare for rounding, as in the linear-programming path.
    Rounding could fake a positive delta near 0 or a small |A^T y|, so
    delta must exceed _RANK_TOL (y has entries of order 1), and |A^T y|
    counts with the error bound rows * eps * |A| |y| of its product.
    """
    g = y.size - int(np.sum(sizes))
    ends = g + np.cumsum(sizes)
    delta = min([y[:g].min(initial=np.inf)]
                + [np.linalg.eigvalsh(smat(y[a:b]))[0] for a, b in zip(ends - sizes, ends)])
    slack = A.shape[0] * np.finfo(float).eps * np.linalg.norm(A) * np.linalg.norm(y)
    return bool(delta > _RANK_TOL
                and np.linalg.norm(A.T @ y) + slack < 0.5 * delta * sigma_min)


_UNCERTIFIED = "no point found and no certificate verified (linear program)"


def _cone_verdict(point: AnalysisPoint, cone_name: str, cone: str, searched: str) -> Verdict:
    """The Verdict of the named cone's decision at the point, its detail
    naming the ``cone`` and, after a search, the ``searched`` points."""
    _, status = point.cone_search(cone_name)
    missed = f"no {searched} point found in {point.opts.srcq_budget} restarts"
    return Verdict(status, point.opts.tol, {
        "fails": f"nonzero {cone} intersection point found",
        "holds": f"{cone} intersection is trivial (exact)",
        "heuristic-likely": _UNCERTIFIED if point.polyhedral else missed}[status])


def _ap_nonzero_points(P_sub: np.ndarray, project, budget: int,
                       tol: float, rng: np.random.Generator,
                       max_candidates: int = 8) -> list[np.ndarray]:
    """Normalized alternating projections between a subspace and a cone;
    heuristic, returns distinct intersection candidates.  P_sub is the
    orthogonal (hence symmetric) projector onto the subspace, and
    ``project`` the cone's projection, row-wise on stacks.

    All restarts run together as the rows of one stack.  A restart whose
    iterate falls below norm 1e-13 is dropped; the survivors are kept in
    restart order, so candidates are chosen in that order.
    """
    V = rng.standard_normal((budget, P_sub.shape[0]))
    for _ in range(60):
        V = project(V) @ P_sub
        norms = np.linalg.norm(V, axis=1)
        alive = norms >= 1e-13
        V = V[alive] / norms[alive, None]
        if not V.shape[0]:
            return []
    res = (np.linalg.norm(V - V @ P_sub, axis=1)
           + np.linalg.norm(V - project(V), axis=1))
    pool = V[res <= tol]
    found: list[np.ndarray] = []
    while pool.shape[0] and len(found) < max_candidates:
        v = pool[0]
        found.append(v)
        far = ((np.linalg.norm(pool - v, axis=1) > 1e-6)
               & (np.linalg.norm(pool + v, axis=1) > 1e-6))
        pool = pool[far]
    return found


def srcq_check(problem: CompositeProblem, zbar,
               opts: AnalyzerOptions | None = None) -> Verdict:
    """Strict constraint qualification via the polar test: the null space
    of the adjoint Jacobian must meet the polar of the critical direction
    set only at the origin, decided by ``AnalysisPoint.cone_search``.  A
    "holds" is exact: from an empty cone kernel or the certificate of
    ``_gordan_certificate`` (factor-2 margin), tried first on every cone,
    from the ray test of a one-line kernel, or from the Farkas certificate
    of an interval cone's linear program.  Only a cone with PSD blocks and
    a kernel of two or more dimensions gets ``srcq_budget``
    alternating-projection restarts, which look for a point.  At a point
    with PSD blocks a span test comes first: the Jacobian range and the
    critical cone's affine hull, of rank #not PINNED + n - dim Z0
    (``AnalysisPoint.model``), must fill the image space."""
    point = analysis_point(problem, zbar, opts)
    if not point.polyhedral:
        rank = int(np.sum(point.model.codes != PINNED)) + problem.n - point.model.Z0.shape[1]
        if rank < problem.m:
            return Verdict("fails", point.opts.tol, f"span test rank {rank} of {problem.m}")
    return _cone_verdict(point, "critical_polar_cone", "polar", "polar")


def rcq_check(problem: CompositeProblem, zbar,
              opts: AnalyzerOptions | None = None) -> Verdict:
    """Robinson constraint qualification via the normal-cone polar test,
    decided as in ``srcq_check``: the certificate, then the ray test of a
    one-line kernel, then an interval cone's linear program or
    ``srcq_budget`` alternating-projection restarts."""
    point = analysis_point(problem, zbar, opts)
    return _cone_verdict(point, "domain_normal_cone", "normal-cone", "intersection")


def multiplier_uniqueness(problem: CompositeProblem, zbar,
                          opts: AnalyzerOptions | None = None
                          ) -> tuple[bool, np.ndarray | None]:
    """Search for a second multiplier along the points of the critical
    polar cone's one decision; a candidate only counts once a perturbed
    multiplier actually satisfies the KKT system."""
    point = analysis_point(problem, zbar, opts)
    candidates, _ = point.cone_search("critical_polar_cone")
    scale = 1.0 + float(np.linalg.norm(point.kkt.mu))
    for v in candidates:
        vn = v / max(np.linalg.norm(v), 1e-300)
        for t in (1e-4, 1e-3, 1e-2, 1e-1):
            mu_t = point.kkt.mu + t * scale * vn
            if point.kkt_test(mu_t).ok:
                return False, mu_t
    return True, None


# ----------------------------------------------------------------------
# second-order condition


def reduced_quadratic_form(problem: CompositeProblem, zbar,
                           basis: np.ndarray) -> np.ndarray:
    """Symmetric matrix of d -> <mu, F''(d,d)> + curvature(J d) on the
    given subspace basis: the Hessian term plus one curvature form per
    block on the blocks of J basis.  The point need not be a KKT point."""
    point = zbar if isinstance(zbar, AnalysisPoint) else AnalysisPoint(
        problem, zbar, _kkt_test=False)
    G = np.zeros((basis.shape[1], basis.shape[1]))
    for st, Wb in zip(point.structures, problem.blocks((point.J @ basis).T)):
        form = st.curvature_form(Wb.T)
        if np.isinf(np.diag(form)).any():
            raise CurvatureDomainError(
                "curvature is infinite on the critical subspace; the "
                "subspace and the curvature domain disagree numerically")
        G += form
    return basis.T @ point.hessian @ basis + G


def ssosc_check(problem: CompositeProblem, zbar,
                opts: AnalyzerOptions | None = None) -> SsoscResult:
    """Second-order verdict on the affine hull of the critical cone.

    Directions outside the curvature domain carry an infinite term and are
    satisfied automatically, so positivity is decided by the least
    eigenvalue of A0 on the critical subspace Z0 (``AnalysisPoint.model``),
    and a column of Z0 off that domain raises CurvatureDomainError; an
    empty subspace gives a vacuous 'holds'.
    """
    point = analysis_point(problem, zbar, opts)
    tol = point.opts.tol
    unique, _ = multiplier_uniqueness(problem, point)
    if not unique:
        raise UnsupportedCaseError(
            "the multiplier set is not a singleton; the second-order "
            "verdict is only supported for unique multipliers")
    m = point.model
    if m.Z0.shape[1] == 0:
        return SsoscResult("holds", tol, float("inf"), 0,
                           "critical subspace is trivial")
    if _outside_curvature_domain(np.linalg.norm(m.J[m.codes == PINNED] @ m.Z0, axis=0),
                                 np.linalg.norm(m.J @ m.Z0, axis=0)).any():
        raise CurvatureDomainError("curvature is infinite on a direction of the critical subspace")
    min_eig = float(m.lam[0])
    status = "holds" if min_eig > tol else "fails"
    return SsoscResult(status, tol, min_eig, m.Z0.shape[1])


# ----------------------------------------------------------------------
# sampling sweeps and the perturbation probe


def nonsingularity_sweep(problem: CompositeProblem, zbar,
                         opts: AnalyzerOptions | None = None) -> SweepStats:
    """Leg b: whether the residual's Clarke-Jacobian elements at the point
    are nonsingular, read from the local model's decompositions at
    ``opts.tol`` and SWEEP_TOL.

    The chain rule gives only an inclusion for Clarke's Jacobian of the
    composite map: the elements tested are [[H, J^T], [(I-U) J, -U]] with
    U in the product of the blocks' Clarke Jacobians.  ``_exact_sweep``
    decides a superset of that product set exactly at every point, one
    whose singular elements it finds inside the product set, so the
    verdict is exact both ways: "all-elements-nonsingular" or
    "singular-element-found".  No element is sampled or formed, and
    ``count`` is not read."""
    return _exact_sweep(analysis_point(problem, zbar, opts))


def _negative_count(A: np.ndarray) -> tuple[int, float]:
    """The number of negative eigenvalues of a symmetric matrix and the
    least distance of an eigenvalue from 0."""
    lam = np.linalg.eigvalsh(A)
    return int(np.sum(lam < 0.0)), float(np.min(np.abs(lam), initial=np.inf))


def _exact_sweep(point: AnalysisPoint) -> SweepStats:
    """Leg b, decided on a superset of the product set, in the local model
    of ``AnalysisPoint.model``.

    In the blocks' frames an element has the weight u = 1 / (1 + weight)
    on the FREE coordinates, 0 on the PINNED ones (P), any u_i in [0, 1]
    on the UP and DOWN kinks and an operator 0 <= V <= I on each block's
    BLOCK coordinates; the kinks K are the UP, DOWN and BLOCK coordinates
    together.  Solving the FREE rows for their multipliers leaves H, which
    holds their curvature weights.  The element is then singular iff J_S
    has dependent rows or Z^T (H + J_R^T C J_R) Z is singular, where S is
    P with the null directions of u, Z spans null(J_S), R holds the rest
    of the kinks and C = u^-1 - I on them, a PSD matrix that decreases
    with u in the Loewner order.  So every eigenvalue is monotone in u,
    and u -> 0 is the limit on the smaller space (Cauchy interlacing).
    Hence every element is nonsingular iff both extremes are, every kink
    free (u = 1, V = I, the canonical element) and every kink pinned
    (u = 0, V = 0, the pattern-zeros element), and their reduced matrices
    A0 = Z0^T H Z0 on null(J_P) and Z1^T A0 Z1 on null(J_{P+K}), the
    model's two kernels, have equally many negative eigenvalues.
    Both extremes are B-elements, and the segment of one common kink
    weight u, V = u I, lies in the product set.

    No element is formed.  The canonical extreme is singular iff J_P has
    rank below |P| at ``opts.tol`` or A0 an eigenvalue within SWEEP_TOL of
    0 (``LocalModel.saddle_nonsingular``); where J_P has full row rank,
    the pattern-zeros one iff G = J_K Z0 has rank below |K| or Z1^T A0 Z1
    an eigenvalue within SWEEP_TOL of 0.  A singular extreme is a witness,
    and so, when the counts differ, is the bisection step on u nearest
    singular.  The stats name the witness, or else the extreme, of least
    margin: min(sigma_min(J_P), |lambda(A0)|) or min(sigma_min(G),
    |lambda(Z1^T A0 Z1)|), sigma_min reading 0 where there are more rows
    than columns, and min |lambda| of its reduced matrix at a witness.
    ``n_elements`` counts the inertias computed.
    """
    problem, m = point.problem, point.model
    kink = (m.codes != PINNED) & (m.codes != FREE)
    counts = [int(np.sum(m.lam < 0.0))]
    seen = [(not m.saddle_nonsingular(),  # (singular, margin, tag) of each element examined
             np.min(np.concatenate([m.svd_P[1], np.abs(m.lam)]), initial=np.inf), "canonical")]
    if kink.any():
        count, gap = _negative_count(m.Z1.T @ m.A0 @ m.Z1)
        counts.append(count)
        seen.append((m.Z0.shape[1] - m.Z1.shape[1] != np.sum(kink) or gap <= SWEEP_TOL,
                     np.min(m.sv_G, initial=gap), "pattern-zeros"))
    steps = 0
    if counts[0] != counts[-1] and not any(e[0] for e in seen):
        u, gap, steps = _bisect_common_weight(m.A0, m.G.T @ m.G, counts[0])
        seen.append((True, gap, f"kink-weight({u!r})"))
    singular, margin, tag = min(seen, key=lambda e: (not e[0], e[1]))
    argmin = tuple(p.provenance(tag if kb.any() else "canonical")
                   for p, kb in zip(problem.pieces, problem.blocks(kink)))
    verdict = "singular-element-found" if singular else "all-elements-nonsingular"
    return SweepStats(verdict, float(margin), len(counts) + steps, SWEEP_TOL, argmin)


def _bisect_common_weight(A: np.ndarray, B: np.ndarray, count_hi: int) -> tuple[float, float, int]:
    """(u, gap, steps): bisection on the common kink weight u in (0, 1] for
    an element near singular, where A + ((1 - u) / u) B is the reduced
    matrix at u, count_hi its negative count at u = 1, and the count as u
    -> 0 differs.  The bracket keeps ends of different counts.  Ends after
    64 steps, or as soon as an eigenvalue lies within SWEEP_TOL / 2 of 0;
    u is the step nearest singular, gap its least |eigenvalue|."""
    lo, hi = 0.0, 1.0
    best, best_gap = 1.0, np.inf
    for steps in range(1, 65):
        u = 0.5 * (lo + hi)
        count, gap = _negative_count(A + ((1.0 - u) / u) * B)
        if gap < best_gap:
            best, best_gap = u, gap
        if gap <= 0.5 * SWEEP_TOL:
            break
        if count != count_hi:
            lo = u
        else:
            hi = u
    return best, best_gap, steps


def strong_regularity_probe(problem: CompositeProblem, zbar,
                            opts: AnalyzerOptions | None = None) -> ProbeStats:
    """Leg c: unique Lipschitz solvability of the perturbed linearized
    inclusion, tested at delta = 0 and at ``num_delta`` perturbations drawn
    uniformly from the ball of ``radius``.

    ``_exact_probe`` first decides whether the local model's W is positive
    definite; where it is not, it returns the certificate that the point
    is not strongly regular, at any number of kinks.  Otherwise it solves
    each delta's one local solution from one complementarity problem over
    an orthant times one PSD cone per block of |beta| >= 2, all deltas as
    one stack of ``_conic_complementarity``, and the modulus is
    the largest difference quotient |z1 - z2| / |d1 - d2| over them.  A
    delta whose solve does not converge, or whose solution fails its
    check, is counted as a failure, which leaves leg c undecided.
    """
    point = analysis_point(problem, zbar, opts)
    opts = point.opts
    dim = problem.n + problem.m
    rng = np.random.default_rng(opts.seed)
    deltas = [np.zeros(dim)]
    for _ in range(opts.num_delta):
        u = rng.standard_normal(dim)
        u /= np.linalg.norm(u)
        r = rng.uniform() ** (1.0 / dim)
        deltas.append(opts.radius * r * u)
    # a delta so large that its solution overflows raises a ValueError,
    # without numpy's warnings on the way
    with np.errstate(over="ignore", invalid="ignore"):
        return _exact_probe(point, np.array(deltas))


def _probe_stats(opts: AnalyzerOptions, solutions: list[tuple[np.ndarray, np.ndarray]],
                 violations: int, pieces: int, failures: int = 0,
                 failure: str = "") -> ProbeStats:
    """The ProbeStats of the (delta, solution) pairs, the modulus their
    largest difference quotient (``_modulus``)."""
    modulus = 0.0
    if len(solutions) > 1:
        modulus = _modulus(*(np.array(stack) for stack in zip(*solutions)))
    return ProbeStats(modulus=modulus, violations=int(violations), failures=int(failures),
                      solved=len(solutions), num_delta=opts.num_delta, radius=opts.radius,
                      pieces=pieces, failure=failure)


def _modulus(D: np.ndarray, Z: np.ndarray) -> float:
    """The largest quotient |Z_i - Z_j| / |D_i - D_j| over the pairs i < j of
    rows whose gap |D_i - D_j| exceeds 1e-12, 0 when none does, or NaN
    where one quotient is NaN (inf / inf after an overflow): the scalar
    formula taken pair by pair in order.

    Past 15 pairs (6 rows), where the stack costs less than the pairs it
    spares, every pair's quotient is first taken at once, from row sums of
    squares, which may round otherwise than ``np.linalg.norm``.  The scalar
    formula then runs only on the pairs where that can matter: a quotient
    within a relative 1e-9 of the largest one, a gap within a relative
    1e-9 of the cut, and a sum of squares that is not finite or lies near
    overflow or underflow.  So every bit is the scalar formula's."""
    band = 1e-9
    i, j = np.nonzero(np.arange(len(Z))[:, None] < np.arange(len(Z)))  # the pairs, in order
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if i.size > 15:
            dd, dz = D[i] - D[j], Z[i] - Z[j]
            gap2, num2 = np.einsum("pk,pk->p", dd, dd), np.einsum("pk,pk->p", dz, dz)
            gaps = np.sqrt(gap2)
            quotients = np.sqrt(num2) / gaps
            unsafe = ~((gap2 < 1e290) & (num2 < 1e290)) | ((num2 > 0.0) & (num2 < 1e-290))
            near_cut = np.abs(gaps - 1e-12) <= band * 1e-12
            sure = (gaps > 1e-12) & ~near_cut & ~unsafe
            top = quotients[sure].max(initial=0.0)
            check = unsafe | near_cut | (sure & (quotients >= (1.0 - band) * top))
            i, j = i[check], j[check]
        modulus = 0.0
        for a, b in zip(i.tolist(), j.tolist()):
            gap = float(np.linalg.norm(D[a] - D[b]))
            if gap > 1e-12:
                q = float(np.linalg.norm(Z[a] - Z[b])) / gap
                if q > modulus or q != q:  # NaN stays once it appears
                    modulus = q
    return modulus


def _exact_probe(point: AnalysisPoint, deltas: np.ndarray) -> ProbeStats:
    """Leg c on the local model of ``AnalysisPoint.model``: the
    certificate that the point is not strongly regular, or each delta (the
    rows of ``deltas``, the first 0) solved by one complementarity problem
    over the kinks.

    In the blocks' frames each coordinate keeps to one linear branch: a
    FREE one has dmu_i = weight_i e_i for its excess e_i = J_i dx +
    delta2_i, where the weight is 0 except on the alpha-gamma coordinates
    of a PSD block, and a PINNED one has e_i = 0.  The kinks K are the
    rest.  A half-line kink i (UP or DOWN), of sign s_i, either keeps
    dmu_i = 0 with s_i e_i >= 0, or has e_i = 0 with s_i dmu_i <= 0.  The
    beta-beta coordinates of a PSD block with |beta| >= 2 (BLOCK) are the
    svec image of a |beta| x |beta| matrix, with sign +1: the projection's
    B-derivative there is Pi_{S+^|beta|}(e + dmu) (Pang, Sun & Sun 2003;
    Sun 2006), so e = Pi(e + dmu) says that e and -dmu lie in S+ and are
    orthogonal.  The eigenvalues of the frame descend, so beta is one run
    of indices, and the coordinates (i, j) of beta x beta, in the block's
    svec order, are in the svec order of that matrix.  At a polyhedral
    point these branches are the prox near the point, and their solutions
    solve the linearized inclusion.  With a PSD block they are the
    B-derivative of the projection at the point; a block with |beta| <= 1
    makes it piecewise linear, its simple zero eigenvalue one UP kink.  The
    point is strongly regular iff the B-derivative's equation is uniquely
    and Lipschitz solvable (Kummer 1991; Scholtes 2012, ch. 4; Sun 2006),
    and the probe solves that equation.  Solving the FREE rows for dmu
    turns H into the model's H and delta1 into delta1 - J^T diag(weight)
    delta2, in frame coordinates.

    The canonical element (every kink on its excess branch) is the saddle
    S = [[H, J_P^T], [J_P, 0]], solved by the null-space method (Benzi,
    Golub & Liesen 2005, sec. 6) from the model's svd of J_P and
    eigendecomposition A0 = V0 diag(lam) V0^T: S [y; nu] = [f; b] has
    y = y_p + Z0 V0 diag(1/lam) (Z0 V0)^T (f - H y_p), y_p = J_P^+ b, and
    nu = (J_P^T)^+ (f - H y).  S is nonsingular iff J_P has full row rank
    |P| and A0 is nonsingular.  With g_i = -dmu_i, the kinks' excess is
    e = q + W g, W = Psi S^-1 Psi^T symmetric (K, K) for the kinks'
    readout rows Psi = [J_K, 0], that is W = (G V0) diag(1/lam) (G V0)^T
    with the model's G = J_K Z0, whose rows are these kinks.  At a point
    of half-line kinks only, the piece that switches the kinks F solves
    W_FF g_F = -q_F with e_F = 0; by the Schur complement its determinant
    is det(S) det(W_FF) up to one sign shared by every piece, so the 2^K
    pieces are coherently oriented, which makes the map a Lipschitz
    homeomorphism (Robinson 1992), iff S is nonsingular and W is a
    P-matrix, which for a symmetric W means positive definite.

    Where S is singular (``LocalModel.saddle_nonsingular``, leg b's test
    of the canonical element) or W's least eigenvalue is at most SWEEP_TOL
    max(1, |lambda(W)|_max), the point is not strongly regular, at any K:
    the stats are the certificate, one violation at delta = 0 with the
    point itself as its one solution.  With BLOCK kinks this rests on leg
    b.  Otherwise, for the bordered matrix [[A0, G^T], [G, 0]],
    Haynsworth's inertia identity gives neg(Z1^T A0 Z1) = neg(A0) +
    pos(W) - rank G, so a W that is not positive definite has pos(W) <
    rank G, or rank G below K, and both leave the extremes of
    ``_exact_sweep`` with different negative counts or a singular
    pattern-zeros element: leg b is false, and by the paper's equivalence
    (a singular Clarke element) the point is not strongly regular.

    Otherwise each delta has exactly one solution.  With D = diag(s),
    y = D g solves y in C, D q + D W D y in C, <y, D q + D W D y> = 0 over
    the self-dual cone C = R_+^{K1} x (one S+^|beta| per BLOCK run), the
    optimality system of a strictly convex quadratic program, whose matrix
    D W D is positive definite (Cottle, Pang & Stone 1992, ch. 3; Facchinei
    & Pang 2003, ch. 2).  One ``_conic_complementarity`` call solves it
    for every delta, with no PSD factor where no kink is BLOCK, and one
    more solve with S gives the solution.  One stacked residual checks every
    solution against 2 (tol + the kink tolerance ``_kink_tol``) max(1,
    |delta|_inf), since the rounding of the B-derivative's equation, which
    is positively homogeneous, grows with |delta|.  With a PSD block the
    check is ``_b_derivative_residual``.  At a polyhedral point it is the
    linearized residual, and ``_b_derivative_residual`` only on the rows
    that fail it, where a delta leaves the local pieces, which does not
    make the solution wrong.  A delta whose solve does not converge, or whose
    solution fails the check, is a failure, and ``failure`` names the
    first.  A huge radius overflows the arithmetic, the norm of q that
    ``_conic_complementarity`` scales by, a solution or a difference
    quotient, and raises a ValueError.
    """
    problem, opts, m = point.problem, point.opts, point.model
    J, codes, weight = m.J, m.codes, m.weight
    n = problem.n
    pinned = np.flatnonzero(codes == PINNED)
    kinks = np.flatnonzero((codes != PINNED) & (codes != FREE))
    block = codes[kinks] == BLOCK
    pieces = 2 ** int(np.sum(~block))
    oriented = m.saddle_nonsingular()
    if oriented:
        GV = m.G @ m.V0
        W = (GV / m.lam) @ GV.T
        W = 0.5 * (W + W.T)
        ev = np.linalg.eigvalsh(W)
        oriented = ev.min(initial=np.inf) > SWEEP_TOL * max(1.0, np.abs(ev).max(initial=0.0))
    if not oriented:
        return _probe_stats(opts, [(deltas[0], point.kkt.stacked())], 1, pieces)
    U, s, Vh = m.svd_P
    Vr, ZV = Vh[:pinned.size], m.Z0 @ m.V0

    def saddle_y(f: np.ndarray, b: np.ndarray) -> np.ndarray:
        # the y of S [y; nu] = [f; b], on the rows of f (k, n) and b (k, |P|)
        y = ((b @ U) / s) @ Vr
        return y + (((f - y @ m.H) @ ZV) / m.lam) @ ZV.T

    side_tol = float(_kink_tol(np.concatenate([xb + ub for _, xb, ub in point.pairs]))[0])
    d1, d2 = deltas[:, :n], point.coords(deltas[:, n:])
    if weight.any():
        d1 = d1 - (weight * d2) @ J
    b = -d2[:, pinned]
    q = J[kinks] @ saddle_y(d1, b).T + d2[:, kinks].T
    overflow = ValueError(f"the probe overflows at radius {opts.radius:.3g}; "
                          f"take a smaller radius")
    if not np.isfinite(np.linalg.norm(q, axis=0)).all():
        raise overflow
    sign = np.where(codes[kinks] == DOWN, -1.0, 1.0)
    M = sign[:, None] * W * sign
    # one PSD factor per block's run of BLOCK kinks, none at an orthant-only point
    owner = np.searchsorted(problem.offsets, kinks[block], side="right")
    runs = np.split(np.flatnonzero(block), np.flatnonzero(np.diff(owner)) + 1)
    ys = _conic_complementarity(M, sign * q.T, [(r, PSDConeIndicator(svec_order(r.size)))
                                                 for r in runs if r.size])
    unsolved = np.isnan(ys).any(axis=1)
    g = sign * ys
    f = d1 + g @ J[kinks]
    y = saddle_y(f, b)
    dz = np.zeros_like(deltas)
    dz[:, :n], dz[:, n + pinned] = y, (((f - y @ m.H) @ Vr.T) / s) @ U.T  # nu
    dz[:, n + kinks] = -g
    if weight.any():
        dz[:, n:] += weight * (y @ J.T + d2)
    dz[:, n:] = point.vectors(dz[:, n:])
    Z = point.kkt.stacked() + dz
    rows = np.flatnonzero(~unsolved)
    if not np.isfinite(Z[rows]).all():
        raise overflow
    bound = 2.0 * (opts.tol + side_tol) * np.maximum(1.0, np.abs(deltas).max(axis=1))
    err = np.full(len(deltas), np.nan)  # each solved row's largest residual entry
    if point.polyhedral:
        # one prox call, cheaper here than a directional derivative per block
        # (analyze-nlp); at a PSD block the B-derivative's solution solves
        # the linearized inclusion only to first order (analyze-sdp)
        shifted = Z[rows]
        shifted[:, n:] += deltas[rows, n:]  # the inclusion's shifted multiplier mu + delta2
        want = np.concatenate([deltas[rows, :n] + deltas[rows, n:] @ point.J, deltas[rows, n:]],
                              axis=1)
        err[rows] = np.abs(linearized_residual(problem, point.kkt, shifted,
                                               (point.hessian, point.J, point.Fbar))
                           - want).max(axis=1)
        rows = rows[~(err[rows] <= bound[rows])]  # the rows that fail it, NaN ones too
    if rows.size:
        err[rows] = np.abs(_b_derivative_residual(point, dz[rows], deltas[rows])).max(axis=1)
    failed = np.flatnonzero(~(err <= bound))  # unsolved rows and NaN residuals too
    failure = ""
    if failed.size:
        j = failed[0]
        failure = (f"delta {j}: the conic complementarity solve did not converge"
                   if unsolved[j] else
                   f"delta {j}: residual {err[j]:.3e} above its bound {bound[j]:.3e}")
    keep = np.delete(np.arange(len(deltas)), failed)
    stats = _probe_stats(opts, list(zip(deltas[keep], Z[keep])), 0, pieces, failed.size, failure)
    if not np.isfinite(stats.modulus):
        raise overflow
    return stats


def _b_derivative_residual(point: AnalysisPoint, dz: np.ndarray,
                           deltas: np.ndarray) -> np.ndarray:
    """The residual of the B-derivative's equation at each row of dz:
    H dx + J^T dmu - delta1 and e - Pi'(wbar; e + dmu) for the excess
    e = J dx + delta2, with each block's ``prox_dirderiv`` at its
    wbar = F(xbar)_b + mu_b called once, on the stack of every row's
    directions."""
    n = point.problem.n
    dx, dmu = dz[:, :n], dz[:, n:]
    e = dx @ point.J.T + deltas[:, n:]
    r1 = dx @ point.hessian + dmu @ point.J - deltas[:, :n]
    dirderiv = [p.prox_dirderiv(xb + ub, db)
                for (p, xb, ub), db in zip(point.pairs, point.problem.blocks(e + dmu))]
    return np.concatenate([r1, e - np.concatenate(dirderiv, axis=1)], axis=1)


def _conic_complementarity(M: np.ndarray, Q: np.ndarray, cones: list) -> np.ndarray:
    """The y of each row q of Q with y in C, w = q + M y in C and <y, w> = 0,
    for a symmetric positive definite M, where C is R_+ on every coordinate
    outside the PSD factors ``cones``, pairs (index, PSDConeIndicator) of a
    run of svec coordinates; a NaN row where a row does not converge.

    This is the optimality system of min f(y) = y^T M y / 2 + q^T y over
    the self-dual cone C.  Its solution is positively homogeneous in q, so
    each row is solved at q / |q| and scaled back; q = 0 has y = 0.  Each
    row runs a semismooth Newton method on the natural map F(y) = y -
    Pi_C(y - gamma w) with gamma = 0.95 / lambda_max(M), from y = 0: with
    the Clarke element V of Pi_C (of each factor, from its
    ``prox_and_frame``; 0 or 1 on the orthant), the step d solves
    (I - V A) d = -F for A = I - gamma M.  For that gamma the merit, the
    forward-backward envelope phi(y) = f(y) - <w, F> + |F|^2 / (2 gamma),
    is convex and continuously differentiable with gradient A F / gamma,
    and (I - V A) d = -F is the Newton step on it with the positive
    definite generalized Hessian A (I - V A) / gamma, so d descends
    (Patrinos, Stella & Bemporad 2014).  The step length halves until phi
    falls by 1e-4 of its first-order prediction, or |F|^2 by the fraction
    1e-4 of the step, which keeps full steps near the solution, where phi
    is within rounding of its minimum.  A row ends when |F| is at most
    1e-12 (|y| + gamma |w|); one whose line search collapses, or that is
    still running after _CONIC_MAX_ITER iterations or when a stacked
    Newton solve raises, did not converge.  All rows run as one stack.
    With no coordinate (K = 0) every y is empty."""
    K = M.shape[0]
    if not K:
        return np.zeros_like(Q)
    half = np.ones(K, dtype=bool)
    for idx, _ in cones:
        half[idx] = False
    gamma = 0.95 / np.linalg.eigvalsh(M)[-1]
    eye = np.eye(K)
    A = eye - gamma * M

    def state(y: np.ndarray, q: np.ndarray) -> list[np.ndarray]:
        # per row: y, w, F, |F|^2, phi - f(y) and the Newton matrix I - V A
        w = q + y @ M
        z = y - gamma * w
        p = np.maximum(z, 0.0)
        V = np.zeros(z.shape + (K,))
        V[:, half, half] = z[:, half] > 0.0
        for idx, cone in cones:
            p[:, idx], frame = cone.prox_and_frame(z[:, idx])
            V[:, idx[:, None], idx] = frame.matrix()
        r = y - p
        rr = (r * r).sum(axis=1)
        return [y, w, r, rr, rr / (2.0 * gamma) - (w * r).sum(axis=1), eye - V @ A]

    # row norms as square roots of row sums, the bits of np.linalg.norm
    scale = np.sqrt((Q * Q).sum(axis=1))
    rows = np.flatnonzero(scale > 0.0)
    out = np.zeros_like(Q)
    out[rows] = np.nan
    q = Q[rows] / scale[rows, None]
    S = state(np.zeros_like(q), q)
    stalled = np.zeros(rows.size, dtype=bool)
    for _ in range(_CONIC_MAX_ITER):
        y, w, r, rr, e, E = S
        done = rr <= (1e-12 * (np.sqrt((y * y).sum(axis=1))
                               + gamma * np.sqrt((w * w).sum(axis=1)))) ** 2
        out[rows[done]] = y[done] * scale[rows[done], None]
        keep = ~(done | stalled)  # one filter: the rows solved and the rows stalled
        rows = rows[keep]
        if not rows.size:
            break
        if not keep.all():
            q, S = q[keep], [a[keep] for a in S]
        y, w, r, rr, e, E = S
        try:
            d = -np.linalg.solve(E, r[..., None])[..., 0]
        except np.linalg.LinAlgError:
            break
        slope = ((r @ A) * d).sum(axis=1) / gamma
        t, search = 1.0, np.arange(rows.size)
        while search.size and t >= 1e-10:
            trial = state(y[search] + t * d[search], q[search])
            ds = d[search]
            drop = (t * (ds * w[search]).sum(axis=1) + 0.5 * t * t * ((ds @ M) * ds).sum(axis=1)
                    + trial[4] - e[search])
            ok = ((drop <= 1e-4 * t * slope[search])
                  | (trial[3] <= (1.0 - 1e-4 * t) * rr[search]))  # NaN fails both
            for a, b in zip(S, trial):
                a[search[ok]] = b[ok]
            search, t = search[~ok], 0.5 * t
        stalled = np.zeros(rows.size, dtype=bool)
        stalled[search] = True  # a collapsed line search ends its row unsolved
    return out


# ----------------------------------------------------------------------
# the equivalence cross-check


# the consistency note of a report: at a polyhedral point, at a point with
# PSD blocks, and at one with BLOCK kinks (a PSD block of |beta| >= 2, where
# the B-derivative is not piecewise linear); leg b is exact everywhere, and
# so is leg c unless a perturbation leaves it undecided
_NOTES = {
    "polyhedral": "leg b is exact at this point; so is leg c (coherent orientation), "
                  "whose modulus is a sampled lower bound",
    "psd": "leg b is exact at this point; so is leg c (coherent orientation of the "
           "B-derivative), whose modulus is a sampled lower bound",
    "conic": "leg b is exact at this point; so is leg c (a positive definite W, one solution "
             "of the B-derivative's conic complementarity problem per perturbation), whose "
             "modulus is a sampled lower bound",
    "undecided": "leg b is exact at this point; leg c is undecided, since a perturbation's "
                 "local solve failed (see the probe's failure)",
}


def equivalence_report(problem: CompositeProblem, zbar,
                       opts: AnalyzerOptions | None = None) -> StabilityReport:
    """Run every check and compare the three legs of the equivalence:
    (a) second-order condition with nondegeneracy, (b) nonsingularity of
    the elements of ``nonsingularity_sweep``, (c) the strong-regularity
    probe.

    Legs b and c are exact at every point.  Leg c is false from the
    certificate that W is not positive definite (the local pieces are not
    coherently oriented, or at a PSD block of |beta| >= 2 the inertia
    identity that makes leg b false), true where it is, with each sampled
    perturbation solved exactly for the modulus, and undecided (None)
    where a perturbation's solve fails.  The verdict is 'undecided' when
    leg c is, else 'consistent' exactly when all legs agree; the
    disagreement names the first pair of decided legs that differ.  The
    note says which certificate leg c reads, or that it is undecided.
    """
    point = analysis_point(problem, zbar, opts)
    opts = point.opts
    rcq = rcq_check(problem, point)
    srcq = srcq_check(problem, point)
    nondeg = nondegeneracy_check(problem, point)
    unique, _ = multiplier_uniqueness(problem, point)
    if unique:
        ssosc = ssosc_check(problem, point)
        leg_a = nondeg.status == ssosc.status == "holds"
    elif nondeg.status == "fails":
        # the conjunction is already decided; the second-order check would
        # need a unique multiplier and is skipped
        ssosc = Verdict("skipped", opts.tol, "multiplier set is not a singleton")
        leg_a = False
    else:
        raise UnsupportedCaseError(
            "nondegeneracy holds but the multiplier is not unique; "
            "inconsistent instance data")
    sweep = nonsingularity_sweep(problem, point)
    probe = strong_regularity_probe(problem, point)
    leg_b = sweep.verdict == "all-elements-nonsingular"
    leg_c = None if probe.failures else probe.violations == 0
    legs = {"a": leg_a, "b": leg_b, "c": leg_c}
    disagreement = next((f"{u} vs {v}" for u, v in (("a", "b"), ("a", "c"), ("b", "c"))
                         if None not in (legs[u], legs[v]) and legs[u] != legs[v]), "")
    consistency = {
        "leg_a_second_order_and_nondegeneracy": leg_a,
        "leg_b_elements_nonsingular": leg_b,
        "leg_c_probe_strong_regularity": leg_c,
        "verdict": ("undecided" if leg_c is None else
                    "inconsistent" if disagreement else "consistent"),
        "disagreement": disagreement,
        "note": _NOTES["undecided" if leg_c is None else "polyhedral" if point.polyhedral
                       else "conic" if (point.model.codes == BLOCK).any() else "psd"],
    }
    return StabilityReport(
        instance=problem.name,
        rcq=rcq,
        srcq=srcq,
        nondegeneracy=nondeg,
        multiplier_unique=unique,
        ssosc=ssosc,
        sweep=sweep,
        probe=probe,
        consistency=consistency,
        seed=opts.seed,
        tolerances={"kkt": opts.tol, "sweep": SWEEP_TOL},
    )


# ----------------------------------------------------------------------
# structural assumption checkers


def assumption_check(piece: ConvexPiece, xbar, ubar,
                     samples: list[LinearOperatorElement],
                     tol: float = 1e-8) -> dict[str, Verdict]:
    """Numerical evidence for the structural conditions behind the
    second-order theory.

    range_condition: the sampled element ranges span exactly the affine
    hull of the critical set.  kernel_condition: the sampled null spaces
    span the orthogonal complement of the lineality space.
    attainment_condition: a plain (non-hull) element attains the
    curvature minimum for directions drawn from the sampled ranges.
    """
    structure = piece.structure(xbar, ubar)
    range_cols = np.hstack([el.matrix for el in samples])
    S_range = orthonormal_span(range_cols)
    res_range = mutual_span_residual(S_range, structure.affine_hull_basis)
    range_verdict = Verdict(
        "evidence-for" if res_range <= tol else "counterexample-found",
        tol, f"mutual span residual {res_range:.3e}")

    null_bases = [nullspace(el.matrix) for el in samples]
    cols = np.hstack(null_bases) if null_bases else np.zeros((piece.dim, 0))
    S_null = orthonormal_span(cols)
    complement = nullspace(structure.lineality_basis.T)
    res_null = mutual_span_residual(S_null, complement)
    kernel_verdict = Verdict(
        "evidence-for" if res_null <= tol else "counterexample-found",
        tol, f"mutual span residual {res_null:.3e}")

    b_elements = [el for el in samples if "convex(" not in el.provenance]
    rng = np.random.default_rng(0)
    worst = 0.0
    for k in range(20):
        el = samples[k % len(samples)]
        d = rng.standard_normal(piece.dim)
        v = el.matrix @ d
        closed = structure.gamma(v)
        best_b = sampled_gamma(v, b_elements)
        if np.isfinite(closed) and np.isfinite(best_b):
            scaled = abs(closed - best_b) / (1.0 + abs(closed))
        elif np.isfinite(closed) == np.isfinite(best_b):
            scaled = 0.0  # both infinite: agreement on the domain boundary
        else:
            scaled = float("inf")
        worst = max(worst, scaled)
    attainment_verdict = Verdict(
        "evidence-for" if worst <= tol else "counterexample-found",
        tol, f"worst attainment gap {worst:.3e}")

    return {
        "range_condition": range_verdict,
        "kernel_condition": kernel_verdict,
        "attainment_condition": attainment_verdict,
    }
