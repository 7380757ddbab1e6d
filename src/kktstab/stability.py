"""Constraint qualifications, second-order conditions, and the empirical
cross-check of the stability equivalence at a KKT point.

Verdicts always carry the tolerance they were decided at.  Everything that
rests on sampling (the alternating-projection cone search, the Newton
probe) is reported as evidence, never as a certificate: the wording is
"heuristic-likely", and the report's note says when leg c is sampled.
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
reads "all-elements-nonsingular" or names a singular witness element.  At
a polyhedral point and at every point with PSD blocks, the probe first
decides whether one symmetric K x K matrix W over the kinks is positive
definite, from the model's svd and eigendecomposition, which solve the
canonical piece by the null-space method.  A simple zero eigenvalue of a
PSD block is one more half-line kink of the projection's B-derivative,
and W positive definite says the 2^K local pieces are coherently
oriented; the beta-beta coordinates of a block with |beta| >= 2 are one
PSD kink, where the inertia identity that leg b reads makes W positive
definite iff leg b holds.  Where W is not, the point is not strongly
regular, and leg c reads that certificate at any K.  Otherwise it solves
each sampled perturbation exactly, as one complementarity problem with a
positive definite matrix, over an orthant (an LCP) or over an orthant
times PSD cones; only where the local model breaks down does it run its
stacked Newton solves.

Every check takes ``(problem, zbar, opts=None)`` and reads its settings
from the one ``AnalyzerOptions`` of the ``AnalysisPoint`` it runs at, which
decides each cone once.

rcq, srcq and multiplier uniqueness ask whether null(J^T) meets a cone
only at the origin.  Every cone is read in each block's frame (the
identity for a polyhedral block), where it pins some coordinates, bounds
some on one side and makes the rest NSD blocks, and is decided in one
order.  A "holds" comes first and is exact: either the pinned coordinates
are injective on null(J^T), or Gordan's alternative gives a y inside
R_+ x PSD, orthogonal to the range of the remaining map, checked with one
eigvalsh per block and a factor-2 margin.

A cone is its frame rows and their class codes, and nothing else: the
point's one projection onto it (per block, the codes' intervals and an
NSD projection in the frame) serves every witness test and search.  When
no certificate verifies and the pinned coordinates leave one line of
null(J^T), the cone's points in null(J^T) lie on that line, so an exact
test of its two rays decides: a ray in the cone is the "fails" point, and
no ray is an exact "holds".  Only a kernel of two or more dimensions goes
further.  A polyhedral (interval) cone then gets one rank test and at
most one bounded linear program: a "fails" carries the point found, a
"holds" a Farkas certificate from the program's duals, which one
matrix-vector product checks, and when neither checks out the verdict is
"heuristic-likely".  A cone with PSD blocks gets the alternating-
projection search, which finds "fails" points or leaves
"heuristic-likely".
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .newton import (NewtonNonConvergence, NewtonOptions, NewtonStagnation, check_integer,
                     check_positive)
from .pieces import (
    _LOWER,
    _POLAR,
    _UPPER,
    BLOCK,
    DOWN,
    FREE,
    PINNED,
    UP,
    ClarkeFrame,
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
    _element_matrix,
    as_point,
    block_prox,
    kkt_check,
    linearized_residual,
    solve_linearized_rows,
)
from .symmat import smat, svec, svec_order

_RANK_TOL = 1e-10
_CONIC_MAX_ITER = 50  # Newton iterations of one conic complementarity solve

# the cause under which ProbeStats.failure_causes counts a failed Newton row
_FAILURE_CAUSES = {"max_iter": NewtonNonConvergence, "stagnation": NewtonStagnation,
                   "linalg_error": np.linalg.LinAlgError}

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
    verdict: str
    min_singular_value: float
    n_elements: int
    tol: float
    argmin_provenance: tuple[str, ...] = ()


@dataclass
class ProbeStats:
    """The probe's tally over its num_delta + 1 perturbations.  ``method``
    says how each was solved: on the local model, "exact" at a polyhedral
    point (the linearized inclusion) or "b-derivative" at a point with PSD
    blocks (the equation of the projection's B-derivative), or "newton"
    from three starts where the local model breaks down, when
    ``failure_causes`` counts the failed solves by cause.  ``pieces`` is
    2^K for the K half-line kinks of the local model (0 on the Newton
    path): each one doubles the pieces of a piecewise-linear map, while
    the beta-beta factor of a PSD block with |beta| >= 2 is a projection
    onto a PSD cone, not piecewise linear, and adds no factor.  A probe on
    the local model whose W is not positive definite reads the certificate
    that the point is not strongly regular: 1 violation and 1 solved (the
    point itself at delta = 0), with modulus 0."""

    modulus: float
    violations: int
    failures: int
    solved: int
    num_delta: int
    radius: float
    uniqueness_tol: float
    method: str
    pieces: int
    failure_causes: dict


class LocalModel(NamedTuple):
    """The local model of an analysis point, in every block's frame
    (``AnalysisPoint.model``).  A Clarke element of the KKT map is, up to
    the orthogonal frames, [[H0, J^T], [(I - U) J, -U]] with H0 the
    weighted Hessian and U block diagonal: 0 on the PINNED coordinates, a
    weight in [0, 1] on the UP and DOWN kinks, an operator between 0 and
    I on each block's BLOCK coordinates (Pang, Sun & Sun 2003), and
    1 / (1 + weight) on the FREE ones, below 1 on the alpha-gamma
    coordinates of a PSD block.  Solving a FREE row for its multiplier
    folds its weight into H = H0 + J^T diag(weight) J.  ``method`` says
    how leg c is decided: "exact" at a polyhedral point, else
    "b-derivative"; the Newton probe runs only where the model breaks down
    (``_exact_probe``).  Its two kernels at ``opts.tol``: Z0 spans
    null(J_P), the critical subspace, read from the full svd ``svd_P`` =
    (U, s, Vh) of J_P, so that J_P has rank n - dim Z0; A0 = Z0^T H Z0 has the ascending eigenvalues ``lam`` with
    eigenvectors ``V0``; Z1 spans null(G) for G = J_K Z0 on the kinks K
    (neither PINNED nor FREE), the probe's kinks.  The svd and V0 also give
    every solve with the saddle [[H, J_P^T], [J_P, 0]] (``_exact_probe``)."""

    J: np.ndarray
    H: np.ndarray
    codes: np.ndarray
    weight: np.ndarray
    method: str
    Z0: np.ndarray
    svd_P: tuple[np.ndarray, np.ndarray, np.ndarray]
    A0: np.ndarray
    lam: np.ndarray
    V0: np.ndarray
    G: np.ndarray
    Z1: np.ndarray


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


SWEEP_TOL = 1e-8  # an element with a smaller least singular value is singular
UNIQUENESS_TOL = 1e-6  # the probe's bound on the spread of one delta's solutions


@dataclass(frozen=True)
class AnalyzerOptions:
    """The settings of one analysis point: ``tol`` for its KKT, cone and
    rank tests, ``srcq_budget`` and ``seed`` for a cone search,
    ``num_delta``, ``radius`` and ``newton`` for the probe.  ``count`` no
    longer changes the analysis, since the sweep samples no element; it is
    kept, and validated, for callers that still pass it."""

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
    """Orthonormal basis of the null space, columns of the result."""
    return _kernel_svd(M, rtol)[0]


def _kernel_svd(M: np.ndarray, rtol: float) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """``nullspace(M, rtol)`` and the full svd (U, s, Vh) of M it is read
    from, so M has rank n - (its columns); an M without a nonzero entry has
    U = I, s = 0 and Vh = I."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    p, n = M.shape
    if p == 0 or not np.any(M):
        return np.eye(n), (np.eye(p), np.zeros(min(p, n)), np.eye(n))
    U, s, Vh = np.linalg.svd(M)
    rank = int(np.sum(s > rtol * max(1.0, s[0])))
    return Vh[rank:].T, (U, s, Vh)


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
    (whose class codes give the cones), the local model with its two
    kernels, null(J^T) and each cone's decision are computed on first use
    and kept, so the checks that share one point compute each of them
    once, and a report calls F, J and the weighted Hessian once each."""

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
        return [p.structure(xb, ub, self.opts.tol, pb)
                for (p, xb, ub), pb in zip(self.pairs, self.prox)]

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
    def model(self) -> LocalModel:
        """The local model of every leg, in every block's frame: J, H with
        the curvature weights folded in, the critical codes (the one BLOCK
        coordinate of a |beta| = 1 block read as UP, a half-line kink), the
        method that decides leg c, and the two kernels.  At a polyhedral
        point J and H are the point's own."""
        codes = np.concatenate([np.where(c == BLOCK, UP, c) if np.sum(c == BLOCK) == 1 else c
                                for c in (st.critical for st in self.structures)])
        weight = np.concatenate([st.weight for st in self.structures])
        J, on = self.coords(self.J.T).T, weight > 0.0
        H = self.hessian + _gram(J[on].T, weight[on]) if on.any() else self.hessian
        method = "exact" if self.polyhedral else "b-derivative"
        pinned = codes == PINNED
        Z0, svd_P = _kernel_svd(J[pinned], self.opts.tol)
        A0, G = Z0.T @ H @ Z0, J[~(pinned | (codes == FREE))] @ Z0
        return LocalModel(J, H, codes, weight, method, Z0, svd_P, A0, *np.linalg.eigh(A0), G,
                          nullspace(G, self.opts.tol))

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

    @functools.cached_property
    def adjoint_nullspace(self) -> np.ndarray:
        return nullspace(self.J.T, self.opts.tol)

    def _frame_rows(self, cone_name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(W, codes, groups): the rows W = frame^T N of null(J^T) in every
        block's frame coordinates, each row's class code in the named cone,
        and the index of the block it belongs to."""
        N = self.adjoint_nullspace
        W = np.vstack([st.coords(Nb.T) for st, Nb in zip(self.structures,
                                                        self.problem.blocks(N.T))])
        codes = np.concatenate([_CONE_CODES[cone_name](st) for st in self.structures])
        groups = np.repeat(np.arange(len(self.structures)),
                           [st.critical.size for st in self.structures])
        return W, codes, groups

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

        Every cone is decided once per point, in one order: an empty
        null(J^T), then ``_gordan_certificate`` on the frame rows, each an
        exact 'holds'.  When no certificate verifies and the kernel T of the
        PINNED rows is one line, ``_ray_decision`` decides exactly both
        ways.  Only a T of two or more columns goes to
        ``_lp_nonzero_points`` (interval cones) or to ``opts.srcq_budget``
        alternating-projection restarts drawn from ``opts.seed`` (cones with
        PSD blocks), every test at ``opts.tol``."""
        if cone_name not in self._searches:
            self._searches[cone_name] = self._decide(cone_name)
        return self._searches[cone_name]

    def _decide(self, cone_name: str) -> tuple[list[np.ndarray], str]:
        N, opts = self.adjoint_nullspace, self.opts
        if not N.shape[1]:
            return [], "holds"
        W, codes, groups = self._frame_rows(cone_name)
        T = nullspace(W[codes == PINNED], opts.tol)
        if _gordan_certificate(W, codes, groups, T):
            return [], "holds"
        project = functools.partial(self.project, cone_name)
        if T.shape[1] == 1:
            return _ray_decision(N @ T, project, opts.tol)
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
    ``cone_search`` calls it only for a cone that ``_gordan_certificate``
    does not certify and whose PINNED rows leave two or more dimensions.

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


def _gordan_certificate(W: np.ndarray, codes: np.ndarray, groups: np.ndarray,
                        T: np.ndarray) -> bool:
    """Whether t = 0 is the only t with W t in the cone, proved exactly;
    False when no proof verifies.  W has orthonormal columns; row i is a
    frame coordinate with class code codes[i], and the BLOCK rows of each
    group, in row order, are the svec coordinates of one NSD block.  T is
    an orthonormal basis of the kernel of the PINNED rows.

    When the PINNED rows are injective (T has no column), they alone force
    t = 0.  Otherwise t = T s, and the cone is {s : A s in K} with
    K = R_+^g x (PSD blocks): A holds the UP rows, the negated DOWN rows
    and the negated BLOCK rows, times T.  A kernel of A leaves the question
    open.  For injective A, Gordan's alternative says the cone is {0} iff
    some y in the interior of K has A^T y = 0; the candidate is the
    projection of (1, ..., 1, svec(I) per block) onto range(A)^perp, and
    ``_gordan_verifies`` checks it.
    """
    if T.shape[1] == 0:
        return True
    half = np.flatnonzero((codes == UP) | (codes == DOWN))
    block = np.flatnonzero(codes == BLOCK)
    rows = np.concatenate([half, block])
    A = np.where(codes[rows] == UP, 1.0, -1.0)[:, None] * W[rows] @ T
    if A.shape[0] < A.shape[1]:
        return False
    U, sv, _ = np.linalg.svd(A, full_matrices=False)
    if sv[-1] <= _RANK_TOL * max(1.0, sv[0]):
        return False
    sizes = np.unique(groups[block], return_counts=True)[1]
    y = np.concatenate([np.ones(half.size)] + [svec(np.eye(svec_order(d))) for d in sizes])
    return _gordan_verifies(A, sv[-1], y - U @ (U.T @ y), sizes)


def _ray_decision(NT: np.ndarray, project, tol: float) -> tuple[list[np.ndarray], str]:
    """([v], 'fails') for the first of v = N T[:, 0] and -v that passes
    ``_in_cone``, else ([], 'holds'), for NT = N T of one column.  T spans
    the kernel of the PINNED rows, so every point of span(N) in the cone
    lies on the line of N T: its two rays are the only candidates, and
    their exact test decides the cone both ways."""
    for v in (NT[:, 0], -NT[:, 0]):
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
    "holds" is exact: from the rank test or Gordan certificate of
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
    are nonsingular, an element with a least singular value of at most
    SWEEP_TOL counting as singular.

    The chain rule gives only an inclusion for Clarke's Jacobian of the
    composite map: the elements tested are [[H, J^T], [(I-U) J, -U]] with
    U in the product of the blocks' Clarke Jacobians.  ``_exact_sweep``
    decides a superset of that product set exactly at every point, one
    whose singular elements it finds inside the product set, so the
    verdict is exact both ways: "all-elements-nonsingular" or
    "singular-element-found".  No element is sampled, and ``count`` is
    not read."""
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

    A singular extreme (least singular value at most SWEEP_TOL, from one
    svd of both, taken in the frames, which keep singular values) is the
    witness.  When the counts differ, the segment holds a singular
    element: bisection on u keeps a bracket whose ends differ in count
    until an eigenvalue of the reduced matrix lies within SWEEP_TOL / 2 of
    0, which bounds the element's least singular value, and one svd
    confirms it.  Either way the verdict is "singular-element-found", with
    the least singular value and provenance of the element examined that
    is nearest singular.  ``n_elements`` counts the reduced matrices whose
    inertia was computed.
    """
    problem, m = point.problem, point.model
    kink = (m.codes != PINNED) & (m.codes != FREE)
    counts = [int(np.sum(m.lam < 0.0))]
    weights, tags = [np.where(m.codes == PINNED, 0.0, 1.0 / (1.0 + m.weight))], ["canonical"]
    if kink.any():
        counts.append(_negative_count(m.Z1.T @ m.A0 @ m.Z1)[0])
        weights.append(np.where(kink, 0.0, weights[0]))
        tags.append("pattern-zeros")
    svs = _element_svs(point, weights)
    n_elements = len(counts)
    if min(svs) > SWEEP_TOL and counts[0] != counts[-1]:
        u, steps = _bisect_common_weight(m.A0, m.G.T @ m.G, counts[0])
        weights.append(np.where(kink, u, weights[0]))
        tags.append(f"kink-weight({u!r})")
        svs += _element_svs(point, weights[-1:])
        n_elements += steps
    i = int(np.argmin(svs))
    singular = svs[i] <= SWEEP_TOL or counts[0] != counts[-1]
    argmin = tuple(p.provenance(tags[i] if kb.any() else "canonical")
                   for p, kb in zip(problem.pieces, problem.blocks(kink)))
    verdict = "singular-element-found" if singular else "all-elements-nonsingular"
    return SweepStats(verdict, float(svs[i]), n_elements, SWEEP_TOL, argmin)


def _element_svs(point: AnalysisPoint, weights: list[np.ndarray]) -> list[float]:
    """The least singular value of the element of each weight vector u of
    frame coordinates (every block's element diag(u_b) in its frame), from
    one svd of their stack."""
    U = [ClarkeFrame(ub).element() for ub in point.problem.blocks(np.array(weights))]
    E = _element_matrix(point.problem, point.hessian, point.model.J, U)
    return np.linalg.svd(E, compute_uv=False)[:, -1].tolist()


def _bisect_common_weight(A: np.ndarray, B: np.ndarray, count_hi: int) -> tuple[float, int]:
    """(u, steps): bisection on the common kink weight u in (0, 1] for an
    element near singular, where A + ((1 - u) / u) B is the reduced matrix
    at u, count_hi its negative count at u = 1, and the count as u -> 0
    differs.  The bracket keeps ends of different counts.  Ends after 64
    steps, or as soon as an eigenvalue lies within SWEEP_TOL / 2 of 0; u is
    the step nearest singular, ``steps`` the number of inertias computed."""
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
    return best, steps


def strong_regularity_probe(problem: CompositeProblem, zbar,
                            opts: AnalyzerOptions | None = None) -> ProbeStats:
    """Leg c: unique Lipschitz solvability of the perturbed linearized
    inclusion, tested at delta = 0 and at ``num_delta`` perturbations drawn
    uniformly from the ball of ``radius``.

    A delta whose solutions lie more than UNIQUENESS_TOL apart is a
    violation, and the modulus is the largest difference quotient
    |z1 - z2| / |d1 - d2| over the first solution of each solved delta.  At
    a polyhedral point ("exact") and at a point with PSD blocks
    ("b-derivative"), ``_exact_probe`` first decides whether the model's W
    is positive definite; where it is not, it returns the certificate that
    the point is not strongly regular, at any number of kinks.  Otherwise
    it solves each delta's one local solution from one complementarity
    problem, an LCP or, at a PSD block of |beta| >= 2, a conic one; the
    deltas are still sampled.  Only where the local model breaks down is
    each delta solved by Newton from three starts, all the solves as one
    stack ("newton"), and a failed solve is counted by its cause, not
    raised.
    """
    point = analysis_point(problem, zbar, opts)
    pt, opts = point.kkt, point.opts
    dim = problem.n + problem.m
    rng = np.random.default_rng(opts.seed)
    deltas = [np.zeros(dim)]
    for _ in range(opts.num_delta):
        u = rng.standard_normal(dim)
        u /= np.linalg.norm(u)
        r = rng.uniform() ** (1.0 / dim)
        deltas.append(opts.radius * r * u)
    exact = None
    if point.model.method != "newton":
        # a delta so large that its solution overflows fails the exact
        # probe's residual check, which hands it to the Newton probe
        with np.errstate(over="ignore", invalid="ignore"):
            exact = _exact_probe(point, np.array(deltas))
    if exact is not None:
        return exact
    offsets = [np.zeros(dim)]
    for _ in range(2):
        u = rng.standard_normal(dim)
        # at a huge radius 0.5 * radius overflows before the division; the
        # start is then not finite, which the solver reports as its error
        with np.errstate(over="ignore"):
            offsets.append(0.5 * opts.radius * u / np.linalg.norm(u))
    k = len(offsets)
    outcomes = solve_linearized_rows(problem, pt, np.repeat(deltas, k, axis=0),
                                     np.tile(pt.stacked() + np.array(offsets), (len(deltas), 1)),
                                     opts.newton, (point.hessian, point.J, point.Fbar))
    causes = dict.fromkeys(_FAILURE_CAUSES, 0)
    solutions: list[tuple[np.ndarray, np.ndarray]] = []
    violations = 0
    for j, delta in enumerate(deltas):
        sols = []
        for out in outcomes[j * k:(j + 1) * k]:
            cause = next((c for c, kind in _FAILURE_CAUSES.items() if isinstance(out, kind)), None)
            if cause is not None:
                causes[cause] += 1
            elif isinstance(out, Exception):
                raise out
            else:
                sols.append(out.stacked())
        violations += _spread(sols) > UNIQUENESS_TOL
        if sols:
            solutions.append((delta, sols[0]))
    return _probe_stats(opts, solutions, violations, "newton", 0, causes)


def _spread(sols) -> float:
    """The largest distance between two of the solutions, 0 for fewer than two."""
    return max((float(np.linalg.norm(a - b)) for i, a in enumerate(sols) for b in sols[i + 1:]),
               default=0.0)


def _probe_stats(opts: AnalyzerOptions, solutions: list[tuple[np.ndarray, np.ndarray]],
                 violations: int, method: str, pieces: int, causes: dict) -> ProbeStats:
    """The ProbeStats of the (delta, solution) pairs, the modulus their
    largest difference quotient, or NaN where one quotient is NaN (inf /
    inf after an overflow)."""
    modulus = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (d1, z1) in enumerate(solutions):
            for d2, z2 in solutions[i + 1:]:
                gap = float(np.linalg.norm(d1 - d2))
                if gap > 1e-12:
                    q = float(np.linalg.norm(z1 - z2)) / gap
                    if q > modulus or q != q:  # NaN stays once it appears
                        modulus = q
    return ProbeStats(modulus=modulus, violations=int(violations), failures=sum(causes.values()),
                      solved=len(solutions), num_delta=opts.num_delta, radius=opts.radius,
                      uniqueness_tol=UNIQUENESS_TOL, method=method, pieces=pieces,
                      failure_causes=causes)


def _exact_probe(point: AnalysisPoint, deltas: np.ndarray) -> ProbeStats | None:
    """Leg c on the local model of ``AnalysisPoint.model``, at a polyhedral
    point ("exact") or a point with PSD blocks ("b-derivative"): the
    certificate that the point is not strongly regular, or each delta (the
    rows of ``deltas``, the first 0) solved by one complementarity problem
    over the kinks; None where the Newton probe decides.

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

    Where J_P has rank below |P| (at ``opts.tol``), A0 has an eigenvalue
    within SWEEP_TOL of 0, or W's least eigenvalue is at most SWEEP_TOL
    max(1, |lambda(W)|_max), the point is not strongly regular, at any K:
    the stats are the certificate, one violation at delta = 0 with the
    point itself as its one solution and no Newton solve.  With BLOCK
    kinks this rests on leg b.  A singular S is a singular canonical
    element.  Otherwise, for the bordered matrix [[A0, G^T], [G, 0]],
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
    & Pang 2003, ch. 2).  ``_lcp`` solves it where C is an orthant,
    ``_conic_complementarity`` where it has PSD factors, and one more
    solve with S gives the solution.  One stacked residual checks every
    solution against 2 (tol + the kink tolerance ``_kink_tol``): at a
    polyhedral point the linearized residual, and the rows that fail it
    ``_b_derivative_residual``, which is positively homogeneous and so
    does not test whether the radius is local; with a PSD block,
    ``_b_derivative_residual``.  The Newton probe decides where the local
    model breaks down: a solution fails that check, or a solve does not
    end within its bound.
    """
    problem, opts, m = point.problem, point.opts, point.model
    J, codes, weight, method = m.J, m.codes, m.weight, m.method
    n = problem.n
    pinned = np.flatnonzero(codes == PINNED)
    kinks = np.flatnonzero((codes != PINNED) & (codes != FREE))
    block = codes[kinks] == BLOCK
    pieces = 2 ** int(np.sum(~block))
    causes = dict.fromkeys(_FAILURE_CAUSES, 0)
    oriented = n - m.Z0.shape[1] == pinned.size and bool((np.abs(m.lam) > SWEEP_TOL).all())
    if oriented:
        GV = m.G @ m.V0
        W = (GV / m.lam) @ GV.T
        W = 0.5 * (W + W.T)
        ev = np.linalg.eigvalsh(W)
        oriented = ev.min(initial=np.inf) > SWEEP_TOL * max(1.0, np.abs(ev).max(initial=0.0))
    if not oriented:
        return _probe_stats(opts, [(deltas[0], point.kkt.stacked())], 1, method, pieces, causes)
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
    sign = np.where(codes[kinks] == DOWN, -1.0, 1.0)
    M = sign[:, None] * W * sign
    if block.any():
        # one PSD factor per block's run of BLOCK kinks
        owner = np.searchsorted(problem.offsets, kinks[block], side="right")
        runs = np.split(np.flatnonzero(block), np.flatnonzero(np.diff(owner)) + 1)
        ys = _conic_complementarity(M, sign * q.T, [(r, PSDConeIndicator(svec_order(r.size)))
                                                     for r in runs])
    else:
        ys = [_lcp(M, sign * qj) for qj in q.T]
        ys = None if any(y is None for y in ys) else np.array(ys)
    if ys is None:
        return None
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
    bound = 2.0 * (opts.tol + side_tol)
    if method == "exact":
        shifted = Z.copy()
        shifted[:, n:] += deltas[:, n:]  # the inclusion's shifted multiplier mu + delta2
        want = np.concatenate([deltas[:, :n] + deltas[:, n:] @ point.J, deltas[:, n:]], axis=1)
        r = linearized_residual(problem, point.kkt, shifted,
                                (point.hessian, point.J, point.Fbar)) - want
        off = ~(np.abs(r) <= bound).all(axis=1)  # NaN rows too
        if off.any():
            r = _b_derivative_residual(point, dz[off], deltas[off])
    else:
        r = _b_derivative_residual(point, dz, deltas)
    if not (np.abs(r) <= bound).all():  # NaN fails too
        return None
    return _probe_stats(opts, list(zip(deltas, Z)), 0, method, pieces, causes)


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


def _lcp(M: np.ndarray, q: np.ndarray) -> np.ndarray | None:
    """The y with y >= 0, w = q + M y >= 0 and y^T w = 0, for a P-matrix M,
    by Murty's (1974) least-index principal pivoting: the basic set B holds
    the y_i that may be nonzero, y_B solves M_BB y_B = -q_B, and the least
    index whose y_i (in B) or w_i (outside it) is negative switches sides.
    None once all 2^K complementary bases could have been visited."""
    basic = np.zeros(q.size, dtype=bool)
    for _ in range(2 ** q.size):
        y = np.zeros(q.size)
        y[basic] = np.linalg.solve(M[np.ix_(basic, basic)], -q[basic])
        wrong = np.flatnonzero(np.where(basic, y, q + M @ y) < 0.0)
        if not wrong.size:
            return y
        basic[wrong[0]] = not basic[wrong[0]]
    return None


def _conic_complementarity(M: np.ndarray, Q: np.ndarray, cones: list) -> np.ndarray | None:
    """The y of each row q of Q with y in C, w = q + M y in C and <y, w> = 0,
    for a symmetric positive definite M, where C is R_+ on every coordinate
    outside the PSD factors ``cones``, pairs (index, PSDConeIndicator) of a
    run of svec coordinates; None where a row does not converge.

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
    1e-12 (|y| + gamma |w|).  All rows run as one stack."""
    K = M.shape[0]
    half = np.ones(K, dtype=bool)
    for idx, _ in cones:
        half[idx] = False
    gamma = 0.95 / np.linalg.eigvalsh(M)[-1]
    A = np.eye(K) - gamma * M

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
        rr = np.sum(r * r, axis=1)
        return [y, w, r, rr, rr / (2.0 * gamma) - np.sum(w * r, axis=1), np.eye(K) - V @ A]

    scale = np.linalg.norm(Q, axis=1)
    out = np.zeros_like(Q)
    rows = np.flatnonzero(scale > 0.0)
    q = Q[rows] / scale[rows, None]
    S = state(np.zeros_like(q), q)
    for _ in range(_CONIC_MAX_ITER):
        y, w, r, rr, e, E = S
        done = rr <= (1e-12 * (np.linalg.norm(y, axis=1)
                               + gamma * np.linalg.norm(w, axis=1))) ** 2
        out[rows[done]] = y[done] * scale[rows[done], None]
        rows, q, S = rows[~done], q[~done], [a[~done] for a in S]
        if not rows.size:
            return out
        y, w, r, rr, e, E = S
        try:
            d = -np.linalg.solve(E, r[..., None])[..., 0]
        except np.linalg.LinAlgError:
            return None
        slope = np.sum((r @ A) * d, axis=1) / gamma
        t, search = 1.0, np.arange(rows.size)
        while search.size:
            if t < 1e-10:
                return None
            trial = state(y[search] + t * d[search], q[search])
            ds = d[search]
            drop = (t * np.sum(ds * w[search], axis=1) + 0.5 * t * t * np.sum((ds @ M) * ds, axis=1)
                    + trial[4] - e[search])
            ok = ((drop <= 1e-4 * t * slope[search])
                  | (trial[3] <= (1.0 - 1e-4 * t) * rr[search]))  # NaN fails both
            for a, b in zip(S, trial):
                a[search[ok]] = b[ok]
            search, t = search[~ok], 0.5 * t
    return None


# ----------------------------------------------------------------------
# the equivalence cross-check


# the consistency note of a report, by probe method, and "conic" for the
# B-derivative at a PSD block of |beta| >= 2, which is not piecewise linear;
# leg b is exact everywhere, and leg c wherever the local model decides it
_NOTES = {
    "exact": "leg b is exact at this point; so is leg c (coherent orientation), "
             "whose modulus is a sampled lower bound",
    "b-derivative": "leg b is exact at this point; so is leg c (coherent orientation of the "
                    "B-derivative), whose modulus is a sampled lower bound",
    "conic": "leg b is exact at this point; so is leg c (a positive definite W, one solution "
             "of the B-derivative's conic complementarity problem per perturbation), whose "
             "modulus is a sampled lower bound",
    "newton": "leg b is exact at this point; leg c is sampled evidence, not a certificate",
}


def equivalence_report(problem: CompositeProblem, zbar,
                       opts: AnalyzerOptions | None = None) -> StabilityReport:
    """Run every check and compare the three legs of the equivalence:
    (a) second-order condition with nondegeneracy, (b) nonsingularity of
    the elements of ``nonsingularity_sweep``, (c) the strong-regularity
    probe.

    The verdict is 'consistent' exactly when all legs agree.  Leg b is
    exact at every point.  Where the probe's method is "exact" or
    "b-derivative", that is wherever the local model holds, leg c is exact
    too: false from the certificate that W is not positive definite (the
    local pieces are not coherently oriented, or at a PSD block of
    |beta| >= 2 the inertia identity that makes leg b false), true where
    it is, with each sampled perturbation solved exactly for the modulus;
    only where the local model breaks down does it test them by Newton
    solves.  The note says which certificate leg c reads, or that it is
    sampled evidence.
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
    leg_c = probe.violations == 0 and probe.failures == 0 and np.isfinite(probe.modulus)
    legs = {"a": leg_a, "b": leg_b, "c": leg_c}
    disagreement = next((f"{u} vs {v}" for u, v in (("a", "b"), ("a", "c"), ("b", "c"))
                         if legs[u] != legs[v]), "")
    consistency = {
        "leg_a_second_order_and_nondegeneracy": leg_a,
        "leg_b_sampled_elements_nonsingular": leg_b,
        "leg_c_probe_strong_regularity": leg_c,
        "verdict": "consistent" if not disagreement else "inconsistent",
        "disagreement": disagreement,
        "note": _NOTES["conic" if probe.method == "b-derivative"
                       and (point.model.codes == BLOCK).any() else probe.method],
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
        tolerances={"kkt": opts.tol, "sweep": SWEEP_TOL, "uniqueness": UNIQUENESS_TOL},
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
