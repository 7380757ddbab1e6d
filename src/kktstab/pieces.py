"""Convex building blocks with their full proximal calculus.

Each piece knows its value, conjugate value, prox pair, Moreau envelope,
one-sided directional derivative of the prox, canonical and sampled
generalized-derivative elements, and its block structure at a
subgradient pair.

A kind supplies its structure through ``_structure``, which
``ConvexPiece.structure`` calls after the pair's one subgradient test: an
orthonormal frame of the block, and per frame coordinate a class code
for the critical cone, one for the domain normal cone and a curvature
weight.
The codes are PINNED ({0}), FREE (the line), UP and DOWN (the half lines
d >= 0 and d <= 0) and BLOCK (a coordinate of one symmetric block,
positive semidefinite in the critical cone and negative semidefinite in
the cones derived from it).  ``BlockStructure`` derives the second-order
objects from the codes in one place, and ``piece.structure(xbar, ubar)``
is the one route to them for one block: the critical cone's affine hull
and lineality bases and membership, and the curvature form.  The
critical polar cone and the domain normal cone are the codes themselves,
which ``stability.AnalysisPoint`` reads in each block's frame.

``BlockGroups`` gives every block's structure at a point of a problem,
with the bits of ``piece.structure``: the separable blocks of one kind
(orthant per sign, box, l1, each alone or lifted) join into one piece
of the kind (``_joined``), whose ``_codes`` classify them all in one
call, each block at its own kink tolerance, and a separable block's
``_structure`` is that call for a group of one.  Any other block keeps
its own ``_structure``.

A kind defines its canonical Clarke element once, in ``clarke_frame``:
an orthonormal frame of the block and one weight in [0, 1] per frame
coordinate (``ClarkeFrame``).  ``clarke_element`` is the dense matrix
``Q diag(weight) Q^T`` of that frame, formed in the base class.
``prox_and_frame`` returns the prox and the frame at one point together,
with the bits of the two calls, where one decomposition gives both: the
PSD kind takes both from one ``eig_split`` and the lift from its inner
piece.  The separable kinds share nothing between the two and return
``prox`` with no frame, which a caller then takes from ``clarke_frame``
only where it needs one.

Points are plain 1-d float arrays.  ``prox``, ``clarke_frame``,
``prox_and_frame`` and ``clarke_element`` also act row-wise on stacks of
points (..., dim), which the perturbation probe and the line search of
``problem.solve`` use to evaluate several points together.  Matrix pieces
live in the svec coordinates of :mod:`kktstab.symmat`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .newton import check_integer
from .symmat import (
    conjugation_matrix,
    coupling,
    eig_split,
    smat,
    svec,
    svec_dim,
    svec_layout,
)

# Least-squares residual threshold for membership in the domain of the
# curvature functional (the domain has measure zero, exact tests are
# meaningless in floating point).
DOM_RESIDUAL_TOL = 1e-8

# Sampling caps: enumerated 0/1 patterns for separable pieces, random
# kernel-block patterns for matrix pieces.
SEPARABLE_PATTERN_CAP = 64
PSD_PATTERN_CAP = 32

_DEDUP_TOL = 1e-12

# Class codes of the frame coordinates of a block structure, the code of
# each class's polar ({0} <-> R, [0, inf) <-> (-inf, 0], and a PSD block
# to an NSD block), and the interval bounds of each class in a derived
# cone, where a block coordinate is unbounded before its NSD projection
# (``stability.AnalysisPoint.project``)
PINNED, FREE, UP, DOWN, BLOCK = range(5)
_POLAR = np.array([FREE, PINNED, DOWN, UP, BLOCK])
_LOWER = np.array([0.0, -np.inf, 0.0, -np.inf, -np.inf])
_UPPER = np.array([0.0, np.inf, np.inf, 0.0, np.inf])


class SubgradientError(ValueError):
    """The supplied pair (xbar, ubar) is not a subgradient pair."""


class GammaDomainBoundaryWarning(UserWarning):
    """A direction sits marginally outside every sampled element range."""


@dataclass
class LinearOperatorElement:
    """One element of the generalized derivative of a prox map.

    The matrix acts on the piece's coordinates and is symmetric with
    spectrum contained in [0, 1]; for a stack of points it is a stack of
    such matrices (..., dim, dim).
    """

    matrix: np.ndarray
    provenance: str = ""

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]


@dataclass
class ClarkeFrame:
    """The canonical Clarke element ``Q diag(weight) Q^T`` of a block's prox,
    kept as its frame Q and weights, at a point or at each row of a stack.

    Q is the identity on the first ``lead`` coordinates.  On the remaining
    svec coordinates of a matrix block it is ``conjugation_matrix(eigvecs)``,
    which ``coords`` and ``vectors`` apply as ``P^T S P`` and ``P S P^T``
    without forming it; with no eigenvectors Q is the identity throughout.
    """

    weight: np.ndarray
    eigvecs: np.ndarray | None = None
    provenance: str = ""

    @property
    def lead(self) -> int:
        """The number of leading coordinates on which Q is the identity."""
        if self.eigvecs is None:
            return self.weight.shape[-1]
        return self.weight.shape[-1] - svec_dim(self.eigvecs.shape[-1])

    def matrix(self) -> np.ndarray:
        """The dense element, (..., dim, dim)."""
        if self.eigvecs is None:
            return _diagonal(self.weight)
        lead = self.lead
        gram = _gram(conjugation_matrix(self.eigvecs), self.weight[..., lead:])
        if not lead:
            return gram
        M = np.zeros(self.weight.shape + self.weight.shape[-1:])
        i = np.arange(lead)
        M[..., i, i] = self.weight[..., :lead]
        M[..., lead:, lead:] = gram
        return M

    def element(self) -> LinearOperatorElement:
        return LinearOperatorElement(self.matrix(), self.provenance)

    def _conjugated(self, V: np.ndarray, P: np.ndarray) -> np.ndarray:
        if self.eigvecs is None:
            return V
        out = np.array(V, dtype=float)
        out[..., self.lead:] = svec(P.T @ smat(out[..., self.lead:]) @ P)
        return out

    def coords(self, V: np.ndarray) -> np.ndarray:
        """``Q^T v`` for each row v of V (..., dim), at one point."""
        return self._conjugated(V, self.eigvecs)

    def vectors(self, W: np.ndarray) -> np.ndarray:
        """``Q w`` for each row w of W (..., dim), at one point."""
        return self._conjugated(W, None if self.eigvecs is None else self.eigvecs.T)


def dedup_elements(elements: list) -> list:
    """Drop every element whose matrix is within _DEDUP_TOL of an earlier
    kept one, comparing each against the stack of kept matrices at once."""
    mats = np.stack([el.matrix for el in elements])
    kept_mats = np.empty_like(mats)
    kept: list[int] = []
    for i, M in enumerate(mats):
        if np.all(np.max(np.abs(kept_mats[:len(kept)] - M), axis=(-2, -1)) > _DEDUP_TOL):
            kept_mats[len(kept)] = M
            kept.append(i)
    return [elements[i] for i in kept]


def _mixed_and_deduped(elements: list[LinearOperatorElement], count: int,
                       rng: np.random.Generator, kind: str) -> list[LinearOperatorElement]:
    """Pad the sample with random convex combinations up to count + 2
    elements, deduplicate, and keep at most max(count, 2)."""
    while len(elements) < count + 2:
        theta = rng.uniform(0.05, 0.95)
        i, j = rng.integers(0, len(elements), size=2)
        mix = theta * elements[i].matrix + (1 - theta) * elements[j].matrix
        elements.append(LinearOperatorElement(mix, f"{kind}:convex({i},{j})"))
    return dedup_elements(elements)[: max(count, 2)]


def _outside_curvature_domain(res, vnorm) -> np.ndarray:
    """Whether directions of norms vnorm and range residuals res miss the
    curvature domain, elementwise; warns once when any misses only
    marginally."""
    scale = DOM_RESIDUAL_TOL * (1.0 + np.asarray(vnorm))
    outside = np.asarray(res) > scale
    if np.any(outside & (res <= 10.0 * scale)):
        warnings.warn("direction is marginally outside the sampled ranges",
                      GammaDomainBoundaryWarning)
    return outside


def _kink_tol(z: np.ndarray, blocks: tuple[np.ndarray, np.ndarray] | None = None
              ) -> np.ndarray:
    """Distance from a kink within which a coordinate counts as on it,
    1e-8 * max(1, max|z|) like the PSD eigenvalue tolerance; one per row of
    a stack, kept as a trailing axis of length 1.  With ``blocks`` =
    (starts, sizes), z is the blocks of one joined piece laid end to end,
    and each coordinate gets its own block's tolerance."""
    if blocks is None:
        return 1e-8 * np.fmax(1.0, np.max(np.abs(z), axis=-1, keepdims=True, initial=0.0))
    starts, sizes = blocks
    return np.repeat(1e-8 * np.fmax(1.0, np.maximum.reduceat(np.abs(z), starts)), sizes)


def _diagonal(v: np.ndarray) -> np.ndarray:
    """The diagonal matrix of a vector, or of each row of a stack (..., d)."""
    out = np.zeros(v.shape + v.shape[-1:])
    i = np.arange(v.shape[-1])
    out[..., i, i] = v
    return out


def _gram(K: np.ndarray, w: np.ndarray) -> np.ndarray:
    """K diag(w) K^T for w >= 0, as the exactly symmetric L L^T with L = K sqrt(w)."""
    L = K * np.sqrt(w)[..., None, :]
    return L @ L.swapaxes(-1, -2)


def _size(spec: dict, key: str) -> int:
    """spec[key] as a piece size: an integral number of at least 1."""
    value = spec[key]
    integral = ((isinstance(value, int) and not isinstance(value, bool))
                or (isinstance(value, float) and value.is_integer()))
    if not integral or value < 1:
        raise ValueError(f"{key} must be an integer of at least 1, got {value!r}")
    return int(value)


@dataclass
class BlockStructure:
    """One block at a subgradient pair, in an orthonormal frame (None for
    the identity): per frame coordinate, its class code in the critical
    cone and in the domain normal cone, and its curvature weight.  Every
    second-order object of the block is derived here."""

    frame: np.ndarray | None
    critical: np.ndarray
    normal: np.ndarray
    weight: np.ndarray

    def _columns(self, mask: np.ndarray) -> np.ndarray:
        return (np.eye(mask.size) if self.frame is None else self.frame)[:, mask]

    def coords(self, V: np.ndarray) -> np.ndarray:
        """Frame coordinates of a vector, or of each column of a matrix."""
        return V if self.frame is None else self.frame.T @ V

    @property
    def affine_hull_basis(self) -> np.ndarray:
        """Orthonormal basis of the affine hull of the critical cone."""
        return self._columns(self.critical != PINNED)

    @property
    def lineality_basis(self) -> np.ndarray:
        """Orthonormal basis of the largest subspace in the critical cone."""
        return self._columns(self.critical == FREE)

    def membership(self, d: np.ndarray, tol: float = 1e-9) -> bool:
        """Whether d lies in the critical cone, within tol in frame coordinates."""
        w, c = self.coords(np.asarray(d, dtype=float)), self.critical
        if (np.any(np.abs(w[c == PINNED]) > tol) or np.any(w[c == UP] < -tol)
                or np.any(w[c == DOWN] > tol)):
            return False
        block = w[c == BLOCK]
        return not block.size or bool(np.linalg.eigvalsh(smat(block))[0] >= -tol)

    def curvature_form(self, V: np.ndarray) -> np.ndarray:
        """Symmetric (k, k) matrix W^T diag(weight) W of the curvature term
        on the k columns of V, W = frame^T V; the diagonal entry of a column
        outside the curvature domain (W nonzero on a pinned row) is +inf."""
        V = np.asarray(V, dtype=float)
        W = self.coords(V)
        on = self.weight > 0.0
        form = _gram(W[on].T, self.weight[on])
        res = np.linalg.norm(W[self.critical == PINNED], axis=0)
        out = np.flatnonzero(_outside_curvature_domain(res, np.linalg.norm(V, axis=0)))
        form[out, out] = np.inf
        return form

    def gamma(self, v: np.ndarray) -> float:
        """Curvature term at the direction v (+inf outside its domain)."""
        return float(self.curvature_form(np.asarray(v, dtype=float)[:, None])[0, 0])


class ConvexPiece:
    """Base class; concrete pieces fill in the scalar/matrix specifics.

    A piece kind is one subclass with a class-level ``kind`` plus one entry
    in PIECE_KINDS; the instance format, the analyzer and the verify
    suites reach it only through these methods.  A kind supplies its
    block structure through ``_structure``; every second-order object is
    read from the ``BlockStructure`` that ``structure`` returns.
    """

    kind: str = ""
    dim: int = 0

    # -- instance-file form ---------------------------------------------
    @classmethod
    def from_spec(cls, spec: dict, parse: Callable[[dict], ConvexPiece]) -> ConvexPiece:
        """Piece of a JSON spec (KeyError on a missing key); ``parse`` builds inner pieces."""
        raise NotImplementedError

    def spec(self) -> dict:
        """The JSON spec that from_spec turns back into this piece."""
        raise NotImplementedError

    # -- values ---------------------------------------------------------
    def value(self, z: np.ndarray, tol: float = 1e-9) -> float:
        raise NotImplementedError

    def conjugate_value(self, w: np.ndarray, tol: float = 1e-9) -> float:
        raise NotImplementedError

    def prox_value(self, p: np.ndarray) -> float:
        """Function value at a point known to be a prox output (0 for indicators)."""
        raise NotImplementedError

    # -- prox pair ------------------------------------------------------
    def prox(self, z: np.ndarray, sigma: float = 1.0) -> np.ndarray:
        raise NotImplementedError

    def prox_conjugate(self, z: np.ndarray, sigma: float = 1.0) -> np.ndarray:
        """Prox of the conjugate function, always through the Moreau identity.

        Kinds do not override it: ``CompositeProblem.prox_gstar_frames``
        forms its sigma = 1 value, ``z - prox(z)``, from ``prox_and_frame``
        and relies on this form for the bits of ``prox_gstar``."""
        z = np.asarray(z, dtype=float)
        _check_sigma(sigma)
        return z - sigma * self.prox(z / sigma, 1.0 / sigma)

    def prox_conjugate_direct(self, z: np.ndarray, sigma: float = 1.0) -> np.ndarray:
        """Closed-form prox of the conjugate, bypassing the Moreau identity."""
        raise NotImplementedError

    def moreau_envelope(self, z: np.ndarray, sigma: float = 1.0) -> tuple[float, np.ndarray]:
        z = np.asarray(z, dtype=float)
        _check_sigma(sigma)
        p = self.prox(z, sigma)
        value = self.prox_value(p) + float(np.dot(p - z, p - z)) / (2.0 * sigma)
        gradient = (z - p) / sigma
        return value, gradient

    # -- first-order variational objects --------------------------------
    def prox_dirderiv(self, z: np.ndarray, d: np.ndarray) -> np.ndarray:
        """The one-sided directional derivative of the prox at the point z
        along d, or along each row of a stack of directions (..., dim): one
        decomposition of z serves every row, and each row has the bits of
        its one-direction call."""
        raise NotImplementedError

    def clarke_frame(self, z: np.ndarray) -> ClarkeFrame:
        """The canonical Clarke element at z as a frame and weights."""
        raise NotImplementedError

    def clarke_element(self, z: np.ndarray) -> LinearOperatorElement:
        """The canonical Clarke element at z, the dense matrix of its frame."""
        return self.clarke_frame(z).element()

    def provenance(self, tag: str) -> str:
        """The provenance string of this kind's Clarke element named tag."""
        return f"{self.kind}:{tag}"

    def prox_and_frame(self, z: np.ndarray) -> tuple[np.ndarray, ClarkeFrame | None]:
        """``prox(z)`` and ``clarke_frame(z)``, with their bits, from one
        decomposition of z; the frame is None where the kind has no
        decomposition to share, and ``clarke_frame`` gives it."""
        return self.prox(z), None

    def sample_clarke(self, z: np.ndarray, count: int, seed: int) -> list[LinearOperatorElement]:
        """Clarke elements at z, the canonical one first, deterministic
        under the seed.  Contract: the matrices are pairwise more than
        _DEDUP_TOL apart in max-norm (a single element, or the output of
        _mixed_and_deduped), so problem.sample_elements_R needs no
        deduplication of its own."""
        raise NotImplementedError

    def smooth_at(self, z: np.ndarray, margin: float = 1e-3) -> bool:
        """Whether z is farther than margin from every kink of the prox."""
        raise NotImplementedError

    def split_unstable(self, z: np.ndarray, floor: float = 1e-4) -> bool:
        """Whether a nonzero eigenvalue at z lies below floor (matrix pieces only)."""
        return False

    # -- second-order objects --------------------------------------------
    def check_subgradient(self, xbar: np.ndarray, ubar: np.ndarray, tol: float = 1e-8,
                          prox: np.ndarray | None = None) -> None:
        """Raise SubgradientError unless prox(xbar + ubar) = xbar within tol;
        ``prox`` is that prox when the caller already holds it."""
        xbar = np.asarray(xbar, dtype=float)
        ubar = np.asarray(ubar, dtype=float)
        if prox is None:
            prox = self.prox(xbar + ubar)
        # the max-norm, as kkt_check measures the fixed-point residual, so
        # that a point kkt_check accepts at tol passes here too
        res = float(np.linalg.norm(prox - xbar, np.inf))
        if res > tol * (1.0 + float(np.linalg.norm(xbar))):
            raise SubgradientError(
                f"{self.kind}: ubar is not a subgradient at xbar "
                f"(prox fixed-point residual {res:.3e})"
            )

    def structure(self, xbar: np.ndarray, ubar: np.ndarray, tol: float = 1e-8,
                  prox: np.ndarray | None = None) -> BlockStructure:
        """The block structure at the pair, after its subgradient test at tol,
        which reads ``prox``, the prox at xbar + ubar, when it is given."""
        xbar = np.asarray(xbar, dtype=float)
        ubar = np.asarray(ubar, dtype=float)
        self.check_subgradient(xbar, ubar, tol, prox)
        return self._structure(xbar, ubar)

    def _structure(self, xbar: np.ndarray, ubar: np.ndarray) -> BlockStructure:
        """The kind's block structure at a pair of float arrays, untested."""
        raise NotImplementedError


def _check_sigma(sigma: float) -> None:
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")


# ----------------------------------------------------------------------
# Separable scalar pieces


class _SeparablePiece(ConvexPiece):
    """Common machinery for coordinatewise pieces.

    Subclasses classify each coordinate of the base point into
    'free'  (prox derivative identically 1 nearby),
    'pinned' (prox derivative identically 0 nearby),
    'kink'   (one-sided derivatives 0 and 1).
    Critical intervals per coordinate follow the same classification:
    free -> R, pinned -> {0}, kink -> a half line whose sign the subclass
    reports (+1 for d >= 0, -1 for d <= 0).  The frame is the identity,
    and the curvature weights are 0.

    Blocks of one ``_join_key`` join into one piece of the kind over their
    coordinates laid end to end (``_joined``), which classifies them all
    at once, each block at its own kink tolerance (``BlockGroups``).
    """

    def _classify(self, z: np.ndarray, t: np.ndarray | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
        """Return (state, halfline_sign); state in {1: free, 0: pinned, 2: kink},
        at the kink tolerance t (default ``_kink_tol(z)``)."""
        raise NotImplementedError

    def _normal_codes(self, x: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
        """Class code of each coordinate in the domain normal cone at x, at
        the kink tolerance t (default ``_kink_tol(x)``)."""
        raise NotImplementedError

    def _join_key(self) -> tuple:
        """Pieces with equal keys join into one piece (``_joined``)."""
        return (self.kind,)

    @classmethod
    def _joined(cls, pieces: list[_SeparablePiece]) -> _SeparablePiece:
        """One piece over the coordinates of pieces of one key, in order."""
        raise NotImplementedError

    def _codes(self, z: np.ndarray, x: np.ndarray,
               blocks: tuple[np.ndarray, np.ndarray] | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
        """(critical, normal): each coordinate's class code in the critical
        cone at z = xbar + ubar and in the domain normal cone at x = xbar;
        with ``blocks``, of a joined piece, each block at its own kink
        tolerance (``_kink_tol``)."""
        tz, tx = (None, None) if blocks is None else (_kink_tol(z, blocks), _kink_tol(x, blocks))
        state, sign = self._classify(z, tz)
        critical = np.where(state == 2, np.where(sign > 0, UP, DOWN), state)
        return critical, self._normal_codes(x, tx)

    def _structure(self, xbar, ubar):
        return BlockStructure(None, *self._codes(xbar + ubar, xbar), np.zeros(self.dim))

    def prox_dirderiv(self, z: np.ndarray, d: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        d = np.asarray(d, dtype=float)
        state, sign = self._classify(z)
        out = np.where(state == 1, d, 0.0)
        kink = state == 2
        out[..., kink] = np.where(sign[kink] > 0, np.maximum(d[..., kink], 0.0),
                                  np.minimum(d[..., kink], 0.0))
        return out

    def _diag_element(self, diag: np.ndarray, provenance: str) -> LinearOperatorElement:
        return LinearOperatorElement(_diagonal(diag.astype(float)), provenance)

    def _canonical(self, state: np.ndarray) -> ClarkeFrame:
        # the identity frame; ties at kinks resolve to 1, the limit from the
        # identity side
        return ClarkeFrame(np.where(state == 0, 0.0, 1.0), None, self.provenance("canonical"))

    def clarke_frame(self, z: np.ndarray) -> ClarkeFrame:
        return self._canonical(self._classify(np.asarray(z, dtype=float))[0])

    def sample_clarke(self, z: np.ndarray, count: int, seed: int) -> list[LinearOperatorElement]:
        check_integer("count", count, 1)
        check_integer("seed", seed, 0)
        state, _ = self._classify(np.asarray(z, dtype=float))
        kinks = np.flatnonzero(state == 2)
        n_k = kinks.size
        if n_k == 0:
            # the prox is differentiable at z: one element
            return [self._canonical(state).element()]
        base = np.where(state == 1, 1.0, 0.0)
        elements = [self._canonical(state).element(),
                    self._diag_element(base, self.provenance("pattern-zeros"))]
        rng = np.random.default_rng(seed)
        if 2 ** n_k <= SEPARABLE_PATTERN_CAP:
            patterns = [np.array([(p >> i) & 1 for i in range(n_k)], dtype=float)
                        for p in range(2 ** n_k)]
        else:
            patterns = [rng.integers(0, 2, size=n_k).astype(float)
                        for _ in range(SEPARABLE_PATTERN_CAP)]
        for pat in patterns:
            diag = base.copy()
            diag[kinks] = pat
            tag = "".join(str(int(b)) for b in pat)
            elements.append(self._diag_element(diag, f"{self.kind}:pattern[{tag}]"))
        return _mixed_and_deduped(elements, count, rng, self.kind)


class OrthantIndicator(_SeparablePiece):
    """Indicator of the nonnegative (sign=+1) or nonpositive (sign=-1) orthant."""

    kind = "orthant_indicator"

    def __init__(self, dim: int, sign: int = -1):
        if isinstance(sign, bool) or sign not in (-1, 1):
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")
        self.dim = int(dim)
        self.sign = int(sign)

    @classmethod
    def from_spec(cls, spec, parse):
        return cls(_size(spec, "dim"), spec.get("sign", -1))

    def spec(self):
        return {"kind": self.kind, "dim": self.dim, "sign": self.sign}

    def value(self, z, tol=1e-9):
        z = np.asarray(z, dtype=float)
        ok = np.all(self.sign * z >= -tol * (1.0 + np.linalg.norm(z)))
        return 0.0 if ok else float("inf")

    def conjugate_value(self, w, tol=1e-9):
        w = np.asarray(w, dtype=float)
        ok = np.all(self.sign * w <= tol * (1.0 + np.linalg.norm(w)))
        return 0.0 if ok else float("inf")

    def prox_value(self, p):
        return 0.0

    def prox(self, z, sigma=1.0):
        _check_sigma(sigma)
        z = np.asarray(z, dtype=float)
        return np.maximum(z, 0.0) if self.sign > 0 else np.minimum(z, 0.0)

    def prox_conjugate_direct(self, z, sigma=1.0):
        # projection onto the polar orthant
        z = np.asarray(z, dtype=float)
        return np.minimum(z, 0.0) if self.sign > 0 else np.maximum(z, 0.0)

    def smooth_at(self, z, margin=1e-3):
        return bool(np.min(np.abs(z)) > margin)

    def _join_key(self):
        return (self.kind, self.sign)

    @classmethod
    def _joined(cls, pieces):
        return cls(sum(p.dim for p in pieces), pieces[0].sign)

    def _classify(self, z, t=None):
        w = self.sign * np.asarray(z, dtype=float)
        t = _kink_tol(w) if t is None else t
        state = np.where(w > t, 1, np.where(w < -t, 0, 2))
        return state, np.where(state == 2, float(self.sign), 0.0)

    def _normal_codes(self, x, t=None):
        # interior coordinates contribute {0}; active ones the outward ray
        x = self.sign * x
        active = x <= (_kink_tol(x) if t is None else t)
        return np.where(active, DOWN if self.sign > 0 else UP, PINNED)


class BoxIndicator(_SeparablePiece):
    """Indicator of the box [lower, upper]; infinite bounds are allowed."""

    kind = "box_indicator"

    def __init__(self, lower, upper):
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        upper = np.atleast_1d(np.asarray(upper, dtype=float))
        for name, bound in (("lower", lower), ("upper", upper)):
            if bound.ndim != 1:
                raise ValueError(f"{name} must be a 1-d array, got shape {bound.shape}")
        if lower.shape != upper.shape:
            raise ValueError("lower and upper must have the same shape")
        if np.any(np.isnan(lower)) or np.any(np.isnan(upper)):
            raise ValueError("box bounds must not be NaN")
        if np.any(lower == np.inf) or np.any(upper == -np.inf):
            raise ValueError("the box is empty: a lower bound is +inf or an upper bound -inf")
        if np.any(lower > upper):
            raise ValueError("lower bound exceeds upper bound")
        self.dim = lower.size
        self.lower = lower
        self.upper = upper

    @classmethod
    def from_spec(cls, spec, parse):
        return cls(spec["lower"], spec["upper"])

    def spec(self):
        return {"kind": self.kind, "lower": self.lower.tolist(), "upper": self.upper.tolist()}

    def value(self, z, tol=1e-9):
        z = np.asarray(z, dtype=float)
        s = tol * (1.0 + np.linalg.norm(z))
        ok = np.all(z >= self.lower - s) and np.all(z <= self.upper + s)
        return 0.0 if ok else float("inf")

    def conjugate_value(self, w, tol=1e-9):
        # support function of the box; zero coordinates are skipped so an
        # infinite bound never meets a zero weight
        w = np.asarray(w, dtype=float)
        pos, neg = w > 0, w < 0
        return float(np.dot(self.upper[pos], w[pos]) + np.dot(self.lower[neg], w[neg]))

    def prox_value(self, p):
        return 0.0

    def prox(self, z, sigma=1.0):
        _check_sigma(sigma)
        return np.clip(np.asarray(z, dtype=float), self.lower, self.upper)

    def prox_conjugate_direct(self, z, sigma=1.0):
        # shrink toward the scaled box: the part of z beyond sigma * bound
        z = np.asarray(z, dtype=float)
        lo, hi = sigma * self.lower, sigma * self.upper
        above = np.isfinite(self.upper) & (z > hi)
        below = np.isfinite(self.lower) & (z < lo)
        return np.where(above, z - hi, np.where(below, z - lo, 0.0))

    def smooth_at(self, z, margin=1e-3):
        gap = np.minimum(np.abs(z - self.lower), np.abs(z - self.upper))
        return bool(np.all((gap > margin) | (self.lower == self.upper)))

    @classmethod
    def _joined(cls, pieces):
        return cls(np.concatenate([p.lower for p in pieces]),
                   np.concatenate([p.upper for p in pieces]))

    def _classify(self, z, t=None):
        # a box narrower than twice the kink tolerance counts as one value,
        # like lower == upper: its coordinate is pinned
        z = np.asarray(z, dtype=float)
        t = _kink_tol(z) if t is None else t
        lo, hi = self.lower, self.upper
        open_box = hi - lo > 2.0 * t
        at_lo = (np.abs(z - lo) <= t) & open_box
        at_hi = (np.abs(z - hi) <= t) & open_box
        state = ((lo + t < z) & (z < hi - t)).astype(int)
        state[at_lo | at_hi] = 2
        return state, np.subtract(at_lo, at_hi, dtype=float)

    def _normal_codes(self, x, t=None):
        t = _kink_tol(x) if t is None else t
        at_lo, at_hi = x <= self.lower + t, x >= self.upper - t
        return np.where(at_lo, np.where(at_hi, FREE, DOWN), np.where(at_hi, UP, PINNED))


class L1Norm(_SeparablePiece):
    """The l1 norm; its prox is the coordinatewise soft threshold."""

    kind = "l1_norm"

    def __init__(self, dim: int):
        self.dim = int(dim)

    @classmethod
    def from_spec(cls, spec, parse):
        return cls(_size(spec, "dim"))

    def spec(self):
        return {"kind": self.kind, "dim": self.dim}

    def value(self, z, tol=1e-9):
        return float(np.sum(np.abs(np.asarray(z, dtype=float))))

    def conjugate_value(self, w, tol=1e-9):
        w = np.asarray(w, dtype=float)
        ok = np.all(np.abs(w) <= 1.0 + tol)
        return 0.0 if ok else float("inf")

    def prox_value(self, p):
        return float(np.sum(np.abs(p)))

    def prox(self, z, sigma=1.0):
        _check_sigma(sigma)
        z = np.asarray(z, dtype=float)
        return np.sign(z) * np.maximum(np.abs(z) - sigma, 0.0)

    def prox_conjugate_direct(self, z, sigma=1.0):
        # projection onto the unit l-infinity ball
        return np.clip(np.asarray(z, dtype=float), -1.0, 1.0)

    def smooth_at(self, z, margin=1e-3):
        return bool(np.min(np.abs(np.abs(z) - 1.0)) > margin)

    @classmethod
    def _joined(cls, pieces):
        return cls(sum(p.dim for p in pieces))

    def _classify(self, z, t=None):
        # classification of the soft threshold at unit sigma, the scale at
        # which all second-order analysis happens
        z = np.asarray(z, dtype=float)
        a = np.abs(z)
        t = _kink_tol(z) if t is None else t
        state = np.where(a > 1.0 + t, 1, np.where(a < 1.0 - t, 0, 2))
        return state, np.where(state == 2, np.sign(z), 0.0)

    def _normal_codes(self, x, t=None):
        # full domain, normal cone is trivial
        return np.full(self.dim, PINNED)


# ----------------------------------------------------------------------
# Positive semidefinite cone piece


def _psd_part(lam: np.ndarray, P: np.ndarray) -> np.ndarray:
    """svec of P diag(lam^+) P^T, the PSD projection of an eigen-split."""
    return svec(P @ _diagonal(np.maximum(lam, 0.0)) @ P.swapaxes(-1, -2))


class PSDConeIndicator(ConvexPiece):
    """Indicator of the positive semidefinite cone in svec coordinates.

    Every method that needs its point's eigenvalues takes them from one
    ``eig_split`` call: the positive (alpha), zero (beta) and negative
    (gamma) index sets are the signs of the clamped eigenvalues, and the
    coupling coefficients come from ``coupling``.
    """

    kind = "psd_indicator"

    def __init__(self, order: int):
        self.order = int(order)
        self.dim = svec_dim(self.order)

    @classmethod
    def from_spec(cls, spec, parse):
        return cls(_size(spec, "order"))

    def spec(self):
        return {"kind": self.kind, "order": self.order}

    def value(self, z, tol=1e-9):
        scale = tol * (1.0 + float(np.linalg.norm(z)))
        return 0.0 if np.all(eig_split(z)[0] >= -scale) else float("inf")

    def conjugate_value(self, w, tol=1e-9):
        scale = tol * (1.0 + float(np.linalg.norm(w)))
        return 0.0 if np.all(eig_split(w)[0] <= scale) else float("inf")

    def prox_value(self, p):
        return 0.0

    def prox(self, z, sigma=1.0):
        _check_sigma(sigma)
        return _psd_part(*eig_split(z)[:2])

    def prox_conjugate_direct(self, z, sigma=1.0):
        # projection onto the negative semidefinite cone
        lam, P, _ = eig_split(z)
        return svec(P @ np.diag(np.minimum(lam, 0.0)) @ P.T)

    def smooth_at(self, z, margin=1e-3):
        return bool(np.min(np.abs(eig_split(z)[0])) > margin)

    def split_unstable(self, z, floor=1e-4):
        lam = eig_split(z)[0]
        nonzero = np.abs(lam[lam != 0.0])
        return bool(nonzero.size and nonzero.min() < floor)

    def prox_dirderiv(self, z, d):
        # Sigma o (P^T D P), its beta-beta block (Sigma = 1) projected onto the
        # PSD cone: one eig_split of z, and one stacked eigh of the beta-beta
        # blocks of a stack of directions
        lam, P, _ = eig_split(z)
        ix = np.arange(self.order)
        V = coupling(lam, ix[:, None], ix) * (P.T @ smat(d) @ P)
        b = np.flatnonzero(lam == 0.0)
        if b.size:
            bb = (..., b[:, None], b)
            Dbb = V[bb]
            w, Q = np.linalg.eigh(0.5 * (Dbb + Dbb.swapaxes(-1, -2)))
            V[bb] = Q @ _diagonal(np.maximum(w, 0.0)) @ Q.swapaxes(-1, -2)
        return svec(P @ V @ P.T)

    # -- elements ---------------------------------------------------------
    def _coupled(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """lam, K = conjugation_matrix(P) and the coupling weights Sigma[rows, cols]
        of the svec coordinates, at a point or at each row of a stack."""
        lam, P, _ = eig_split(z)
        lay = svec_layout(self.order)
        return lam, conjugation_matrix(P), coupling(lam, lay.rows, lay.cols)

    def _frame(self, lam: np.ndarray, P: np.ndarray) -> ClarkeFrame:
        # the svec matrix of H -> P (Sigma o (P^T H P)) P^T: frame K, weights Sigma
        lay = svec_layout(self.order)
        return ClarkeFrame(coupling(lam, lay.rows, lay.cols), P, f"{self.kind}:canonical(beta=I)")

    def clarke_frame(self, z):
        return self._frame(*eig_split(z)[:2])

    def prox_and_frame(self, z):
        lam, P, _ = eig_split(z)
        return _psd_part(lam, P), self._frame(lam, P)

    def sample_clarke(self, z, count, seed):
        # canonical, then base + K_beta Z K_beta^T (base: beta-beta weights zeroed)
        check_integer("count", count, 1)
        check_integer("seed", seed, 0)
        lam, K, w = self._coupled(z)
        elements = [LinearOperatorElement(_gram(K, w), f"{self.kind}:canonical(beta=I)")]
        nb = np.count_nonzero(lam == 0.0)
        if nb == 0:
            return elements
        lay = svec_layout(self.order)
        bb = (lam[lay.rows] == 0.0) & (lam[lay.cols] == 0.0)
        base = _gram(K, np.where(bb, 0.0, w))
        Kb = K[:, bb]
        elements.append(LinearOperatorElement(base, f"{self.kind}:zero-beta"))
        rng = np.random.default_rng(seed)
        n_rand = min(PSD_PATTERN_CAP, max(count, 4))
        for s in range(n_rand):
            G = rng.standard_normal((nb, nb))
            Q, R = np.linalg.qr(G)
            Q = Q * np.sign(np.diag(R))
            pattern = rng.integers(0, 2, size=nb)
            # svec operator of D -> M D M with M = Q diag(pattern) Q^T
            M = base + Kb @ conjugation_matrix((Q * pattern) @ Q.T) @ Kb.T
            tag = "".join(str(int(b)) for b in pattern)
            elements.append(LinearOperatorElement(0.5 * (M + M.T),
                                                  f"{self.kind}:pattern[{tag}]q{s}"))
        return _mixed_and_deduped(elements, count, rng, self.kind)

    def _structure(self, xbar, ubar):
        # frame coordinate (i, j) is the svec coordinate (i, j) of P^T D P;
        # the eigenvalues descend, so lam_i >= lam_j and alpha rows touch alpha.
        # Critical cone: free on alpha rows, PSD on beta-beta, pinned on
        # beta-gamma and gamma-gamma; normal cone: pinned on alpha rows,
        # NSD on the rest.  Sun's sigma term weighs alpha-gamma by
        # -lam_j / lam_i (its -2 lam_g / lam_a per matrix entry).
        lam, P, _ = eig_split(xbar + ubar)
        lay = svec_layout(self.order)
        li, lj = lam[lay.rows], lam[lay.cols]
        alpha = li > 0.0
        critical = np.where(alpha, FREE, np.where((li == 0.0) & (lj == 0.0), BLOCK, PINNED))
        weight = np.where(alpha & (lj < 0.0), -lj / np.where(alpha, li, 1.0), 0.0)
        return BlockStructure(conjugation_matrix(P), critical,
                              np.where(alpha, PINNED, BLOCK), weight)


# ----------------------------------------------------------------------
# Epigraph lift


class EpiSum(ConvexPiece):
    """The lift (c, y) -> c + inner(y) that encodes constrained problems."""

    kind = "epi_lift"

    def __init__(self, inner: ConvexPiece):
        self.inner = inner
        self.dim = 1 + inner.dim

    @classmethod
    def from_spec(cls, spec, parse):
        return cls(parse(spec["inner"]))

    def spec(self):
        return {"kind": self.kind, "inner": self.inner.spec()}

    def _split(self, z):
        z = np.asarray(z, dtype=float)
        return float(z[0]), z[1:]

    def _inner(self, *vectors):
        """The inner coordinates of each vector."""
        return [np.asarray(z, dtype=float)[1:] for z in vectors]

    def value(self, z, tol=1e-9):
        c, y = self._split(z)
        return c + self.inner.value(y, tol)

    def conjugate_value(self, w, tol=1e-9):
        wc, wy = self._split(w)
        if abs(wc - 1.0) > tol:
            return float("inf")
        return self.inner.conjugate_value(wy, tol)

    def prox_value(self, p):
        c, y = self._split(p)
        return c + self.inner.prox_value(y)

    def prox(self, z, sigma=1.0):
        _check_sigma(sigma)
        z = np.asarray(z, dtype=float)
        return np.concatenate([z[..., :1] - sigma, self.inner.prox(z[..., 1:], sigma)], axis=-1)

    def prox_conjugate_direct(self, z, sigma=1.0):
        # the conjugate is the indicator of {1} x dom(inner conjugate)
        _, y = self._split(z)
        return np.concatenate([[1.0], self.inner.prox_conjugate_direct(y, sigma)])

    def smooth_at(self, z, margin=1e-3):
        return self.inner.smooth_at(*self._inner(z), margin)

    def split_unstable(self, z, floor=1e-4):
        return self.inner.split_unstable(*self._inner(z), floor)

    def prox_dirderiv(self, z, d):
        _, y = self._split(z)
        d = np.asarray(d, dtype=float)
        return np.concatenate([d[..., :1], self.inner.prox_dirderiv(y, d[..., 1:])], axis=-1)

    def provenance(self, tag):
        return f"epi({self.inner.provenance(tag)})"

    def _lift_element(self, el: LinearOperatorElement) -> LinearOperatorElement:
        M = np.zeros(el.matrix.shape[:-2] + (self.dim, self.dim))
        M[..., 0, 0] = 1.0
        M[..., 1:, 1:] = el.matrix
        return LinearOperatorElement(M, f"epi({el.provenance})")

    @staticmethod
    def _lifted(inner: ClarkeFrame) -> ClarkeFrame:
        # the scalar coordinate leads, with the identity frame and weight 1
        lead = np.ones(inner.weight.shape[:-1] + (1,))
        return ClarkeFrame(np.concatenate([lead, inner.weight], axis=-1), inner.eigvecs,
                           f"epi({inner.provenance})")

    def clarke_frame(self, z):
        return self._lifted(self.inner.clarke_frame(np.asarray(z, dtype=float)[..., 1:]))

    def prox_and_frame(self, z):
        z = np.asarray(z, dtype=float)
        p, inner = self.inner.prox_and_frame(z[..., 1:])
        return (np.concatenate([z[..., :1] - 1.0, p], axis=-1),
                None if inner is None else self._lifted(inner))

    def sample_clarke(self, z, count, seed):
        _, y = self._split(z)
        return [self._lift_element(el) for el in self.inner.sample_clarke(y, count, seed)]

    def _structure(self, xbar, ubar):
        # the scalar coordinate is free in the critical cone and pinned in
        # the domain normal cone, with weight 0; the lift's subgradient
        # test already covers the inner pair
        inner = self.inner._structure(xbar[1:], ubar[1:])
        frame = inner.frame
        if frame is not None:
            frame = np.zeros((self.dim, self.dim))
            frame[0, 0] = 1.0
            frame[1:, 1:] = inner.frame
        return BlockStructure(frame, np.concatenate(([FREE], inner.critical)),
                              np.concatenate(([PINNED], inner.normal)),
                              np.concatenate(([0.0], inner.weight)))


# ----------------------------------------------------------------------
# The blocks of a problem grouped by kind


class BlockGroups:
    """The blocks of a problem, the pieces laid end to end from ``offsets``,
    grouped once for their structures at any pair.  The blocks of one
    separable key (orthant per sign, box, l1), alone or as the inner piece
    of an epi lift, form one group: one joined piece over their inner
    coordinates, which one ``_codes`` call classifies.  Every other block
    keeps its own ``_structure``."""

    def __init__(self, pieces: list[ConvexPiece], offsets: np.ndarray):
        self.pieces, self.offsets = pieces, offsets
        members: dict[tuple, list[tuple[_SeparablePiece, np.ndarray]]] = {}
        self.joined = []
        for p, lo, hi in zip(pieces, offsets[:-1], offsets[1:]):
            lifted = isinstance(p, EpiSum)
            inner = p.inner if lifted else p
            self.joined.append(isinstance(inner, _SeparablePiece))
            if self.joined[-1]:
                members.setdefault(inner._join_key(), []).append(
                    (inner, np.arange(lo + lifted, hi)))
        # per group: the joined piece, its coordinates in the blocks, and
        # each block's start and size among them
        self.groups = []
        for blocks in members.values():
            inner, index = zip(*blocks)
            sizes = np.array([q.dim for q in inner])
            self.groups.append((type(inner[0])._joined(list(inner)), np.concatenate(index),
                                (np.cumsum(sizes) - sizes, sizes)))

    def check_subgradients(self, xbar: np.ndarray, ubar: np.ndarray, tol: float,
                           prox: list[np.ndarray]) -> None:
        """Each block's ``check_subgradient`` at its slices of the pairs xbar
        and ubar, in block order, ``prox`` holding each block's prox at
        xbar + ubar.  The blocks' residuals and norms are taken at once,
        the norms as square roots of sums of squares, which may round
        otherwise than ``np.linalg.norm``: a block within a relative 1e-9
        of its threshold, or whose norm is not finite, takes its own test."""
        starts = self.offsets[:-1]
        res = np.maximum.reduceat(np.abs(np.concatenate(prox) - xbar), starts)
        with np.errstate(over="ignore"):
            norm = np.sqrt(np.add.reduceat(xbar * xbar, starts))
        passed = np.isfinite(norm) & (res <= tol * (1.0 + norm) * (1.0 - 1e-9))
        for i in np.flatnonzero(~passed):
            lo, hi = self.offsets[i], self.offsets[i + 1]
            self.pieces[i].check_subgradient(xbar[lo:hi], ubar[lo:hi], tol, prox[i])

    def structures(self, xbar: np.ndarray, ubar: np.ndarray, tol: float,
                   prox: list[np.ndarray]) -> list[BlockStructure]:
        """The bits of ``[p.structure(xb, ub, tol, pb) ...]`` over the blocks,
        from the pair of float vectors (xbar, ubar) and each block's prox at
        xbar + ubar: every subgradient test first, then one ``_codes`` call
        per group."""
        self.check_subgradients(xbar, ubar, tol, prox)
        # an epi lift's scalar coordinate is free in the critical cone and
        # pinned in the normal cone, as in EpiSum._structure
        critical, normal = np.full(xbar.size, FREE), np.full(xbar.size, PINNED)
        for piece, index, blocks in self.groups:
            x = xbar[index]
            critical[index], normal[index] = piece._codes(x + ubar[index], x, blocks)
        weight = np.zeros(xbar.size)
        return [BlockStructure(None, critical[lo:hi], normal[lo:hi], weight[lo:hi]) if joined
                else p._structure(xbar[lo:hi], ubar[lo:hi])
                for p, joined, lo, hi in zip(self.pieces, self.joined, self.offsets[:-1],
                                              self.offsets[1:])]


# ----------------------------------------------------------------------
# Kind registry: the instance format's "kind" string to its class

PIECE_KINDS: dict[str, type[ConvexPiece]] = {
    cls.kind: cls for cls in (PSDConeIndicator, OrthantIndicator, BoxIndicator, L1Norm, EpiSum)
}


# ----------------------------------------------------------------------
# Functional surface mirroring the operation names


def prox(piece: ConvexPiece, z, sigma: float = 1.0):
    return piece.prox(z, sigma)


def prox_conjugate(piece: ConvexPiece, z, sigma: float = 1.0):
    return piece.prox_conjugate(z, sigma)


def moreau_envelope(piece: ConvexPiece, z, sigma: float = 1.0):
    return piece.moreau_envelope(z, sigma)


def prox_dirderiv(piece: ConvexPiece, z, d):
    return piece.prox_dirderiv(z, d)


def clarke_element(piece: ConvexPiece, z):
    return piece.clarke_element(z)


def sample_clarke(piece: ConvexPiece, z, count: int, seed: int):
    return piece.sample_clarke(z, count, seed)


def gamma(piece: ConvexPiece, xbar, ubar, v):
    return piece.structure(xbar, ubar).gamma(v)


def cone_descriptors(piece: ConvexPiece, xbar, ubar) -> BlockStructure:
    return piece.structure(xbar, ubar)


def gamma_oracle(piece: ConvexPiece, xbar, ubar, v,
                 samples: list[LinearOperatorElement]) -> float:
    """Brute-force curvature evaluation used purely as a test oracle.

    For each sampled element U admitting v within the least-squares
    tolerance, evaluates <v, pinv(U) v> - ||v||^2 and returns the minimum.
    """
    piece.check_subgradient(np.asarray(xbar, float), np.asarray(ubar, float))
    return sampled_gamma(v, samples)


def sampled_gamma(v, samples: list[LinearOperatorElement]) -> float:
    """``gamma_oracle`` without its subgradient test, for loops over one
    pair whose ``piece.structure`` call has already run it."""
    v = np.asarray(v, dtype=float)
    vnorm = float(np.linalg.norm(v))
    best = float("inf")
    min_res = float("inf")
    for el in samples:
        d, *_ = np.linalg.lstsq(el.matrix, v, rcond=None)
        res = float(np.linalg.norm(el.matrix @ d - v))
        min_res = min(min_res, res)
        if res <= DOM_RESIDUAL_TOL * (1.0 + vnorm):
            best = min(best, float(np.dot(v, d) - vnorm ** 2))
    # no element admits v exactly when the smallest residual misses
    return float("inf") if _outside_curvature_domain(min_res, vnorm) else best

