"""Planted KKT instances with known index structure and ground-truth labels.

Every generator returns an instance dict in the kktstab JSON schema (the
only thing the library sees) plus a ``Plant`` holding the planted point
and the labels.  The labels come from this module's own linear algebra:

* nondegeneracy: rank of the Jacobian against the complement of the
  lineality space of the planted index structure;
* second order: the reduced Hessian on the critical subspace is made
  positive definite (holds) or is given a direction of curvature at most
  -1 (fails), with the PSD curvature term bounded from above.

Data that must cancel in exact arithmetic (constants of active
constraints, the linear term that makes the point stationary, the pencil
constant) are correctly rounded from exact rational arithmetic.  The
library then evaluates F(xbar) + mu in floating point, as it would for
real data, so nothing here lines a kink up at an exact zero.

Only numpy and the standard library are used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RANK_TOL = 1e-9
SQRT2 = float(np.sqrt(2.0))


@dataclass
class Plant:
    """Ground truth of one planted instance."""

    x: np.ndarray
    mu: np.ndarray
    nondegenerate: bool
    second_order: bool
    structure: dict

    @property
    def strongly_regular(self) -> bool:
        return self.nondegenerate and self.second_order


# ----------------------------------------------------------------------
# small exact and linear-algebra helpers


def exact_affine(const, rows, x) -> np.ndarray:
    """Correctly rounded const[i] + sum_j rows[i][j] * x[j].

    Doubles are dyadic rationals, so the sum is exact over a common
    power-of-two denominator; one integer division rounds it."""
    xs = [float(v).as_integer_ratio() for v in x]
    out = []
    for c, row in zip(const, rows):
        terms = [float(c).as_integer_ratio()]
        for a, (q, e) in zip(row, xs):
            p, d = float(a).as_integer_ratio()
            terms.append((p * q, d * e))
        den = max(d for _, d in terms)
        out.append(sum(p * (den // d) for p, d in terms) / den)
    return np.array(out)


def svec(A: np.ndarray) -> np.ndarray:
    """Upper triangle row by row, off-diagonals scaled by sqrt(2)."""
    m = A.shape[0]
    iu = np.triu_indices(m)
    scale = np.where(iu[0] == iu[1], 1.0, SQRT2)
    return A[iu] * scale


def sym_basis(k: int) -> list[np.ndarray]:
    """Orthonormal basis of the k x k symmetric matrices (Frobenius)."""
    out = []
    for i in range(k):
        for j in range(i, k):
            E = np.zeros((k, k))
            if i == j:
                E[i, i] = 1.0
            else:
                E[i, j] = E[j, i] = 1.0 / SQRT2
            out.append(E)
    return out


def rank(M: np.ndarray) -> int:
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(s > RANK_TOL * max(1.0, s[0])))


def null_basis(M: np.ndarray, n: int) -> np.ndarray:
    if M.size == 0:
        return np.eye(n)
    _, s, Vh = np.linalg.svd(M)
    r = int(np.sum(s > RANK_TOL * max(1.0, s[0])))
    return Vh[r:].T


def random_orthogonal(rng: np.random.Generator, k: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((k, k)))
    return Q * np.sign(np.diag(R))


def random_pd(rng: np.random.Generator, n: int, floor: float = 0.5) -> np.ndarray:
    B = rng.standard_normal((n, n)) / np.sqrt(n)
    return B @ B.T + floor * np.eye(n)


def random_symmetric(rng: np.random.Generator, k: int) -> np.ndarray:
    G = rng.standard_normal((k, k))
    return 0.5 * (G + G.T)


def plant_hessian(rng: np.random.Generator, Z: np.ndarray, holds: bool,
                  curvature_bound) -> np.ndarray:
    """Objective Hessian with the planted second-order label.

    Z spans the critical subspace.  For 'holds' the Hessian is positive
    definite, so the reduced form (Hessian plus a nonnegative curvature
    term) is too.  For 'fails' one unit direction d of the subspace gets
    reduced value at most -1; ``curvature_bound(d)`` bounds the curvature
    term there from above.
    """
    n = Z.shape[0]
    H = random_pd(rng, n)
    if holds:
        return H
    if Z.shape[1] == 0:
        raise ValueError("cannot plant a second-order failure on a trivial subspace")
    d = Z @ rng.standard_normal(Z.shape[1])
    d /= np.linalg.norm(d)
    s = float(d @ H @ d) + curvature_bound(d) + 1.0
    H = H - s * np.outer(d, d)
    return 0.5 * (H + H.T)


def _poly_output(const, linear, quadratic=None) -> dict:
    out = {"const": float(const), "linear": [float(v) for v in linear]}
    if quadratic is not None:
        out["quadratic"] = np.asarray(quadratic, dtype=float).tolist()
    return out


# ----------------------------------------------------------------------
# PSD pencils: min f(x) s.t. M0 + sum_i x_i M_i is PSD (epi-lifted)


def psd_pencil(rng: np.random.Generator, order: int, n_alpha: int, n_beta: int,
               nondegenerate: bool = True, second_order: bool = True,
               extra_vars: int = 1, name: str = "psd") -> tuple[dict, Plant]:
    """Epi-lifted PSD pencil with eigen index sets of the given sizes.

    X = P diag(lam+) P^T and U = P diag(lam-) P^T share eigenvectors;
    alpha carries lam+ > 0, gamma carries lam- < 0 and beta is zero in
    both.  The multiplier is (1, svec(U)).
    """
    n_gamma = order - n_alpha - n_beta
    if n_gamma < 0 or n_beta < 0 or n_alpha < 0:
        raise ValueError("index set sizes must be nonnegative and sum to the order")
    k = n_beta + n_gamma
    n = k * (k + 1) // 2 + extra_vars
    P = random_orthogonal(rng, order)
    lam_pos = np.zeros(order)
    lam_neg = np.zeros(order)
    alpha = np.arange(n_alpha)
    beta = np.arange(n_alpha, n_alpha + n_beta)
    gamma = np.arange(n_alpha + n_beta, order)
    lam_pos[alpha] = rng.uniform(0.5, 2.0, n_alpha)
    lam_neg[gamma] = -rng.uniform(0.5, 2.0, n_gamma)
    X = (P * lam_pos) @ P.T
    U = (P * lam_neg) @ P.T
    X = 0.5 * (X + X.T)
    U = 0.5 * (U + U.T)

    Ms = [random_symmetric(rng, order) for _ in range(n)]
    Q = P[:, n_alpha:]  # beta and gamma eigenvectors
    if not nondegenerate:
        if k == 0:
            raise ValueError("nondegeneracy cannot fail without beta or gamma")
        W = random_symmetric(rng, k)
        W /= np.linalg.norm(W)
        QWQ = Q @ W @ Q.T
        Ms = [M - float(np.sum((Q.T @ M @ Q) * W)) * QWQ for M in Ms]
        Ms = [0.5 * (M + M.T) for M in Ms]
    # rank test: J columns against the complement of the lineality space,
    # which is {Q S Q^T : S symmetric} inside the PSD block
    comp = np.array([[float(np.sum((Q.T @ M @ Q) * E)) for E in sym_basis(k)]
                     for M in Ms])
    nondeg_label = rank(comp) == k * (k + 1) // 2

    x = rng.standard_normal(n)
    # pencil constant: M0 = X - sum_i x_i M_i, entrywise correctly rounded
    M0 = np.empty((order, order))
    for i in range(order):
        for j in range(i, order):
            M0[i, j] = M0[j, i] = exact_affine(
                [X[i, j]], [[-M[i, j] for M in Ms]], x)[0]

    # critical subspace: rotated pencil directions with zero gamma-gamma
    # and beta-gamma blocks
    rot = [P.T @ M @ P for M in Ms]
    rows = []
    for a in gamma:
        for b in np.concatenate([beta, gamma]):
            if b in gamma and b < a:
                continue
            rows.append([R[a, b] for R in rot])
    Z = null_basis(np.array(rows), n) if rows else np.eye(n)
    rho = float(np.max(-lam_neg[gamma]) / np.min(lam_pos[alpha])) \
        if n_alpha and n_gamma else 0.0

    def curvature_bound(d):
        D = sum(di * M for di, M in zip(d, Ms))
        return 2.0 * rho * float(np.sum(D * D))

    Hf = plant_hessian(rng, Z, second_order, curvature_bound)
    so_label = second_order if Z.shape[1] else True

    # stationarity: grad f(x) + (<M_i, U>)_i = 0 with grad f = a + Hf x
    u = svec(U)
    pencil_dual = [float(svec(M) @ u) for M in Ms]
    a = exact_affine([-p for p in pencil_dual], -Hf, x)
    mu = np.concatenate([[1.0], u])
    inst = {
        "name": name,
        "n": n,
        "F": {"builtin": {"id": "affine_pencil", "params": {
            "objective": _poly_output(0.0, a, Hf),
            "pencil_const": M0.tolist(),
            "pencil_coeff": [M.tolist() for M in Ms],
        }}},
        "g": [{"kind": "epi_lift", "inner": {"kind": "psd_indicator", "order": order}}],
        "known_solution": {"x": x.tolist(), "mu": mu.tolist()},
    }
    structure = {"order": order, "alpha": n_alpha, "beta": n_beta,
                 "gamma": n_gamma, "n": n, "m": len(mu),
                 "critical_dim": int(Z.shape[1])}
    return inst, Plant(x, mu, nondeg_label, so_label, structure)


# ----------------------------------------------------------------------
# polyhedral instances: orthant, box and l1 blocks, some epi-lifted

FREE, PINNED, KINK = "free", "pinned", "kink"


def _coordinate(rng: np.random.Generator, kind: str, state: str):
    """(y, mu, extra) for one coordinate of a separable block: the
    block's input value F_i(xbar), the multiplier, and box bounds."""
    s = rng.uniform(0.5, 2.0)
    if kind == "orthant":  # constraint y <= 0
        if state == FREE:
            return -s, 0.0, None
        return 0.0, (s if state == PINNED else 0.0), None
    if kind == "box":
        lo = -rng.uniform(0.5, 2.0)
        hi = rng.uniform(0.5, 2.0)
        if state == FREE:
            return rng.uniform(0.5 * lo, 0.5 * hi), 0.0, (lo, hi)
        at_hi = rng.uniform() < 0.5
        y = hi if at_hi else lo
        mu = 0.0 if state == KINK else (s if at_hi else -s)
        return y, mu, (lo, hi)
    if kind == "l1":
        if state == FREE:
            y = s if rng.uniform() < 0.5 else -s
            return y, float(np.sign(y)), None
        if state == PINNED:
            return 0.0, rng.uniform(-0.9, 0.9), None
        return 0.0, (1.0 if rng.uniform() < 0.5 else -1.0), None
    raise ValueError(f"unknown block kind {kind!r}")


def _piece_spec(kind: str, dim: int, bounds) -> dict:
    if kind == "orthant":
        return {"kind": "orthant_indicator", "dim": dim, "sign": -1}
    if kind == "box":
        return {"kind": "box_indicator", "lower": [b[0] for b in bounds],
                "upper": [b[1] for b in bounds]}
    return {"kind": "l1_norm", "dim": dim}


def polyhedral(rng: np.random.Generator, n: int, n_blocks: int,
               nondegenerate: bool = True, second_order: bool = True,
               active_frac: float = 0.6, kink_frac: float = 0.3,
               name: str = "nlp") -> tuple[dict, Plant]:
    """Block-separable polyhedral instance around a random point.

    Block 0 is an epi-lifted orthant whose scalar output is the quadratic
    objective; the remaining blocks cycle through orthant, box and l1
    blocks of 1-4 coordinates, every third of them epi-lifted with an
    affine scalar output.  Each coordinate is planted free, pinned or at
    a kink.
    """
    # the block layout follows from the sizes alone, so that instances of
    # one size differ only in their data
    kinds = ["orthant"] + [("orthant", "box", "l1")[(b - 1) % 3] for b in range(1, n_blocks)]
    dims = [1 + b % 4 for b in range(n_blocks)]
    m_sep = sum(dims)
    # nonfree (pinned or kink) coordinates: at most n - 1, so that the
    # critical subspace is nontrivial and the active rows can be independent
    n_active = max(2, min(n - 1, int(round(active_frac * min(n, m_sep)))))
    states = [FREE] * m_sep
    active = rng.choice(m_sep, size=min(n_active, m_sep), replace=False)
    n_kink = max(1, int(round(kink_frac * active.size)))
    for t, i in enumerate(active):
        states[i] = KINK if t < n_kink else PINNED

    x = rng.standard_normal(n)
    lift = [b == 0 or b % 3 == 2 for b in range(n_blocks)]
    outputs_rows, outputs_y, mu, specs, layout = [], [], [], [], []
    c = 0
    for b, (kind, dim) in enumerate(zip(kinds, dims)):
        ys, mus, bounds = [], [], []
        for _ in range(dim):
            y, u, bd = _coordinate(rng, kind, states[c])
            ys.append(y)
            mus.append(u)
            bounds.append(bd)
            c += 1
        spec = _piece_spec(kind, dim, bounds)
        rows = rng.standard_normal((dim, n))
        if lift[b]:
            spec = {"kind": "epi_lift", "inner": spec}
            layout.append(("scalar", b))
            mu.append(1.0)
            outputs_rows.append(None)  # scalar rows are set below
            outputs_y.append(None)
        for r, y, u in zip(rows, ys, mus):
            layout.append(("sep", b))
            mu.append(u)
            outputs_rows.append(r)
            outputs_y.append(y)
        specs.append(spec)
    mu = np.array(mu)
    m = mu.size
    scalar_rows = [i for i, (t, _) in enumerate(layout) if t == "scalar"]
    sep_rows = [i for i, (t, _) in enumerate(layout) if t == "sep"]
    state_of = dict(zip(sep_rows, states))

    J = np.zeros((m, n))
    for i in sep_rows:
        J[i] = outputs_rows[i]
    pinned = [i for i in sep_rows if state_of[i] == PINNED]
    nonfree = [i for i in sep_rows if state_of[i] != FREE]
    if not nondegenerate:
        # make one nonfree row a combination of two others
        i, j, k = rng.choice(nonfree, size=3, replace=False) \
            if len(nonfree) >= 3 else (nonfree + nonfree)[:3]
        J[i] = rng.uniform(0.5, 1.5) * J[j] + rng.uniform(-1.0, 1.0) * J[k]
    nondeg_label = rank(J[nonfree]) == len(nonfree)

    Z = null_basis(J[pinned], n)
    Hf = plant_hessian(rng, Z, second_order, lambda d: 0.0)
    so_label = second_order if Z.shape[1] else True

    # secondary epi-lifted scalar outputs: affine with random gradients
    for i in scalar_rows[1:]:
        J[i] = rng.standard_normal(n)
    # stationarity: the objective gradient a + Hf x cancels the rest of J^T mu
    obj = scalar_rows[0]
    g_rest = sum(mu[i] * J[i] for i in range(m) if i != obj)
    a = exact_affine(-g_rest, -Hf, x)
    poly = []
    for i in range(m):
        if i == obj:
            poly.append(_poly_output(0.0, a, Hf))
        elif layout[i][0] == "scalar":
            poly.append(_poly_output(rng.standard_normal(), J[i]))
        else:
            const = exact_affine([outputs_y[i]], [-J[i]], x)[0]
            poly.append(_poly_output(const, J[i]))
    inst = {
        "name": name,
        "n": n,
        "F": {"polynomial": poly},
        "g": specs,
        "known_solution": {"x": x.tolist(), "mu": mu.tolist()},
    }
    structure = {"n": n, "m": m, "blocks": n_blocks,
                 "pinned": len(pinned), "kinks": len(nonfree) - len(pinned),
                 "critical_dim": int(Z.shape[1])}
    return inst, Plant(x, mu, nondeg_label, so_label, structure)
