"""Named invariant suites behind the CLI verify command.

Each check returns (name, passed, detail).  The conjugate-prox identities
are tested against each piece's direct closed form
(``prox_conjugate_direct``), independent of the library's single
Moreau-identity code path, so the identity test has two genuinely
different routes.
"""

from __future__ import annotations

import numpy as np

from .pieces import (
    BoxIndicator,
    ConvexPiece,
    EpiSum,
    L1Norm,
    OrthantIndicator,
    PSDConeIndicator,
    sampled_gamma,
)
from .instances import BATTERY_NAMES, load_battery
from .newton import NewtonOptions, check_integer
from .problem import (
    canonical_element,
    linearized_residual,
    residual,
    solve,
    solve_linearized_ge,
)
from .symmat import svec


def piece_battery() -> list[tuple[str, ConvexPiece]]:
    return [
        ("psd2", PSDConeIndicator(2)),
        ("psd3", PSDConeIndicator(3)),
        ("orthant3", OrthantIndicator(3, -1)),
        ("box3", BoxIndicator([-1.0, 0.0, -2.0], [1.0, 0.5, 2.0])),
        ("l1_2", L1Norm(2)),
        ("epi_psd2", EpiSum(PSDConeIndicator(2))),
        ("epi_orthant1", EpiSum(OrthantIndicator(1, -1))),
    ]


def pair_battery() -> list[tuple[str, ConvexPiece, np.ndarray, np.ndarray]]:
    """Subgradient pairs (piece, xbar, ubar) covering the regime mix:
    smooth, boundary (zero eigenvalues / kinks), and fully active points."""
    pts: list[tuple[str, ConvexPiece, np.ndarray]] = []
    psd2 = PSDConeIndicator(2)
    psd3 = PSDConeIndicator(3)
    pts.append(("psd2_mixed", psd2, svec(np.diag([2.0, -1.0]))))
    pts.append(("psd2_boundary", psd2, svec(np.diag([1.0, 0.0]))))
    pts.append(("psd2_origin", psd2, np.zeros(3)))
    pts.append(("psd3_full", psd3, svec(np.diag([2.0, 0.0, -1.0]))))
    orth = OrthantIndicator(3, -1)
    pts.append(("orthant_mixed", orth, np.array([-1.0, 0.0, 2.0])))
    box = BoxIndicator([-1.0, 0.0, -2.0], [1.0, 0.5, 2.0])
    pts.append(("box_mixed", box, np.array([0.2, 0.5, -3.0])))
    l1 = L1Norm(2)
    pts.append(("l1_kink", l1, np.array([1.0, 0.3])))
    pts.append(("l1_origin", l1, np.zeros(2)))
    epi = EpiSum(PSDConeIndicator(2))
    pts.append(("epi_psd_mixed", epi, np.concatenate([[0.7], svec(np.diag([1.0, -1.0]))])))
    out = []
    for name, piece, z in pts:
        xbar = piece.prox(z)
        out.append((name, piece, xbar, np.asarray(z) - xbar))
    return out


def _rand_point(rng, dim, scale=2.0):
    return scale * rng.standard_normal(dim)


# ----------------------------------------------------------------------
# prox suite


def check_nonexpansiveness(n_draws=1000, seed=0):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, piece in piece_battery():
        for _ in range(n_draws):
            z1 = _rand_point(rng, piece.dim)
            z2 = _rand_point(rng, piece.dim)
            lhs = np.linalg.norm(piece.prox(z1) - piece.prox(z2))
            rhs = np.linalg.norm(z1 - z2)
            worst = max(worst, lhs - rhs)
    return ("prox nonexpansiveness", worst <= 1e-12, f"worst excess {worst:.3e}")


def check_moreau_identity(n_draws=1000, seed=1):
    rng = np.random.default_rng(seed)
    worst1 = 0.0
    worst_sigma = 0.0
    for name, piece in piece_battery():
        for _ in range(n_draws):
            z = _rand_point(rng, piece.dim)
            r1 = np.linalg.norm(piece.prox(z) + piece.prox_conjugate_direct(z) - z)
            worst1 = max(worst1, r1)
            for sigma in (0.1, 10.0):
                lhs = piece.prox(z, sigma) \
                    + sigma * piece.prox_conjugate_direct(z / sigma, 1.0 / sigma)
                worst_sigma = max(worst_sigma, float(np.linalg.norm(lhs - z)))
    ok = worst1 <= 1e-12 and worst_sigma <= 1e-10
    return ("Moreau identity (direct conjugate route)", ok,
            f"sigma=1 residual {worst1:.3e}, general-sigma residual {worst_sigma:.3e}")


def check_element_properties(n_draws=100, seed=2, count=12):
    rng = np.random.default_rng(seed)
    worst_asym = 0.0
    worst_spec = 0.0
    worst_monotone = 0.0
    for name, piece, xbar, ubar in pair_battery():
        samples = piece.sample_clarke(xbar + ubar, count, seed)
        for el in samples:
            M = el.matrix
            worst_asym = max(worst_asym, float(np.max(np.abs(M - M.T))))
            w = np.linalg.eigvalsh(0.5 * (M + M.T))
            worst_spec = max(worst_spec, float(max(-w[0], w[-1] - 1.0)))
            for _ in range(n_draws):
                d = rng.standard_normal(piece.dim)
                Ud = M @ d
                worst_monotone = max(worst_monotone, -float(np.dot(Ud, d - Ud)))
    ok = worst_asym <= 1e-10 and worst_spec <= 1e-10 and worst_monotone <= 1e-10
    return ("element symmetry / spectrum / monotonicity", ok,
            f"asym {worst_asym:.3e}, spectrum excess {worst_spec:.3e}, "
            f"monotone defect {worst_monotone:.3e}")


def check_dirderiv_fd(n_draws=100, seed=3, t=1e-7):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, piece in piece_battery():
        drawn = 0
        guard = 0
        while drawn < n_draws and guard < 20 * n_draws:
            guard += 1
            z = _rand_point(rng, piece.dim)
            if piece.split_unstable(z):
                continue  # a nearly vanishing eigenvalue makes the split ill-conditioned
            d = rng.standard_normal(piece.dim)
            fd = (piece.prox(z + t * d) - piece.prox(z)) / t
            err = np.linalg.norm(piece.prox_dirderiv(z, d) - fd)
            worst = max(worst, err / (1.0 + np.linalg.norm(d)))
            drawn += 1
    return ("prox directional derivative vs finite differences",
            worst <= 1e-5, f"worst relative error {worst:.3e}")


def check_gamma_properties(n_draws=100, seed=4, count=16):
    rng = np.random.default_rng(seed)
    worst_neg = 0.0
    worst_gap = 0.0
    domain_mismatch = 0
    for name, piece, xbar, ubar in pair_battery():
        structure = piece.structure(xbar, ubar)
        samples = piece.sample_clarke(xbar + ubar, count, seed)
        for _ in range(n_draws):
            el = samples[int(rng.integers(0, len(samples)))]
            v = el.matrix @ rng.standard_normal(piece.dim)
            closed = structure.gamma(v)
            oracle = sampled_gamma(v, samples)
            if np.isfinite(closed):
                worst_neg = max(worst_neg, -closed)
            if np.isfinite(closed) != np.isfinite(oracle):
                domain_mismatch += 1
            elif np.isfinite(closed):
                worst_gap = max(worst_gap, abs(closed - oracle) / (1.0 + abs(closed)))
    ok = worst_neg <= 1e-10 and worst_gap <= 1e-8 and domain_mismatch == 0
    return ("curvature nonnegativity and closed form vs sampling oracle", ok,
            f"neg excess {worst_neg:.3e}, gap {worst_gap:.3e}, "
            f"domain mismatches {domain_mismatch}")


def check_gamma_fixed_point_bound(n_draws=50, seed=5, count=12):
    """For v solving v = U(v + d), the curvature value is at most <v, d>."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, piece, xbar, ubar in pair_battery():
        structure = piece.structure(xbar, ubar)
        samples = piece.sample_clarke(xbar + ubar, count, seed)
        for _ in range(n_draws):
            el = samples[int(rng.integers(0, len(samples)))]
            M = 0.5 * (el.matrix + el.matrix.T)
            w, Q = np.linalg.eigh(M)
            d = rng.standard_normal(piece.dim)
            dt = Q.T @ d
            dt[w > 1.0 - 1e-9] = 0.0  # eigenvalue-one coordinates need d = 0
            vt = np.where(w > 1e-9, w * dt / np.maximum(1.0 - w, 1e-9), 0.0)
            v = Q @ vt
            d = Q @ dt
            if np.linalg.norm(v - M @ (v + d)) > 1e-8 * (1.0 + np.linalg.norm(v)):
                continue
            val = structure.gamma(v)
            if np.isfinite(val):
                worst = max(worst, val - float(np.dot(v, d)))
    return ("curvature fixed-point upper bound", worst <= 1e-8,
            f"worst excess {worst:.3e}")


def check_dirderiv_identity_iff(n_draws=100, seed=6):
    """Directions fixed by the prox derivative are exactly the directions
    the conjugate prox derivative kills (checked through the Moreau
    identity on directional derivatives)."""
    rng = np.random.default_rng(seed)
    bad = 0
    for name, piece, xbar, ubar in pair_battery():
        z = xbar + ubar
        for _ in range(n_draws):
            h = rng.standard_normal(piece.dim)
            a = piece.prox_dirderiv(z, h)
            conj = h - a
            fixed = np.linalg.norm(a - h) <= 1e-8 * (1.0 + np.linalg.norm(h))
            killed = np.linalg.norm(conj) <= 1e-8 * (1.0 + np.linalg.norm(h))
            if fixed != killed:
                bad += 1
            if isinstance(piece, PSDConeIndicator):
                # independent conjugate route for the matrix piece
                direct = -piece.prox_dirderiv(-z, -h)
                if np.linalg.norm(direct - conj) > 1e-8 * (1.0 + np.linalg.norm(h)):
                    bad += 1
    return ("fixed directions match conjugate kernel directions", bad == 0,
            f"{bad} violations")


def prox_suite(seed: int = 0):
    return [
        check_nonexpansiveness(seed=seed),
        check_moreau_identity(seed=seed + 1),
        check_element_properties(seed=seed + 2),
        check_dirderiv_fd(seed=seed + 3),
        check_gamma_properties(seed=seed + 4),
        check_gamma_fixed_point_bound(seed=seed + 5),
        check_dirderiv_identity_iff(seed=seed + 6),
    ]


# ----------------------------------------------------------------------
# kkt suite


def check_battery_solutions():
    worst = 0.0
    for name in BATTERY_NAMES:
        problem, meta = load_battery(name)
        r = residual(problem, meta.known_solution)
        worst = max(worst, float(np.linalg.norm(r, np.inf)))
    return ("battery known solutions solve the KKT system", worst <= 1e-12,
            f"worst residual {worst:.3e}")


def check_element_fd(seed=7, n_draws=25, t=1e-7):
    """Assembled elements against directional finite differences of the
    residual at smooth points; the second row block carries the opposite
    sign by convention."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name in BATTERY_NAMES:
        problem, meta = load_battery(name)
        z0 = meta.known_solution.stacked()
        for _ in range(n_draws):
            z = z0 + 0.3 + 0.2 * rng.standard_normal(z0.size)
            if not _point_locally_smooth(problem, z):
                continue
            E = canonical_element(problem, z).matrix
            d = rng.standard_normal(z.size)
            fd = (residual(problem, z + t * d) - residual(problem, z)) / t
            fd[problem.n:] *= -1.0
            err = np.linalg.norm(E @ d - fd) / (1.0 + np.linalg.norm(d))
            worst = max(worst, err)
    return ("assembled elements match residual finite differences", worst <= 1e-5,
            f"worst relative error {worst:.3e}")


def _point_locally_smooth(problem, z) -> bool:
    """All prox blocks differentiable at F(x)+mu, with margin for the FD step."""
    x, mu = z[:problem.n], z[problem.n:]
    w = np.asarray(problem.F.eval(x), dtype=float) + mu
    return all(piece.smooth_at(wb) for piece, wb in zip(problem.pieces, problem.blocks(w)))


def check_linearization_taylor(seed=8):
    """The linearization gap decays quadratically: log-log slope >= 1.9."""
    rng = np.random.default_rng(seed)
    worst_slope = np.inf
    for name in ("nlp_toy", "smooth_toy"):
        problem, meta = load_battery(name)
        zbar = meta.known_solution
        z0 = zbar.stacked()
        d = rng.standard_normal(z0.size)
        d /= np.linalg.norm(d)
        hs = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5]
        gaps = []
        for h in hs:
            z = z0 + h * d
            gap = np.linalg.norm(linearized_residual(problem, zbar, z)
                                 - residual(problem, z))
            gaps.append(max(gap, 1e-300))
        slope = np.polyfit(np.log(hs), np.log(gaps), 1)[0]
        worst_slope = min(worst_slope, slope)
    return ("linearization gap is second order", worst_slope >= 1.9,
            f"worst log-log slope {worst_slope:.3f}")


def check_ge_unperturbed():
    worst = 0.0
    for name in BATTERY_NAMES:
        problem, meta = load_battery(name)
        zbar = meta.known_solution
        z = solve_linearized_ge(problem, zbar, np.zeros(problem.n + problem.m))
        worst = max(worst, float(np.linalg.norm(z.stacked() - zbar.stacked())))
    return ("unperturbed linearized inclusion returns the KKT point",
            worst <= 1e-10, f"worst distance {worst:.3e}")


def newton_start_grid(problem, meta, radius=0.5, count=10, seed=9):
    rng = np.random.default_rng(seed)
    z0 = meta.known_solution.stacked()
    starts = []
    for k in range(count):
        u = rng.standard_normal(z0.size)
        u /= np.linalg.norm(u)
        starts.append(z0 + radius * (k + 1) / count * u)
    return starts


def check_newton_grid(seed=9):
    opts = NewtonOptions(tol=1e-10)
    worst = 0.0
    for name in ("nlp_toy", "sdp_toy", "l1_toy", "smooth_toy"):
        problem, meta = load_battery(name)
        for start in newton_start_grid(problem, meta, seed=seed):
            z, trace = solve(problem, start, opts)
            worst = max(worst, float(np.linalg.norm(
                residual(problem, z), np.inf)))
    return ("Newton converges from the start grid", worst <= 1e-10,
            f"worst final residual {worst:.3e}")


def kkt_suite(seed: int = 0):
    return [
        check_battery_solutions(),
        check_element_fd(seed=seed + 7),
        check_linearization_taylor(seed=seed + 8),
        check_ge_unperturbed(),
        check_newton_grid(seed=seed + 9),
    ]


def run_suite(which: str, seed: int = 0):
    check_integer("seed", seed, 0)
    if which == "prox":
        return prox_suite(seed)
    if which == "kkt":
        return kkt_suite(seed)
    if which == "all":
        return prox_suite(seed) + kkt_suite(seed)
    raise ValueError(f"unknown suite {which!r}; choose prox, kkt or all")
