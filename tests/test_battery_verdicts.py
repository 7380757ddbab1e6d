"""Every verdict, detail string and probe count of the equivalence report on
the five battery instances, pinned at seed 0 with reduced analyzer
settings; floats are pinned to a relative 1e-6."""

import numpy as np
import pytest

from kktstab import AnalyzerOptions, equivalence_report, load_battery

FAST = AnalyzerOptions(num_delta=20, srcq_budget=400)

EXACT_RCQ = ("holds", "normal-cone intersection is trivial (exact)")
EXACT_SRCQ = ("holds", "polar intersection is trivial (exact)")
TRIVIAL_SUBSPACE = ("holds", float("inf"), 0, "critical subspace is trivial")
CONSISTENT = (True, True, True, "consistent", "")
# the consistency note: leg b is exact everywhere, and so is leg c at the
# polyhedral toys and, through the B-derivative, at the PSD ones (|beta| <= 1);
# the probe's modulus is sampled
EXACT_NOTE = ("leg b is exact at this point; so is leg c (coherent orientation), whose modulus "
              "is a sampled lower bound")
B_DERIVATIVE_NOTE = ("leg b is exact at this point; so is leg c (coherent orientation of the "
                     "B-derivative), whose modulus is a sampled lower bound")

# name: (rcq, srcq, nondegeneracy, unique multiplier, second order,
#        sweep (verdict, margin, elements, argmin), probe (modulus,
#        violations, failures, solved, local pieces), consistency
#        (legs a, b, c, verdict, disagreement), note)
EXPECTED = {
    "nlp_toy": (
        EXACT_RCQ, EXACT_SRCQ, ("holds", "rank 2 of 2"), True, TRIVIAL_SUBSPACE,
        ("all-elements-nonsingular", 1.0, 1,
         ("epi(orthant_indicator:canonical)",)),
        (1.6167967978021782, 0, 0, 21, 1), CONSISTENT, EXACT_NOTE),
    "sdp_toy": (
        EXACT_RCQ, EXACT_SRCQ, ("holds", "rank 4 of 4"), True, TRIVIAL_SUBSPACE,
        ("all-elements-nonsingular", 1.0, 1, ("epi(psd_indicator:canonical)",)),
        (0.9984186711868456, 0, 0, 21, 1), CONSISTENT, B_DERIVATIVE_NOTE),
    "sdp_degenerate": (
        EXACT_RCQ, ("fails", "span test rank 3 of 4"),
        ("fails", "rank 2 of 4"), False,
        ("skipped", "multiplier set is not a singleton"),
        ("singular-element-found", 0.0, 2, ("epi(psd_indicator:canonical)",)),
        (0.0, 1, 0, 1, 2), (False, False, False, "consistent", ""),
        B_DERIVATIVE_NOTE),
    "l1_toy": (
        EXACT_RCQ, EXACT_SRCQ, ("holds", "rank 1 of 1"), True, TRIVIAL_SUBSPACE,
        ("all-elements-nonsingular", 1.0, 1, ("l1_norm:canonical",)),
        (1.0000000000000007, 0, 0, 21, 1), CONSISTENT, EXACT_NOTE),
    "smooth_toy": (
        EXACT_RCQ, EXACT_SRCQ, ("holds", "rank 2 of 2"), True, ("holds", 1.0, 1, ""),
        ("all-elements-nonsingular", 1.0, 1,
         ("epi(orthant_indicator:canonical)",)),
        (0.9980308321202721, 0, 0, 21, 1), CONSISTENT, EXACT_NOTE),
}


def _approx(x):
    return pytest.approx(x, rel=1e-6)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_battery_report_is_pinned(name):
    rcq, srcq, nondeg, unique, second, sweep, probe, consistency, note = EXPECTED[name]
    problem, meta = load_battery(name)
    rep = equivalence_report(problem, meta.known_solution, FAST)
    assert (rep.rcq.status, rep.rcq.detail) == rcq
    assert (rep.srcq.status, rep.srcq.detail) == srcq
    assert (rep.nondegeneracy.status, rep.nondegeneracy.detail) == nondeg
    assert rep.multiplier_unique is unique
    if len(second) == 2:
        assert (rep.ssosc.status, rep.ssosc.detail) == second
    else:
        status, min_eig, dim, detail = second
        assert (rep.ssosc.status, rep.ssosc.subspace_dim, rep.ssosc.detail) == (
            status, dim, detail)
        assert rep.ssosc.min_eigenvalue == _approx(min_eig)
    verdict, margin, n_elements, argmin = sweep
    assert (rep.sweep.verdict, rep.sweep.n_elements, rep.sweep.argmin_provenance) == (
        verdict, n_elements, argmin)
    assert rep.sweep.margin == _approx(margin)
    modulus, violations, failures, solved, pieces = probe
    assert (rep.probe.violations, rep.probe.failures, rep.probe.solved) == (
        violations, failures, solved)
    assert rep.probe.modulus == _approx(modulus)
    # only sdp_degenerate has a kink, its |beta| = 1 block: the others' local
    # model has one piece
    assert (rep.probe.pieces, rep.probe.failure) == (pieces, "")
    c = rep.consistency
    got = (c["leg_a_second_order_and_nondegeneracy"], c["leg_b_elements_nonsingular"],
           c["leg_c_probe_strong_regularity"], c["verdict"], c["disagreement"])
    assert tuple(bool(v) if isinstance(v, (bool, np.bool_)) else v for v in got) == consistency
    assert c["note"] == note
    assert all(v.tol == 1e-8 for v in (rep.rcq, rep.srcq, rep.nondegeneracy, rep.ssosc))
