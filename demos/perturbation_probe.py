"""Contrast of the perturbed linearized inclusion on a strongly regular
instance and on the degenerate one: unique Lipschitz solutions versus
non-uniqueness flags and solver failures."""

import numpy as np

from kktstab import AnalyzerOptions, load_battery, solve_linearized_ge, strong_regularity_probe
from kktstab.newton import NewtonError

print("== hand-checkable perturbations on the scalar soft-threshold instance")
problem, meta = load_battery("l1_toy")
for d1, d2 in ((0.3, -0.2), (-0.6, 0.4), (0.05, 0.0)):
    z = solve_linearized_ge(problem, meta.known_solution, np.array([d1, d2]))
    print(f"   delta=({d1:+.2f},{d2:+.2f}) -> x={z.x[0]:+.4f}, mu={z.mu[0]:+.4f} "
          f"(expected x={-d2:+.4f}, mu={d1:+.4f})")

for name in ("l1_toy", "nlp_toy", "sdp_toy", "sdp_degenerate"):
    problem, meta = load_battery(name)
    stats = strong_regularity_probe(problem, meta.known_solution,
                                    AnalyzerOptions(radius=0.05, num_delta=40, seed=0))
    print(f"== {name} ({stats.pieces} local pieces): solved {stats.solved}/{stats.num_delta + 1}, "
          f"failures {stats.failures}, violations {stats.violations}, "
          f"modulus {stats.modulus:.3e}")

print()
print("the degenerate instance shows why the probe matters: the pieces of its")
print("local model are not coherently oriented, which the probe reads as one")
print("violation, and its linearized inclusion admits multiple solutions, so")
print("Newton solves from different starting points disagree or fail.")
problem, meta = load_battery("sdp_degenerate")
delta = np.array([0.01, 0.0, 0.0, 0.0, 0.0])
sols = []
for off in (0.0, 0.02, -0.02):
    try:
        z = solve_linearized_ge(problem, meta.known_solution, delta,
                                start=meta.known_solution.stacked() + off)
        sols.append(z.stacked())
        print(f"   start offset {off:+.2f} -> solution {np.round(z.stacked(), 6)}")
    except NewtonError:
        print(f"   start offset {off:+.2f} -> solver failed")
if len(sols) >= 2:
    spread = max(np.linalg.norm(a - b) for i, a in enumerate(sols) for b in sols[i+1:])
    print(f"   spread between solutions: {spread:.3e}")
