"""Walkthrough: certifying the closed forms against brute-force simulation.

Every analytic quantity in the package has a density-matrix counterpart
built from explicit registers: the purification gadget, the two-way
distillation round, and the filtering circuit. This script reruns the
comparison and prints the worst deviation per quantity; everything
should sit at the 1e-13 level or below, far inside the 1e-10 gate.
"""

import numpy as np

from entdistill.cli import run_verification
from entdistill.distill_mixed import distill_map, parity_weights, post_state_unnormalized
from entdistill.oracle import oracle_mixed_post_state_direct

print("=" * 72)
print("Seeded verification grid (n, m <= 3; eps in {0, 0.05, 0.1}; 20 draws)")
print("=" * 72)
dev = run_verification(max_n=3, seed=1, draws=20, full=True)
for name in sorted(dev):
    print(f"  {name:<18} max|analytic - oracle| = {dev[name]:.3e}")
print("all below 1e-10:", all(v < 1e-10 for v in dev.values()))

print()
print("=" * 72)
print("Full-register spot check: n = m = 3 needs an 8-qubit simulation")
print("=" * 72)
f, eps = 0.7, 0.05
p_a = [0.1, 0.15, 0.08]
p_b = [0.12, 0.2, 0.05]
direct = oracle_mixed_post_state_direct(f, p_a, p_b, eps)
w = parity_weights(p_a, p_b, eps)
analytic = post_state_unnormalized(f, w)
print("max entrywise |direct - analytic|:", f"{np.abs(direct - analytic).max():.3e}")
res = distill_map(f, w)
print("fidelity:", f"{res.fidelity_out:.12f}",
      " success probability:", f"{res.p_succ:.12f}")
print("trace of direct-register state:", f"{np.trace(direct).real:.12f}")
