"""Walkthrough: what depolarizing noise in the fan-out CNOTs costs.

Each CNOT of the purification gadget now dumps its qubit pair into the
maximally mixed state with probability eps. The purified coefficients
follow an affine recurrence instead of plain products, their ratio tends
to a positive fixed point s, and the distillability threshold saturates
strictly above 1/2 instead of reaching it.
"""

from entdistill.distill_mixed import lower_bound, lower_bound_limit, parity_weights
from entdistill.noise import asymptotic_ratio, purified_coeffs_gate_noisy

P, EPS = 0.1, 0.1  # comparable readout and gate noise

print("=" * 72)
print(f"Purified coefficients under gate noise, p = {P}, eps = {EPS}")
print("=" * 72)
print(f"{'n':>3} {'r0':>16} {'r1':>16} {'r1/r0':>14}")
for n in (1, 2, 3, 4, 6, 8, 12):
    c = purified_coeffs_gate_noisy(P, EPS, n)
    print(f"{n:>3} {c.r0:>16.10f} {c.r1:>16.10f} {c.r1 / c.r0:>14.10f}")
s = asymptotic_ratio(P, EPS)
print(f"{'inf':>3} {'':>16} {'':>16} {s:>14.10f}   (closed-form fixed point)")

print()
print("=" * 72)
print("Distillability threshold with both parties at depth n")
print("=" * 72)
print(f"{'n':>3} {'L(n, n)':>14}")
for n in (1, 2, 3, 4, 8, 12):
    print(f"{n:>3} {lower_bound(parity_weights([P] * n, [P] * n, EPS)):>14.10f}")
limit = lower_bound_limit(P, EPS)
print(f"{'inf':>3} {limit:>14.10f}   (closed form)")
print()
print("Two extra qubits per party (n = 3) already sit within",
      f"{lower_bound(parity_weights([P] * 3, [P] * 3, EPS)) - limit:.2e}",
      "of the achievable limit;")
print("deeper purification cannot reach 1/2 because every extra CNOT adds noise.")
