"""Acceptance suite: one test per acceptance criterion, at stated tolerances.

Each test prints a single ``ACCEPTANCE k ... PASS/FAIL`` line (run pytest
with ``-s`` to see the lines for passing tests too).

Criteria 1 to 4 compare computed values against the published 3-decimal
reference tables at a tolerance of +/-5e-4. The ``PAPER_*`` dicts keep the
tables as published. Seven of their entries are misprints: each lies more
than 5e-4 from its exact value, and all seven lie below it. The ``ERRATA_*``
maps correct them, and the tests compare against the tables with the
errata applied. Each erratum carries its exact value and is checked to be
earned: the published value lies outside exact +/-5e-4 and the corrected
one inside.

- Thresholds (criteria 1 and 2): the exact value is a ``Fraction`` derived
  here from the gadget model, independently of ``entdistill``. The
  density-matrix protocol of ``oracle.py`` must also fail to improve an
  input at the published value + 5e-4, so the true threshold lies above it.
- Filtered fidelity (criterion 4): the exact value is the density-matrix
  oracle's, which agrees with the closed forms within 1e-5; the
  large-depth limit is approached by the oracle's depth-6 gadget.

Failure messages give, per entry, the computed value, the reference it was
held to, the published value and the exact value.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from entdistill import cli
from entdistill.distill_mixed import (
    distill_map,
    lower_bound,
    lower_bound_limit,
    parity_weights,
)
from entdistill.distill_pure import filter_ops, pure_filter_fidelity, pure_filter_fidelity_limit
from entdistill.noise import (
    noisy_povm_element,
    purified_coeffs_gate_noisy,
    purified_coeffs_general,
)
from entdistill.oracle import oracle_distill_mixed, oracle_distill_pure
from entdistill.qmat import I2, singlet_fraction
from entdistill.states import isotropic, pure_theta, twirl

TABLE_TOL = 5e-4

# published 3-decimal tables
PAPER_P02 = {  # (n, m) -> L for p = 0.2
    (1, 1): 0.781, (2, 1): 0.640, (3, 1): 0.627, (4, 1): 0.625,
    (1, 2): 0.640, (2, 2): 0.525, (3, 2): 0.514, (4, 2): 0.513,
    (1, 3): 0.627, (2, 3): 0.514, (3, 3): 0.503, (4, 3): 0.502,
}
PAPER_P01 = {  # (n, m) -> L for p = 0.1
    (1, 1): 0.617, (2, 1): 0.559, (3, 1): 0.556, (4, 1): 0.556,
    (1, 2): 0.559, (2, 2): 0.505, (3, 2): 0.500, (4, 2): 0.500,
}
PAPER_L_EPS = {1: 0.617, 2: 0.570, 3: 0.566, 4: 0.566}  # p = eps = 0.1, n = m
PAPER_FN_IDEAL = {1: 0.805, 2: 0.984, 3: 0.999, 4: 1.000}  # p = 0.1, theta = pi/16
PAPER_FN_NOISY = {1: 0.805, 2: 0.914, 3: 0.924, 4: 0.924}  # same, eps = 0.05
PAPER_FN_LIMIT = 0.924


# errata to the published tables: key -> (corrected 3-decimal value, exact value)
ERRATA_P02 = {(2, 1): (0.641, Fraction(41, 64)), (1, 2): (0.641, Fraction(41, 64))}
ERRATA_P01 = {
    (2, 2): (0.506, Fraction(32761, 64800)),
    (3, 2): (0.503, Fraction(62083, 123444)),
    (4, 2): (0.503, Fraction(65161, 129600)),
}
ERRATA_FN_NOISY = {  # oracle values; the limit through the depth-6 gadget
    4: (0.925, 0.924616402),
    "limit": (0.925, 0.924662639),
}


def _exact_threshold(p, n, m, epsilon=Fraction(0)):
    """L(n, m) in exact arithmetic, straight from the gadget model.

    A depth-k gadget keeps unanimous outcomes. Each ancilla step, with
    CNOTs that depolarize with fraction epsilon, maps
    r0 -> (1 - eps)(1 - p/2) r0 + eps/4 (r0 + r1) and
    r1 -> (1 - eps)(p/2) r1 + eps/4 (r0 + r1), so at epsilon = 0
    r0 = (1 - p/2)^k and r1 = (p/2)^k. Then t = r_odd / r_even and
    L = (1 + t) / (2 (1 - t)).
    """
    def coeffs(k):
        r0, r1 = 1 - p / 2, p / 2
        for _ in range(k - 1):
            mixed = epsilon / 4 * (r0 + r1)
            r0, r1 = (1 - epsilon) * (1 - p / 2) * r0 + mixed, (1 - epsilon) * p / 2 * r1 + mixed
        return r0, r1

    (a0, a1), (b0, b1) = coeffs(n), coeffs(m)
    t = (a0 * b1 + a1 * b0) / (a0 * b0 + a1 * b1)
    return (1 + t) / (2 * (1 - t))


def _show(value):
    if isinstance(value, Fraction):
        return f"{value} = {float(value):.9f}"
    return f"{value:.9f}"


def _report(number, label, failures, checked):
    status = "PASS" if not failures else f"FAIL ({len(failures)}/{checked} checks)"
    print(f"ACCEPTANCE {number} [{label}]: {status}")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def _table_failures(computed, published, exact, errata=None, tol=TABLE_TOL):
    """Entries where the computed value misses the published table with errata applied."""
    reference = {**published, **{key: value for key, (value, _) in (errata or {}).items()}}
    failures = []
    for key, ref in reference.items():
        dev = abs(computed[key] - ref)
        if dev > tol:
            failures.append(
                f"{key}: computed {computed[key]:.9f}, reference {ref:.3f} "
                f"(published {published[key]:.3f}), exact {_show(exact[key])}, "
                f"|dev| = {dev:.2e} > {tol:.0e}")
    return failures


def _errata_failures(published, errata, exact):
    """Errata not earned: the carried value is not the recomputed exact one, the
    published value already lies within TABLE_TOL of it, or the corrected one does not."""
    failures = []
    for key, (corrected, value) in errata.items():
        if abs(value - exact[key]) > 1e-9:
            failures.append(f"erratum {key}: carried {_show(value)}, recomputed {_show(exact[key])}")
        if abs(published[key] - value) <= TABLE_TOL:
            failures.append(
                f"erratum {key}: published {published[key]:.3f} lies within {TABLE_TOL:.0e} "
                f"of exact {_show(value)}")
        if abs(corrected - value) > TABLE_TOL:
            failures.append(
                f"erratum {key}: corrected {corrected:.3f} lies outside {TABLE_TOL:.0e} "
                f"of exact {_show(value)}")
    return failures


def _oracle_gain_failures(p, published, errata):
    """Threshold errata whose published value + TABLE_TOL the density-matrix protocol improves.

    F' < F there places the true threshold above the published value + TABLE_TOL.
    """
    failures = []
    for (n, m) in errata:
        f = published[(n, m)] + TABLE_TOL
        gain = oracle_distill_mixed(f, [p] * n, [p] * m).fidelity_out - f
        if gain >= 0.0:
            failures.append(f"erratum {(n, m)}: oracle F' - F = {gain:.2e} >= 0 at F = {f:.4f}")
    return failures


def test_criterion_1_lower_bound_table_p02():
    start = time.perf_counter()
    computed = {
        (n, m): lower_bound(parity_weights([0.2] * n, [0.2] * m))
        for (n, m) in PAPER_P02
    }
    elapsed = time.perf_counter() - start
    exact = {(n, m): _exact_threshold(Fraction(1, 5), n, m) for (n, m) in PAPER_P02}
    failures = _table_failures(computed, PAPER_P02, exact, ERRATA_P02)
    failures += _errata_failures(PAPER_P02, ERRATA_P02, exact)
    failures += _oracle_gain_failures(0.2, PAPER_P02, ERRATA_P02)
    if elapsed >= 1.0:
        failures.append(f"table computation took {elapsed:.2f} s >= 1 s")
    _report(1, "lower-bound table p=0.2, 12 entries with 2 errata, +/-5e-4, <1s",
            failures, 13 + 4 * len(ERRATA_P02))


def test_criterion_2_lower_bound_table_p01():
    computed = {
        (n, m): lower_bound(parity_weights([0.1] * n, [0.1] * m))
        for (n, m) in PAPER_P01
    }
    exact = {(n, m): _exact_threshold(Fraction(1, 10), n, m) for (n, m) in PAPER_P01}
    failures = _table_failures(computed, PAPER_P01, exact, ERRATA_P01)
    failures += _errata_failures(PAPER_P01, ERRATA_P01, exact)
    failures += _oracle_gain_failures(0.1, PAPER_P01, ERRATA_P01)
    _report(2, "lower-bound table p=0.1, 8 entries with 3 errata, +/-5e-4",
            failures, 8 + 4 * len(ERRATA_P01))


def test_criterion_3_gate_noisy_bounds():
    computed = {
        n: lower_bound(parity_weights([0.1] * n, [0.1] * n, 0.1)) for n in PAPER_L_EPS
    }
    exact = {n: _exact_threshold(Fraction(1, 10), n, n, Fraction(1, 10)) for n in PAPER_L_EPS}
    failures = _table_failures(computed, PAPER_L_EPS, exact)
    limit = lower_bound_limit(0.1, 0.1)
    at_12 = lower_bound(parity_weights([0.1] * 12, [0.1] * 12, 0.1))
    if abs(limit - at_12) > 1e-6:
        failures.append(f"limit {limit:.9f} vs n=12 value {at_12:.9f} differ by > 1e-6")
    _report(3, "gate-noisy bounds p=eps=0.1 and closed-form limit", failures, 5)


def test_criterion_4_pure_state_tables():
    theta, p = np.pi / 16, 0.1
    failures, checked = [], 0
    for eps, published, errata in (
        (0.0, PAPER_FN_IDEAL, {}),
        (0.05, {**PAPER_FN_NOISY, "limit": PAPER_FN_LIMIT}, ERRATA_FN_NOISY),
    ):
        computed = {
            n: pure_filter_fidelity(theta, purified_coeffs_gate_noisy(p, eps, n)).fidelity_out
            for n in PAPER_FN_IDEAL
        }
        oracle = {n: oracle_distill_pure(theta, p, eps, n).fidelity_out for n in PAPER_FN_IDEAL}
        if "limit" in published:
            # the oracle rises towards the limit with depth; depth 6 is within 1e-6 of it
            computed["limit"] = pure_filter_fidelity_limit(theta, p, eps)
            oracle["limit"] = oracle_distill_pure(theta, p, eps, 6).fidelity_out
        msgs = _table_failures(computed, published, oracle, errata)
        msgs += _errata_failures(published, errata, oracle)
        msgs += [
            f"{key}: closed form {computed[key]:.9f} and oracle {oracle[key]:.9f} differ by > 1e-5"
            for key in computed if abs(computed[key] - oracle[key]) > 1e-5
        ]
        failures += [f"eps={eps} " + msg for msg in msgs]
        checked += 2 * len(published) + 3 * len(errata)
    _report(4, "pure-state tables p=0.1 theta=pi/16 with 2 errata, +/-5e-4", failures, checked)


def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    dev = cli.run_verification(max_n=3, seed=20240817, draws=20, full=True)
    elapsed = time.perf_counter() - start
    failures = [
        f"{name}: max deviation {value:.3e} >= 1e-10"
        for name, value in sorted(dev.items()) if value >= 1e-10
    ]
    if "direct_register" not in dev:
        failures.append("direct full-register check did not run")
    if elapsed >= 60.0:
        failures.append(f"verification grid took {elapsed:.1f} s >= 60 s")
    _report(5, "oracle equivalence at 1e-10 incl. 8-qubit direct check, <60s",
            failures, len(dev) + 2)


def test_criterion_6_property_suites(rng):
    failures = []

    # POVM completeness, exact
    for p in (0.0, 0.05, 0.1, 0.2, 0.3, 0.9):
        if not np.array_equal(noisy_povm_element(0, p) + noisy_povm_element(1, p), I2):
            failures.append(f"POVM completeness not exact at p={p}")

    # Kraus completeness at 1e-10
    for theta in np.linspace(0.02, np.pi / 4, 25):
        ops = filter_ops(float(theta))
        total = ops.k0.conj().T @ ops.k0 + ops.k1.conj().T @ ops.k1
        if np.abs(total - I2).max() > 1e-10:
            failures.append(f"Kraus completeness violated at theta={theta:.4f}")

    # noisy-filter decomposition at 1e-10
    from conftest import rand_pure_state
    from reference import partial_trace

    from entdistill.qmat import KET0, embed_op, projector, tensor

    theta, p = 0.3, 0.14
    ops = filter_ops(theta)
    u_full = embed_op(ops.u, [1, 2], 3)
    for _ in range(5):
        rho = projector(rand_pure_state(rng, 2))
        circ = u_full @ tensor(rho, projector(KET0)) @ u_full.conj().T
        lhs = partial_trace(circ @ tensor(np.eye(4), noisy_povm_element(0, p)), [0, 1])
        k0, k1 = tensor(I2, ops.k0), tensor(I2, ops.k1)
        rhs = (1 - p / 2) * k0 @ rho @ k0.conj().T + (p / 2) * k1 @ rho @ k1.conj().T
        if np.abs(lhs - rhs).max() > 1e-10:
            failures.append("noisy single-shot filter decomposition violated")
            break

    # purified fidelity monotone in n and -> 1 at eps = 0
    for p in (0.05, 0.1, 0.2, 0.3):
        fids = [purified_coeffs_gate_noisy(p, 0.0, n).fidelity for n in range(1, 11)]
        if not all(b > a for a, b in zip(fids, fids[1:]) if a < 1.0) or fids[-1] < 0.9999:
            failures.append(f"purified fidelity not monotone -> 1 at p={p}")

    # twirl idempotence and singlet-fraction preservation at 1e-12
    from conftest import rand_density_matrix

    for _ in range(10):
        rho = rand_density_matrix(rng, 2)
        out = twirl(rho)
        if np.abs(twirl(out) - out).max() > 1e-12:
            failures.append("twirl not idempotent at 1e-12")
        if abs(singlet_fraction(out) - singlet_fraction(rho)) > 1e-12:
            failures.append("twirl does not preserve the singlet fraction at 1e-12")

    # sign/root structure of the gain on a dense F grid
    for (p, n, m, eps) in [(0.2, 1, 1, 0.0), (0.1, 2, 2, 0.0), (0.1, 3, 3, 0.1)]:
        w = parity_weights([p] * n, [p] * m, eps)
        big_l = lower_bound(w)
        for f in np.linspace(0.005, 0.995, 397):
            f = float(f)
            if min(abs(f - 0.25), abs(f - big_l), abs(f - 1.0)) < 1e-6:
                continue
            gain = distill_map(f, w).fidelity_out - f
            if np.sign(gain) != np.sign(-8 * (f - 0.25) * (f - big_l) * (f - 1.0)):
                failures.append(f"gain sign structure violated at p={p} n={n} m={m} F={f}")
                break

    # heterogeneous -> homogeneous reduction at 1e-12
    for p in (0.05, 0.15, 0.3):
        for n in (1, 3, 5):
            hom = purified_coeffs_gate_noisy(p, 0.0, n)
            het = purified_coeffs_general([p] * n)
            if abs(hom.r0 - het.r0) > 1e-12 or abs(hom.r1 - het.r1) > 1e-12:
                failures.append(f"heterogeneous reduction violated at p={p} n={n}")

    # swap symmetry of parity weights, exact
    for _ in range(20):
        p_a = list(rng.uniform(0.0, 0.3, rng.randint(1, 4)))
        p_b = list(rng.uniform(0.0, 0.3, rng.randint(1, 4)))
        w1, w2 = parity_weights(p_a, p_b), parity_weights(p_b, p_a)
        if w1.r_even != w2.r_even or w1.r_odd != w2.r_odd:
            failures.append("parity weights not swap symmetric")
            break

    _report(6, "property suites", failures, 8)


def test_criterion_7_qualitative_figure_reproduction(rng):
    failures = []
    w = parity_weights([0.1, 0.1], [0.1, 0.1])

    for f in np.linspace(0.506, 0.999, 247):
        f = float(f)
        if distill_map(f, w).fidelity_out <= f:
            failures.append(f"F'>F fails at F={f:.4f} inside (0.506, 0.999)")
            break
    for f in np.linspace(0.2504, 0.504, 247):
        f = float(f)
        if distill_map(f, w).fidelity_out > f:
            failures.append(f"F'>F unexpectedly holds at F={f:.4f} inside (0.25, 0.504)")
            break

    for draw in range(100):
        p_a = list(rng.uniform(0.025, 0.175, 2))
        p_b = list(rng.uniform(0.025, 0.175, 2))
        if distill_map(0.7, parity_weights(p_a, p_b)).fidelity_out <= 0.7:
            failures.append(f"heterogeneous draw {draw} fails to improve F=0.7")
            break

    _report(7, "qualitative threshold and heterogeneous-band behaviour", failures, 3)


def _break_even_epsilon(p):
    """The gate noise at which one more ancilla stops paying: eps*(p) = p(2 - p)/(1 + p(2 - p)).

    With q = p/2, one more ancilla lowers the gadget's r1/r0 exactly when
    eps/4 < (1 - eps) q (1 - q); F' depends on the coefficients only
    through r1/r0.
    """
    return p * (2 - p) / (1 + p * (2 - p))


def test_criterion_8_break_even_gate_noise():
    """One more ancilla raises F' just below eps*(p) and lowers it just above.

    The abstract calls purification with two additional qubits
    cost-effective for measurement and gate errors up to 10%. PAPER.md
    holds only the abstract, so reading "cost-effective" as "one more
    ancilla raises F' below eps*(p)" is this repository's reading. The
    density-matrix protocol checks it at F = 0.8 for p up to 0.1, at
    0.97 and 1.03 eps*(p), at every step from depth (1, 1) to (6, 6).
    The last step's gaps are 5e-13 to 5e-8, far above the oracle's
    rounding.
    """
    depth = 6
    failures, checked = [], 0
    for p in (0.01, 0.02, 0.05, 0.1):
        for scale, sign in ((0.97, 1), (1.03, -1)):
            eps = scale * _break_even_epsilon(p)
            f_out = [oracle_distill_mixed(0.8, [p] * n, [p] * n, eps).fidelity_out
                     for n in range(1, depth + 1)]
            for n, gain in enumerate(np.diff(f_out), start=1):
                checked += 1
                if sign * gain <= 0:
                    failures.append(f"p = {p}, eps = {scale} eps* = {eps:.6f}: F'({n + 1}, "
                                    f"{n + 1}) - F'({n}, {n}) = {gain:.2e}")
    _report(8, "break-even gate noise of one more ancilla", failures, checked)


def test_twirled_input_feeds_the_map():
    # protocol glue: twirling an arbitrary state and distilling matches the
    # map at the state's singlet fraction
    rho = twirl(np.outer(pure_theta(0.5), pure_theta(0.5).conj()))
    f = singlet_fraction(rho)
    w = parity_weights([0.1], [0.1])
    res = distill_map(f, w)
    assert res.fidelity_out > f
    np.testing.assert_allclose(rho, isotropic(f), atol=1e-12)
