"""Local filtering of Schmidt-form pure states with noisy measurements.

For a shared state sin(theta)|00> + cos(theta)|11> with theta in
(0, pi/4], one party can concentrate the entanglement by the filtering
operation

    K0 = |0><0| + tan(theta)|1><1|,   K1 = sqrt(1 - tan^2(theta))|1><1|,

realized by a controlled-W gate on the local qubit and a fresh ancilla
followed by a measurement of the ancilla: outcome 0 applies K0 and
leaves an exact ebit with probability 2 sin^2(theta), outcome 1 applies
the rank-one K1 and destroys the entanglement.

A noisy ancilla measurement mixes K1 into the accepted branch. Purifying
that measurement with the fan-out gadget suppresses the contamination:
with post-selected weights (r0, r1) the accepted state is

    r0 * 2 sin^2(theta) |phi+><phi+| + r1 (1 - 2 sin^2(theta)) |11><11|

(up to normalization), giving fidelity

    F_n = [r0 * 2 sin^2(theta) + (1/2) r1 (1 - 2 sin^2(theta))] / p_succ,
    p_succ = r0 * 2 sin^2(theta) + r1 (1 - 2 sin^2(theta)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distill_mixed import PI_PHI_PLUS, DistillResult
from .noise import PurifiedCoeffs, _any, asymptotic_ratio
from .states import _check_theta


@dataclass(frozen=True)
class FilterOps:
    """Kraus pair, single-qubit rotation W and controlled-W realizing the filter."""

    k0: np.ndarray
    k1: np.ndarray
    w: np.ndarray
    u: np.ndarray


def controlled_w(theta: float) -> np.ndarray:
    """The filter's U = |0><0| x I + |1><1| x W; ``filter_ops`` reads K0, K1 and W off it."""
    t = np.tan(theta)
    r = np.sqrt(1.0 - t * t)
    u = np.eye(4, dtype=complex)
    u[2:, 2:] = [[t, -r], [r, t]]
    return u


def filter_ops(theta: float) -> FilterOps:
    """Construct the filtering operation for a given Schmidt angle.

    W rotates |0> to tan(theta)|0> + sqrt(1 - tan^2 theta)|1>; K_m is the
    ancilla element <m| U |0> of the controlled-W U on (system, ancilla).
    K0, K1 and W are copies read off U. At theta = pi/4, K0 = I and K1 = 0.
    """
    _check_theta(theta)
    u = controlled_w(theta)
    return FilterOps(k0=u[::2, ::2].copy(), k1=u[1::2, ::2].copy(), w=u[2:, 2:].copy(), u=u)


def pure_post_state_unnormalized(theta: float, coeffs: PurifiedCoeffs) -> np.ndarray:
    """Unnormalized accepted state after filtering with purified weights.

    Coefficient arrays give a stack of states, each equal bit for bit to its
    scalar call. theta stays a float, as ``post_state_unnormalized``'s f does.
    """
    _check_theta(theta)
    t2 = 2.0 * np.sin(theta) ** 2
    r0 = coeffs.r0[..., None, None] if np.ndim(coeffs.r0) else coeffs.r0
    out = r0 * t2 * PI_PHI_PLUS
    out[..., 3, 3] += coeffs.r1 * (1.0 - t2)
    return out


def pure_filter_fidelity(theta: float, coeffs: PurifiedCoeffs) -> DistillResult:
    """Fidelity and success probability of the filter with a purified measurement.

    Coefficient arrays, with a scalar theta, give arrays equal bit for
    bit to the scalar calls.
    """
    _check_theta(theta)
    t2 = 2.0 * np.sin(theta) ** 2
    kept, flipped = coeffs.r0 * t2, 1.0 - t2
    p_succ = kept + coeffs.r1 * flipped
    if _any(p_succ <= 0.0):
        raise ValueError("filter success probability is zero")
    return DistillResult(fidelity_out=(kept + 0.5 * coeffs.r1 * flipped) / p_succ, p_succ=p_succ)


def pure_filter_fidelity_limit(theta: float, p: float, epsilon: float) -> float:
    """Large-depth limit of the filtered fidelity under CNOT noise.

    Uses the fixed-point ratio s of the purification recurrence:

        lim F_n = [2 sin^2 t + (s/2)(1 - 2 sin^2 t)]
                  / [2 sin^2 t + s (1 - 2 sin^2 t)].

    Defined for epsilon > 0; with ideal CNOTs the limit is exactly 1.
    ``asymptotic_ratio`` checks p and epsilon.
    """
    if not 0.0 < theta < np.pi / 4:
        raise ValueError(f"theta must lie in (0, pi/4), got {theta}")
    s = asymptotic_ratio(p, epsilon)
    t2 = 2.0 * np.sin(theta) ** 2
    return (t2 + 0.5 * s * (1.0 - t2)) / (t2 + s * (1.0 - t2))

