"""Single-round two-way distillation of isotropic states with purified measurements.

Both parties hold two copies of an isotropic state with singlet fraction
F, apply a bilateral CNOT between their halves, and measure the second
pair with purified noisy detectors (depths n and m). Keeping only equal
effective outcomes leaves the first pair in a new isotropic-like state
whose singlet fraction F' exceeds F exactly when F lies above a
threshold L that depends on the detector quality but not on F.

The detector quality enters through two parity weights:

    r_even = r0^A r0^B + r1^A r1^B    (both effective outcomes faithful
                                       or both flipped)
    r_odd  = r0^A r1^B + r1^A r0^B    (exactly one flipped)

with per-party (r0, r1) from the purification analysis. Flips leak
anti-correlated populations into the accepted branch through the ratio
t = r_odd / r_even; the output fidelity map is

    F' = [F^2 + w^2 + g] / [F^2 + 2Fw + 5w^2 + 4g],
    w = (1 - F)/3,  g = (Fw + w^2) t,

and the improvement threshold has the closed form

    L = (r_even + r_odd) / (2 (r_even - r_odd)).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from .noise import _any, _check_fraction, _first, purified_coeffs_general
from .qmat import PHI_PLUS, projector

#: |00><00| + |11><11| and |01><01| + |10><10|, the correlated and
#: anti-correlated computational projectors, and the read-only |phi+><phi+|.
PI_EVEN = np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)
PI_ODD = np.diag([0.0, 1.0, 1.0, 0.0]).astype(complex)
PI_PHI_PLUS = projector(PHI_PLUS)
PI_PHI_PLUS.flags.writeable = False


@dataclass(frozen=True)
class ParityWeights:
    """Probabilities that the two parties' effective outcomes agree or differ.

    Floats, or arrays with one entry per evaluation point.
    """

    r_even: float | np.ndarray
    r_odd: float | np.ndarray

    def __post_init__(self):
        negative = (self.r_even < 0.0) | (self.r_odd < 0.0)
        if _any(negative):
            raise ValueError("weights must be nonnegative, got "
                             f"({_first(negative, self.r_even)}, {_first(negative, self.r_odd)})")
        if _any(self.r_even + self.r_odd > 1.0 + 1e-9):
            raise ValueError("r_even + r_odd exceeds 1")


@dataclass(frozen=True)
class DistillResult:
    """Outcome of one post-selected distillation round."""

    fidelity_out: float
    p_succ: float


def parity_weights(
    p_a: Sequence[float] | np.ndarray,
    p_b: Sequence[float] | np.ndarray,
    epsilon: float = 0.0,
) -> ParityWeights:
    """Weights for per-measurement rates p_a (Alice), p_b (Bob) and CNOT noise epsilon.

    Homogeneous parties pass ``[p] * n`` and ``[p] * m``. Symmetric
    under swapping the two rate lists. Rate matrices with one row per
    point (see ``purified_coeffs_general``) give one weight per row.
    """
    a = purified_coeffs_general(p_a, epsilon=epsilon)
    b = purified_coeffs_general(p_b, epsilon=epsilon)
    return weights_from_coeffs(a.r0, a.r1, b.r0, b.r1)


def weights_from_coeffs(a0, a1, b0, b1) -> ParityWeights:
    """Weights of Alice's coefficients (a0, a1) and Bob's (b0, b1).

    Floats, or arrays that broadcast: each entry comes from its own
    four coefficients, with ``parity_weights``' operations in its order.
    """
    return ParityWeights(r_even=a0 * b0 + a1 * b1, r_odd=a0 * b1 + a1 * b0)


def distill_map(f: float | np.ndarray, weights: ParityWeights) -> DistillResult:
    """One round of the fidelity map at input singlet fraction f.

    The success probability is the trace of the unnormalized
    post-selected state, r_even times the map's denominator. An array
    of f, with scalar weights or weights of the same shape, gives
    arrays equal bit for bit to the scalar calls.
    """
    f = _check_fraction(f, "input fidelity", closed=True)
    if _any(weights.r_even <= 0.0):
        raise ValueError("r_even must be positive")
    w = (1.0 - f) / 3.0
    g = (f * w + w * w) * (weights.r_odd / weights.r_even)
    num = f * f + w * w + g
    den = f * f + 2.0 * f * w + 5.0 * w * w + 4.0 * g
    return DistillResult(fidelity_out=num / den, p_succ=weights.r_even * den)


def post_state_unnormalized(f: float, weights: ParityWeights) -> np.ndarray:
    """The accepted branch's unnormalized two-qubit state, p_succ * rho'.

    Expanding the post-selected output over |phi+><phi+| and the
    correlated/anti-correlated projectors:

        r_even (F - w)^2 |phi+><phi+|
        + [F w (2 r_even + r_odd) + w^2 r_odd] Pi_even
        + [F w r_odd + w^2 (2 r_even + r_odd)] Pi_odd,   w = (1 - F)/3.

    Its trace is distill_map's p_succ and its normalized singlet
    fraction is distill_map's output fidelity. Weight arrays give a stack of
    states, each its scalar call's bit for bit. f stays a float: a float's ``** 2``
    is C ``pow``, an array's a product; they differ in the last bit for 1,656 of 2M
    uniform draws on [-2, 2], an np.float64's for 189 of 200k (glibc 2.36).
    """
    f = _check_fraction(float(f), "input fidelity", closed=True)
    re, ro = weights.r_even, weights.r_odd
    if np.ndim(re):
        re, ro = re[..., None, None], ro[..., None, None]
    w = (1.0 - f) / 3.0
    return (
        re * (f - w) ** 2 * PI_PHI_PLUS
        + (f * w * (2.0 * re + ro) + w * w * ro) * PI_EVEN
        + (f * w * ro + w * w * (2.0 * re + ro)) * PI_ODD
    )


def lower_bound(weights: ParityWeights) -> float | np.ndarray:
    """Threshold L = (r_even + r_odd) / (2 (r_even - r_odd)).

    Above F = 1/4, one distillation round strictly increases the singlet
    fraction exactly for F in (L, 1). Requires r_even > r_odd; otherwise
    no window of improvement exists. Array weights give arrays equal bit
    for bit to the scalar calls, and the error the first closed entry's.
    """
    closed = weights.r_even <= weights.r_odd
    if _any(closed):
        raise ValueError(f"no distillable window: r_even = {_first(closed, weights.r_even)} "
                         f"<= r_odd = {_first(closed, weights.r_odd)}")
    return (weights.r_even + weights.r_odd) / (2.0 * (weights.r_even - weights.r_odd))


def lower_bound_limit(p: float, epsilon: float) -> float:
    """Large-depth limit of the threshold for homogeneous p and CNOT noise epsilon.

    Closed form obtained from the fixed point of the coefficient
    recurrence; strictly above 1/2 for epsilon > 0. For epsilon = 0 the
    exact limit is 1/2, so that case is rejected here.
    """
    p = _check_fraction(p, "p")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    root = np.sqrt(
        4.0 * (1.0 - p) ** 2 * (1.0 - 2.0 * epsilon)
        + epsilon ** 2 * (5.0 + 4.0 * (-2.0 + p) * p)
    )
    num = (
        2.0 * (1.0 - p) ** 2 * (1.0 - 2.0 * epsilon)
        + epsilon ** 2 * (3.0 - 2.0 * (2.0 - p) * p)
        + epsilon * root
    )
    return float(num / (4.0 * (1.0 - epsilon) ** 2 * (1.0 - p) ** 2))
