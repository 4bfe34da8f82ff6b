"""Noisy measurements, their purification, and depolarizing CNOT noise.

A noisy computational-basis measurement is the two-outcome POVM

    M~_i = (1 - p)|i><i| + p I/2 = (1 - p/2) M_i + (p/2) M_{i xor 1},

so p/2 is the raw readout error rate. The purification gadget copies the
measured qubit onto n-1 fresh ancillas with a fan-out of CNOTs, measures
all n qubits with noisy detectors, and keeps only unanimous outcome
strings (0^n or 1^n). The surviving statistics are governed by a pair of
coefficients (r0, r1): the post-selected POVM element for outcome i is

    Q_i = (r0 M_i + r1 M_{i xor 1}) / (r0 + r1),

with r0 = prod(1 - p_k/2) and r1 = prod(p_k/2) when the CNOTs are ideal.
As n grows, r1/r0 -> 0 and Q_i approaches the projective M_i, at the
price of a shrinking acceptance yield r0 + r1.

When each CNOT itself depolarizes its qubit pair with probability
epsilon, (r0, r1) instead follow the affine recurrence

    r0' = (1 - eps) r0 (1 - p/2) + (eps/4)(r0 + r1)
    r1' = (1 - eps) r1 (p/2)     + (eps/4)(r0 + r1)

started from (1 - p/2, p/2), and the ratio r1/r0 converges to a strictly
positive fixed point s instead of zero.

Every rate p and CNOT noise epsilon lies in [0, 1): each entry point,
the channel ``depolarized_cnot_apply`` included, rejects 1 with "...
must lie in [0, 1)". ``asymptotic_ratio`` also needs epsilon > 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from functools import lru_cache

import numpy as np

# embed_op is unused here but stays bound: the benchmark's tests check noise.embed_op.
from .qmat import embed_op  # noqa: F401


def _any(mask):
    """Whether a condition, a bool or a bool array, holds anywhere."""
    return np.count_nonzero(mask) > 0 if isinstance(mask, np.ndarray) else mask  # any()'s 1/3 cost


def _first(mask, value):
    """``value`` where ``mask`` first holds, in row order; a scalar passes through."""
    if np.ndim(mask):
        return float(np.broadcast_to(value, mask.shape)[mask][0])
    return value


def _check_fraction(value, name: str, closed: bool = False):
    """``value`` as a float, or a float array, in [0, 1) ([0, 1] if ``closed``).

    The error names the first value outside, in row order.
    """
    if isinstance(value, np.ndarray):
        value = value.astype(float, copy=False)
        inside = (value >= 0.0) & ((value <= 1.0) if closed else (value < 1.0))  # not NaN
        if np.count_nonzero(inside) == inside.size:  # inside.all(), at a third of its cost
            return value
        value = float(value[~inside][0])
    else:
        value = float(value)
        if 0.0 <= value < 1.0 or (closed and value == 1.0):
            return value
    raise ValueError(f"{name} must lie in [0, 1{']' if closed else ')'}, got {value}")


@dataclass(frozen=True)
class PurifiedCoeffs:
    """Unnormalized weights (r0, r1) of a post-selected measurement.

    r0 multiplies the intended projector, r1 the flipped one; r0 + r1 is
    the probability that all n outcomes agree.
    """

    r0: float | np.ndarray
    r1: float | np.ndarray
    n: int

    def __post_init__(self):
        negative = (self.r0 < -1e-12) | (self.r1 < -1e-12)
        if _any(negative):
            raise ValueError("coefficients must be nonnegative, got "
                             f"({_first(negative, self.r0)}, {_first(negative, self.r1)})")
        total = self.r0 + self.r1
        if _any(total > 1.0 + 1e-9):
            raise ValueError(f"r0 + r1 = {_first(total > 1.0 + 1e-9, total)} exceeds 1")

    @property
    def acceptance(self) -> float:
        """Post-selection yield r0 + r1."""
        return self.r0 + self.r1

    @property
    def fidelity(self) -> float:
        """tr[Q_0 M_0] = r0 / (r0 + r1), the purified element's fidelity."""
        return self.r0 / (self.r0 + self.r1)


def noisy_povm_element(outcome: int, p: float) -> np.ndarray:
    """POVM element (1-p)|i><i| + p I/2 of a noisy basis measurement."""
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")
    p = _check_fraction(p, "p")
    q = p / 2.0
    m = np.zeros((2, 2), dtype=complex)
    m[outcome, outcome] = 1.0 - q
    m[1 - outcome, 1 - outcome] = q
    return m


#: Registers of up to this many qubits permute by a flat ``take``; larger ones by a fancy index.
TAKE_MAX_QUBITS = 6


def _cnot_perm(nq: int, control: int, target: int) -> np.ndarray:
    """The CNOT's index permutation: the target bit flipped where the control bit is set."""
    index = np.arange(1 << nq)
    cbit, tbit = 1 << (nq - 1 - control), 1 << (nq - 1 - target)
    return np.where(index & cbit, index ^ tbit, index)


@lru_cache(maxsize=None)  # at most 70 entries of at most 32 KiB: nq <= TAKE_MAX_QUBITS
def _cnot_take(nq: int, control: int, target: int) -> np.ndarray:
    """The permutation as flat indices into a (d * d,) view: (i, j) holds perm[i] * d + perm[j]."""
    perm = _cnot_perm(nq, control, target)
    take = np.add.outer(perm << nq, perm)
    take.flags.writeable = False  # the cache hands one array to every call
    return take


def depolarized_cnot_apply(
    rho: np.ndarray,
    control: int,
    target: int,
    epsilon: float | np.ndarray,
) -> np.ndarray:
    """Apply a CNOT that fails onto the maximally mixed pair with probability epsilon.

        rho -> (1 - eps) V rho V^dag + eps (I/4)_{ct} x tr_{ct}(rho)

    All other qubits of the register are untouched. The channel acts on
    qubit axes, not on an embedded 2^n x 2^n operator: V is the index
    permutation that flips the target bit where the control bit is set:
    entry (i, j) of the result is entry (perm[i], perm[j]). Up to
    ``TAKE_MAX_QUBITS`` qubits that is one flat ``take`` through indices
    built once per (qubits, control, target); a larger register uses a
    2-D fancy index, which allocates no d x d index. The (c, t) marginal
    is the sum of the four diagonal (c, t) blocks, written back into each
    with weight 1/4; row and column indices are split at the two qubits
    into (before, c or t, between, t or c, after) axes, so each block is
    a basic slice.

    ``rho`` may be a stack of shape (..., d, d): each operator of the
    stack gets the same float operations as an unstacked call, so each
    slice of the result equals that call bit for bit. ``epsilon`` is a
    float, or an array that broadcasts against the stack's leading
    shape: one value per operator. An operator whose value is positive
    equals the call with that value as a float bit for bit; one whose
    value is 0 beside positive ones goes through the noisy branch with
    weight 0, which may flip the sign of a zero.
    """
    rho = np.asarray(rho, dtype=complex)
    epsilon = _check_fraction(epsilon, "epsilon")
    d = rho.shape[-1] if rho.ndim else 0
    nq = d.bit_length() - 1
    if rho.ndim < 2 or rho.shape[-2] != d or 2 ** nq != d:
        raise ValueError(f"state shape {rho.shape} is not a square power of two")
    if control == target:
        raise ValueError("control and target must differ")
    if not (0 <= control < nq and 0 <= target < nq):
        raise ValueError(f"invalid control/target ({control}, {target}) for {nq} qubits")
    lead = rho.shape[:-2]
    column = isinstance(epsilon, np.ndarray)
    if column and (epsilon.ndim > len(lead) or any(
            e not in (1, n) for e, n in zip(epsilon.shape[::-1], lead[::-1]))):
        raise ValueError(f"epsilon of shape {epsilon.shape} does not broadcast against "
                         f"a stack of shape {lead}")
    if nq <= TAKE_MAX_QUBITS:
        out = rho.reshape(lead + (d * d,)).take(_cnot_take(nq, control, target), axis=-1)
    else:
        perm = _cnot_perm(nq, control, target)
        out = rho[..., perm[:, None], perm]
    if _any(epsilon > 0.0):
        first, second = sorted((control, target))
        # Row and column each as (before, first, between, second, after).
        split = (1 << first, 2, 1 << (second - first - 1), 2, 1 << (nq - 1 - second))
        blocks = []
        for c, t in ((0, 0), (0, 1), (1, 0), (1, 1)):
            bits = (c, t) if control < target else (t, c)
            key = (Ellipsis, slice(None), bits[0], slice(None), bits[1], slice(None))
            blocks.append(key + key[1:])
        if column:
            out *= (1.0 - epsilon)[..., None, None]
            epsilon = epsilon.reshape(epsilon.shape + (1,) * 6)  # the six axes a block keeps
        else:
            out *= 1.0 - epsilon
        tensor_in, tensor_out = rho.reshape(lead + split * 2), out.reshape(lead + split * 2)
        depolarized = epsilon / 4.0 * sum(tensor_in[key] for key in blocks)
        for key in blocks:
            tensor_out[key] += depolarized
    return out


def _recurrence_step(r0, r1, p, epsilon: float):
    """One ancilla's step; r0, r1 and p are floats or columns of one value per row."""
    return (
        (1.0 - epsilon) * r0 * (1.0 - p / 2.0) + epsilon / 4.0 * (r0 + r1),
        (1.0 - epsilon) * r1 * (p / 2.0) + epsilon / 4.0 * (r0 + r1),
    )


def purified_coeffs_general(p_list: Sequence[float] | np.ndarray,
                            epsilon: float = 0.0) -> PurifiedCoeffs:
    """(r0, r1) for per-qubit rates ``p_list`` and CNOT noise ``epsilon``.

    ``p_list[0]`` is the rate on the measured qubit itself, ``p_list[k]``
    the rate on the k-th ancilla. The ancilla steps are folded in from
    the last ancilla down to the first: the fan-out CNOTs act on the
    register in ascending ancilla order, so in the Heisenberg picture the
    earliest CNOT wraps the whole chain and the latest sits innermost.
    With ideal CNOTs the steps commute and the result is the plain
    product (prod(1 - p_k/2), prod(p_k/2)); with epsilon > 0 the order
    matters and this one reproduces the physical circuit exactly.

    A 2-D array of rates evaluates one row per point: r0 and r1 are then
    arrays, computed column by column with the scalar call's operations
    in the same order, so each entry equals that row's scalar call bit
    for bit.
    """
    name = "measurement noise fraction"
    if isinstance(p_list, np.ndarray) and p_list.ndim == 2:
        columns = list(_check_fraction(p_list, name).T)
    else:
        columns = [_check_fraction(p, name) for p in p_list]
    if not columns:
        raise ValueError("p_list must be nonempty")
    epsilon = _check_fraction(epsilon, "epsilon")
    r0, r1 = 1.0 - columns[0] / 2.0, columns[0] / 2.0
    for p in reversed(columns[1:]):
        r0, r1 = _recurrence_step(r0, r1, p, epsilon)
    return PurifiedCoeffs(r0=r0, r1=r1, n=len(columns))


def purified_coeffs_gate_noisy(p: float, epsilon: float, n: int) -> PurifiedCoeffs:
    """Homogeneous-rate coefficients after n measurements with noisy CNOTs."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return purified_coeffs_general([p] * n, epsilon=epsilon)


def purified_coeffs_prefixes(p: float, epsilon: float, depth: int) -> PurifiedCoeffs:
    """Homogeneous-rate coefficients at every depth 1..``depth``, as arrays.

    Entry k is depth k + 1: the start (1 - p/2, p/2) with k recurrence
    steps applied. With equal rates ``purified_coeffs_general`` does the
    same float operations in the same order, so entry k equals
    ``purified_coeffs_gate_noisy(p, epsilon, k + 1)`` bit for bit. ``n``
    is ``depth``.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    p = _check_fraction(p, "measurement noise fraction")
    epsilon = _check_fraction(epsilon, "epsilon")
    steps = [(1.0 - p / 2.0, p / 2.0)]
    for _ in range(depth - 1):
        steps.append(_recurrence_step(*steps[-1], p, epsilon))
    r0, r1 = np.array(steps).T
    return PurifiedCoeffs(r0=r0, r1=r1, n=depth)


def asymptotic_ratio(p: float, epsilon: float) -> float:
    """Limit s of r1/r0 as the number of purification rounds grows.

        s = sqrt(a^2 + 1) - a = 1 / (a + sqrt(a^2 + 1)),   a = 2(1-p)(1/eps - 1).

    The second form is the one evaluated: the first subtracts two terms
    of order 1/eps and loses every digit as eps -> 0.

    Only defined for epsilon > 0; with ideal CNOTs the ratio tends to 0
    and callers should use the exact epsilon = 0 expressions instead.
    """
    p = _check_fraction(p, "p")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    a = 2.0 * (1.0 - p) * (1.0 / epsilon - 1.0)
    return 1.0 / (a + float(np.sqrt(a * a + 1.0)))


def purified_povm_element(outcome: int, coeffs: PurifiedCoeffs) -> np.ndarray:
    """Normalized post-selected POVM element (r0 M_i + r1 M_{i xor 1}) / (r0 + r1)."""
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")
    total = coeffs.r0 + coeffs.r1
    if total <= 0.0:
        raise ValueError("degenerate post-selection: r0 + r1 = 0")
    m = np.zeros((2, 2), dtype=complex)
    m[outcome, outcome] = coeffs.r0 / total
    m[1 - outcome, 1 - outcome] = coeffs.r1 / total
    return m
