"""Brute-force density-matrix verification of every analytic result.

Nothing here reuses the closed forms from the other modules: the
purification gadget, the two-way distillation round and the filtering
circuit (its gate, ``distill_pure.controlled_w``, is a circuit element)
are built as explicit registers and contracted numerically, so any
disagreement with the analytic layer points at a real defect. Channels
act on qubit axes: a CNOT is one flat ``take``, the depolarizing step a
sum over four diagonal blocks (see ``noise.depolarized_cnot_apply``), an
ancilla prepared and sandwiched in |0> an index, and the two-way round's
measurement one einsum with its POVM element, in
``oracle_mixed_post_state``. No dense operator is embedded.

Each ancilla of a gadget meets one CNOT, then its diagonal readout and
no other gate, so both circuits fold its readout in right after that
CNOT; under unanimous post-selection only two branches, one per common
outcome, remain at any depth. The gadget (``oracle_effective_povms``)
pulls each ancilla's element back through its CNOT on a 2-qubit
register, in the Heisenberg picture; ``oracle_mixed_post_state_direct``
runs the two-way circuit forward on states, every ancilla included, on
two 5-qubit registers, so it certifies the reduction to effective POVMs
independently. Neither has a depth cap, and the cost is linear in depth.

The oracle runs on stacks along a leading axis: ``oracle_effective_povms``
takes one gadget per row of a rate matrix, with one CNOT noise for all
rows or one per row; the post-state functions take stacks of prepared
inputs, ``mixed_register(f)`` (which takes an array of f) or
``filtered_ket(theta)``, with one gadget's elements each;
``distill_result`` takes a stack of accepted states. A single call is a
stack of one, so each slice equals its own call bit for bit. The
filtering circuit's full register is a test reference
(``tests/reference.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from .distill_mixed import DistillResult
from .distill_pure import controlled_w
from .noise import _check_fraction, depolarized_cnot_apply
# embed_op is unused here but stays bound: the benchmark's tests check oracle.embed_op.
from .qmat import KET0, PHI_PLUS, embed_op, tensor  # noqa: F401
from .states import isotropic, pure_theta

# <phi+| as a (1, 4) row: a 1-D <phi+| times a stack rounds some slices differently.
_PHI_ROW, _PHI_COL = PHI_PLUS.conj()[None], PHI_PLUS[:, None]


@dataclass(frozen=True)
class EffectivePovm:
    """Unnormalized post-selected POVM elements of one purification gadget.

    q0 and q1 are the 2x2 elements (or stacks of them) for unanimous
    outcomes 0^n and 1^n; a single gadget's (r0, r1) is the diagonal of q0.
    """

    q0: np.ndarray
    q1: np.ndarray

    @property
    def r0(self) -> float:
        return float(self.q0[0, 0].real)

    @property
    def r1(self) -> float:
        return float(self.q0[1, 1].real)


def oracle_effective_povms(rates, epsilon: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Post-selected POVM elements of a stack of gadgets, one per row of ``rates``.

    ``rates`` is a (B x n) matrix: row b holds gadget b's per-qubit
    rates, the measured qubit's first. ``epsilon`` is the CNOT noise of
    every gadget, a float, or a column of B values, row b's noise.
    Returns the (B, 2, 2) stacks q0 and q1 of the elements for unanimous
    outcomes 0^n and 1^n.

    Each gadget is built operator-side, one ancilla at a time, last to
    first (the adjoints of CNOTs that act in ascending order): the
    measured qubit's noisy elements, a (2, B, 2, 2) stack, get the
    ancilla's element beside them, go back through its depolarized CNOT
    and are sandwiched in its |0>. Each row equals its gadget's
    ``oracle_effective_povm`` bit for bit; with a column, a row whose
    noise is 0 beside positive ones runs through the noisy channel with
    weight 0, which may flip the sign of a zero.
    """
    rates = _check_fraction(np.asarray(rates, dtype=float), "measurement noise fraction")
    epsilon = _check_fraction(epsilon, "epsilon")
    if rates.ndim != 2:
        raise ValueError(f"rates must be a (B x n) matrix, got shape {rates.shape}")
    b, n = rates.shape
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if isinstance(epsilon, np.ndarray) and epsilon.shape != (b,):
        raise ValueError(f"epsilon must be a float or a column of {b} values, "
                         f"got shape {epsilon.shape}")

    elements = _unanimous_elements(rates)
    q = elements[:, :, 0]  # the measured qubit's
    for j in reversed(range(1, n)):
        # The depolarized CNOT is its own adjoint: V is a real symmetric
        # involution and replacing the pair by I/4 is a self-adjoint map, so
        # the Schroedinger-picture channel also pulls observables back. A
        # column of eps broadcasts against the (2, B) leading axes.
        q = depolarized_cnot_apply(_kron(q, elements[:, :, j]), 0, 1, epsilon)[..., ::2, ::2]
    return q[0], q[1]


def _unanimous_elements(rates: np.ndarray) -> np.ndarray:
    """Each qubit's noisy element diag(1 - p/2, p/2) for outcome 0 and diag(p/2, 1 - p/2) for
    outcome 1: shape (2,) + ``rates.shape`` + (2, 2), one branch per unanimous outcome."""
    half = rates / 2.0
    elements = np.zeros((2,) + rates.shape + (2, 2), dtype=complex)
    elements[0, ..., 0, 0] = elements[1, ..., 1, 1] = 1.0 - half
    elements[0, ..., 1, 1] = elements[1, ..., 0, 0] = half
    return elements


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """tensor(a, b) of each slice, as a broadcast product: entry (ik, jl) is a[i, j] b[k, l]."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (out.shape[-4] * out.shape[-3], -1))


def oracle_effective_povm(p_list: Sequence[float], epsilon: float, n: int) -> EffectivePovm:
    """Post-selected POVM elements from the explicit gadget circuit: a stack of one."""
    if len(p_list) != n:
        raise ValueError(f"p_list has length {len(p_list)}, expected n = {n}")
    q0, q1 = oracle_effective_povms([p_list], epsilon)
    return EffectivePovm(q0=q0[0], q1=q1[0])


def _stacks(*arrays) -> list[np.ndarray]:
    """Each array as a stack of matrices along a leading axis; a lone matrix is a stack of one."""
    stacks = [a if a.ndim > 2 else a[None] for a in arrays]
    if len({len(s) for s in stacks}) > 1:
        raise ValueError(f"stacks of mismatched lengths {[len(s) for s in stacks]}")
    return stacks


def distill_result(sigma: np.ndarray) -> DistillResult:
    """Success probability tr sigma and fidelity <phi+|sigma|phi+> / tr sigma, per accepted state."""
    stack = sigma if sigma.ndim > 2 else sigma[None]
    p_succ = stack.trace(axis1=1, axis2=2).real
    fidelity = (_PHI_ROW @ stack @ _PHI_COL)[:, 0, 0].real / p_succ
    if sigma.ndim == 2:
        fidelity, p_succ = float(fidelity[0]), float(p_succ[0])
    return DistillResult(fidelity_out=fidelity, p_succ=p_succ)


def mixed_register(f: float | np.ndarray) -> np.ndarray:
    """Two copies of ``isotropic(f)``, ordered A1 B1 A2 B2, after the ideal bilateral CNOTs.

    An array of f gives a stack of registers, one per value, each equal
    to its float call bit for bit.
    """
    pair = isotropic(f)
    return depolarized_cnot_apply(depolarized_cnot_apply(_kron(pair, pair), 0, 2, 0.0), 1, 3, 0.0)


def oracle_mixed_post_state(register: np.ndarray, qa: EffectivePovm,
                            qb: EffectivePovm) -> np.ndarray:
    """Unnormalized accepted state of the two-way round, with the gadgets' effective POVMs.

    ``register`` is ``mixed_register(f)``: register order A1 B1 A2 B2,
    ideal bilateral CNOTs A1->A2 and B1->B2. The second pair is
    contracted with Alice's element ``qa`` and Bob's ``qb``, summed over
    the two equal-outcome branches.
    """
    rho, a0, a1, b0, b1 = _stacks(register, qa.q0, qa.q1, qb.q0, qb.q1)
    element = _kron(a0, b0) + _kron(a1, b1)
    # tr_(A2 B2)[rho (I_4 x element)], per slice.
    sigma = np.einsum("...aybz,...zy->...ab", rho.reshape(-1, 4, 4, 4, 4), element)
    return sigma if register.ndim > 2 else sigma[0]


def oracle_distill_mixed(
    f: float,
    p_a: Sequence[float],
    p_b: Sequence[float],
    epsilon: float = 0.0,
) -> DistillResult:
    """Fidelity map and success probability from the density-matrix protocol."""
    qa = oracle_effective_povm(p_a, epsilon, len(p_a))
    qb = oracle_effective_povm(p_b, epsilon, len(p_b))
    return distill_result(oracle_mixed_post_state(mixed_register(f), qa, qb))


def oracle_mixed_post_state_direct(f: float, p_a: Sequence[float], p_b: Sequence[float],
                                   epsilon: float = 0.0) -> np.ndarray:
    """Same accepted state from the full circuit including every gadget ancilla.

    Register order [A1, B1, A2, B2, Alice's ancillas, Bob's ancillas],
    run forward on states with no effective POVM: it certifies that
    reduction. The state is a (2, 16, 16) stack of A1 B1 A2 B2 registers,
    one per common outcome. Each CNOT acts on the stack beside its fresh
    ancilla in |0> (5 qubits, the largest register at any depth), and
    the ancilla is read out at once: its t = 0 and t = 1 blocks are
    summed, weighted by its noisy element for the branch's outcome. A2
    and B2 are read out at the end, and the branches summed.
    """
    n, m = len(p_a), len(p_b)
    if not (n and m):
        raise ValueError(f"{'p_b' if n else 'p_a'} must be nonempty")
    rates = _check_fraction(np.array([*p_a, *p_b], dtype=float), "measurement noise fraction")
    epsilon = _check_fraction(epsilon, "epsilon")

    elements = _unanimous_elements(rates)
    rho = np.stack([mixed_register(f)] * 2)
    # Alice's fan-out from A2 onto her ancillas, then Bob's from B2 onto his.
    for control, k in [(2, k) for k in range(1, n)] + [(3, n + k) for k in range(1, m)]:
        beside = np.zeros((2, 16, 2, 16, 2), dtype=complex)
        beside[:, :, 0, :, 0] = rho
        out = depolarized_cnot_apply(beside.reshape(2, 32, 32), control, 4, epsilon)
        # tr_ancilla[out (I_16 x element)], per branch.
        rho = np.einsum("kaybz,kzy->kab", out.reshape(2, 16, 2, 16, 2), elements[:, k])
    # tr_(A2 B2)[rho (I_4 x element)], summed over the branches.
    return np.einsum("kaybz,kzy->ab", rho.reshape(2, 4, 4, 4, 4),
                     _kron(elements[:, 0], elements[:, n]))


def filtered_ket(theta: float) -> np.ndarray:
    """(I x U)(|theta> x |0>) as a 4 x 2 matrix, rows AB and columns E; U the controlled-W."""
    return (tensor(pure_theta(theta), KET0).reshape(2, 4) @ controlled_w(theta).T).reshape(4, 2)


def oracle_pure_post_state(psi: np.ndarray, q: EffectivePovm) -> np.ndarray:
    """Unnormalized accepted state of the filtering circuit, with the gadget's effective POVM.

    ``psi`` is ``filtered_ket(theta)``: register order A B E, the
    controlled-W applied to (B, E). The purified measurement of E keeps
    only the unanimous-zeros branch, with element ``q.q0``.
    """
    kets, q0 = _stacks(psi, q.q0)
    sigma = kets @ q0.transpose(0, 2, 1) @ kets.conj().transpose(0, 2, 1)
    return sigma if psi.ndim > 2 else sigma[0]


def oracle_distill_pure(theta: float, p: float, epsilon: float, n: int) -> DistillResult:
    """Filtered fidelity and success probability from the density-matrix circuit."""
    return distill_result(
        oracle_pure_post_state(filtered_ket(theta), oracle_effective_povm([p] * n, epsilon, n)))

