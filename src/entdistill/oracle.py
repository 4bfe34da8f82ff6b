"""Brute-force density-matrix verification of every analytic result.

Nothing here reuses the closed forms from the other modules: the
purification gadget, the two-way distillation round and the filtering
circuit are built as explicit registers and contracted numerically, so
any disagreement with the analytic layer points at a real defect.

Two levels are provided for the distillation protocols. The fast path
first reduces each purification gadget to an effective single-qubit POVM
(the gadget touches only the measured qubit and its private ancillas),
then runs the four-qubit protocol. The ``*_direct`` functions skip the
reduction and simulate the full register including every ancilla; they
exist to certify the reduction itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from .distill_mixed import DistillResult
from .distill_pure import filter_ops
from .noise import (
    CNOT,
    _check_fraction,
    depolarized_cnot_apply,
    noisy_povm_element,
)
from .qmat import (
    I2,
    KET0,
    PHI_PLUS,
    embed_op,
    partial_trace,
    projector,
    singlet_fraction,
    tensor,
)
from .states import isotropic, pure_theta

MAX_GADGET_QUBITS = 6


@dataclass(frozen=True)
class EffectivePovm:
    """Unnormalized post-selected POVM elements of one purification gadget.

    q0 and q1 are the 2x2 elements for unanimous outcomes 0^n and 1^n;
    (r0, r1) is the diagonal of q0.
    """

    q0: np.ndarray
    q1: np.ndarray
    r0: float
    r1: float


def apply_depolarized_cnot_chain(rho: np.ndarray, targets: Sequence[int], control: int, epsilon: float) -> np.ndarray:
    """Schroedinger-picture fan-out: depolarized CNOTs from control to each target in order."""
    for t in targets:
        rho = depolarized_cnot_apply(rho, control, t, epsilon)
    return rho


def oracle_effective_povm(p_list: Sequence[float], epsilon: float, n: int) -> EffectivePovm:
    """Post-selected POVM elements from the explicit gadget circuit.

    Builds the n-qubit register operator-side: the product of noisy
    per-qubit elements for a unanimous outcome string is pulled back
    through the adjoint of each depolarized CNOT (the CNOTs act on the
    state in ascending ancilla order, so their adjoints are folded in
    descending order), then the ancillas are sandwiched out in |0...0>.
    """
    p_list = [_check_fraction(p, "measurement noise fraction") for p in p_list]
    if len(p_list) != n:
        raise ValueError(f"p_list has length {len(p_list)}, expected n = {n}")
    epsilon = _check_fraction(epsilon, "epsilon")
    if n < 1 or n > MAX_GADGET_QUBITS:
        raise ValueError(f"n must lie in 1..{MAX_GADGET_QUBITS}, got {n}")

    elements = []
    for outcome in (0, 1):
        op = tensor(*[noisy_povm_element(outcome, p) for p in p_list])
        # The depolarized CNOT is its own adjoint: V is a real symmetric
        # involution and replacing the pair by I/4 is a self-adjoint map, so
        # the Schroedinger-picture channel also pulls observables back.
        for j in reversed(range(1, n)):
            op = depolarized_cnot_apply(op, 0, j, epsilon)
        if n == 1:
            q = op
        else:
            anc = tensor(*([projector(KET0)] * (n - 1)))
            proj = np.kron(I2, anc)
            q = partial_trace(proj @ op @ proj, [0], dims=[2] * n)
        elements.append(q)

    q0, q1 = elements
    return EffectivePovm(q0=q0, q1=q1, r0=float(q0[0, 0].real), r1=float(q0[1, 1].real))


def _contract_measurements(
    rho: np.ndarray,
    ops_by_index: dict[int, np.ndarray],
    keep: Sequence[int],
    nq: int,
) -> np.ndarray:
    """tr_measured[rho (I x ... x E_k x ...)] reduced onto ``keep``."""
    ops = [ops_by_index.get(q, I2) for q in range(nq)]
    return partial_trace(rho @ tensor(*ops), keep, dims=[2] * nq)


def oracle_mixed_post_state(
    f: float,
    p_a: Sequence[float],
    p_b: Sequence[float],
    epsilon: float = 0.0,
) -> np.ndarray:
    """Unnormalized accepted state of the two-way round, via effective POVMs.

    Register order A1 B1 A2 B2; ideal bilateral CNOTs A1->A2 and B1->B2;
    the second pair is contracted with the gadgets' effective elements,
    summed over the two equal-outcome branches.
    """
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"input fidelity must lie in [0, 1], got {f}")
    n, m = len(p_a), len(p_b)
    if n > 4 or m > 4:
        raise ValueError(f"purification depths above 4 not supported here, got {n}, {m}")
    qa = oracle_effective_povm(p_a, epsilon, n)
    qb = oracle_effective_povm(p_b, epsilon, m)

    rho = np.kron(isotropic(f), isotropic(f))
    for (c, t) in ((0, 2), (1, 3)):
        v = embed_op(CNOT, [c, t], 4)
        rho = v @ rho @ v.conj().T

    sigma = np.zeros((4, 4), dtype=complex)
    for qa_i, qb_i in ((qa.q0, qb.q0), (qa.q1, qb.q1)):
        sigma += _contract_measurements(rho, {2: qa_i, 3: qb_i}, keep=[0, 1], nq=4)
    return sigma


def oracle_distill_mixed(
    f: float,
    p_a: Sequence[float],
    p_b: Sequence[float],
    epsilon: float = 0.0,
) -> DistillResult:
    """Fidelity map and success probability from the density-matrix protocol."""
    sigma = oracle_mixed_post_state(f, p_a, p_b, epsilon)
    p_succ = float(np.trace(sigma).real)
    fidelity = float((PHI_PLUS.conj() @ sigma @ PHI_PLUS).real) / p_succ
    return DistillResult(fidelity_out=fidelity, p_succ=p_succ, fidelity_in=float(f))


def oracle_mixed_post_state_direct(
    f: float,
    p_a: Sequence[float],
    p_b: Sequence[float],
    epsilon: float = 0.0,
) -> np.ndarray:
    """Same accepted state from the full register including every gadget ancilla.

    Register order [A1, B1, A2, B2, Alice ancillas, Bob ancillas]; with
    depths (n, m) this is 2 + n + m qubits, so n = m = 3 exercises an
    8-qubit simulation. Certifies the effective-POVM reduction.
    """
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"input fidelity must lie in [0, 1], got {f}")
    epsilon = _check_fraction(epsilon, "epsilon")
    n, m = len(p_a), len(p_b)
    nq = 4 + (n - 1) + (m - 1)
    if nq > 8:
        raise ValueError(f"direct register would need {nq} qubits, max is 8")

    rho = np.kron(isotropic(f), isotropic(f))
    if nq > 4:
        rho = np.kron(rho, tensor(*([projector(KET0)] * (nq - 4))))
    for (c, t) in ((0, 2), (1, 3)):
        v = embed_op(CNOT, [c, t], nq)
        rho = v @ rho @ v.conj().T
    alice_anc = list(range(4, 4 + n - 1))
    bob_anc = list(range(4 + n - 1, nq))
    rho = apply_depolarized_cnot_chain(rho, alice_anc, control=2, epsilon=epsilon)
    rho = apply_depolarized_cnot_chain(rho, bob_anc, control=3, epsilon=epsilon)

    sigma = np.zeros((4, 4), dtype=complex)
    for outcome in (0, 1):
        ops: dict[int, np.ndarray] = {
            2: noisy_povm_element(outcome, p_a[0]),
            3: noisy_povm_element(outcome, p_b[0]),
        }
        for k, q in enumerate(alice_anc):
            ops[q] = noisy_povm_element(outcome, p_a[1 + k])
        for k, q in enumerate(bob_anc):
            ops[q] = noisy_povm_element(outcome, p_b[1 + k])
        sigma += _contract_measurements(rho, ops, keep=[0, 1], nq=nq)
    return sigma


def oracle_pure_post_state(theta: float, p: float, epsilon: float, n: int) -> np.ndarray:
    """Unnormalized accepted state of the filtering circuit, via the effective POVM.

    Register order A B E; the controlled-W acts on (B, E) and the
    purified measurement keeps only the unanimous-zeros branch.
    """
    if n < 1 or n > MAX_GADGET_QUBITS:
        raise ValueError(f"n must lie in 1..{MAX_GADGET_QUBITS}, got {n}")
    ops = filter_ops(theta)
    rho = np.kron(projector(pure_theta(theta)), projector(KET0))
    u = embed_op(ops.u, [1, 2], 3)
    rho = u @ rho @ u.conj().T
    q0 = oracle_effective_povm([p] * n, epsilon, n).q0
    return _contract_measurements(rho, {2: q0}, keep=[0, 1], nq=3)


def oracle_distill_pure(theta: float, p: float, epsilon: float, n: int) -> DistillResult:
    """Filtered fidelity and success probability from the density-matrix circuit."""
    sigma = oracle_pure_post_state(theta, p, epsilon, n)
    p_succ = float(np.trace(sigma).real)
    fidelity = float((PHI_PLUS.conj() @ sigma @ PHI_PLUS).real) / p_succ
    return DistillResult(
        fidelity_out=fidelity,
        p_succ=p_succ,
        fidelity_in=singlet_fraction(projector(pure_theta(theta))),
    )


def oracle_pure_post_state_direct(theta: float, p: float, epsilon: float, n: int) -> np.ndarray:
    """Filtering circuit with the gadget ancillas simulated explicitly."""
    if n < 1 or n > MAX_GADGET_QUBITS:
        raise ValueError(f"n must lie in 1..{MAX_GADGET_QUBITS}, got {n}")
    nq = 2 + n
    ops = filter_ops(theta)
    rho = projector(tensor(pure_theta(theta), *([KET0] * n)))
    u = embed_op(ops.u, [1, 2], nq)
    rho = u @ rho @ u.conj().T
    rho = apply_depolarized_cnot_chain(rho, list(range(3, nq)), control=2, epsilon=epsilon)
    meas = {q: noisy_povm_element(0, p) for q in range(2, nq)}
    return _contract_measurements(rho, meas, keep=[0, 1], nq=nq)
