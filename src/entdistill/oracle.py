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

The oracle runs on stacks along a leading axis: ``oracle_effective_povms``
pulls one gadget per row of a rate matrix through each depolarized CNOT
at once, with one CNOT noise for all rows or one per row; the
post-state functions take stacks of prepared inputs, ``mixed_register(f)``
(which takes an array of f) or ``filtered_ket(theta)``, with one
gadget's elements each; ``distill_result`` takes a stack of accepted
states. A single call is a stack of one, so each slice equals its own
call bit for bit.

Two levels are provided for the distillation protocols. The fast path
first reduces each purification gadget to an effective single-qubit POVM
(the gadget touches only the measured qubit and its private ancillas),
then runs the protocol on the pair that is kept and the pair that is
measured. ``oracle_mixed_post_state_direct`` skips the reduction and
simulates the full circuit including every ancilla; it exists to
certify the reduction itself. It measures each ancilla right after its
one CNOT, which is exact: no other gate touches the ancilla and its
readout is diagonal, so its two diagonal blocks, kept as a stack axis,
are all that the accepted state needs. The circuit thus never holds
more than 5 qubits at once. The filtering circuit's full register is a
test reference (``tests/reference.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from .distill_mixed import DistillResult
from .distill_pure import controlled_w
# A gadget's whole register goes through the channel, so the channel's cap is the gadget's.
from .noise import MAX_QUBITS as MAX_GADGET_QUBITS, _check_fraction, depolarized_cnot_apply
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

    Each gadget is built operator-side on its n-qubit register. Its
    noisy elements are diagonal, so their product for a unanimous
    outcome is the outer product of the per-qubit diagonals, in register
    order; outcome 1^n's is outcome 0^n's reversed. The pair of stacks
    is pulled back through the adjoint of each depolarized CNOT (the
    CNOTs act on the state in ascending ancilla order, so their adjoints
    are folded in descending order), then the ancillas are sandwiched
    out in |0...0>. Each row equals its gadget's ``oracle_effective_povm``
    bit for bit; with a column, a row whose noise is 0 beside positive
    ones runs through the noisy channel with weight 0, which may flip
    the sign of a zero.
    """
    rates = _check_fraction(np.asarray(rates, dtype=float), "measurement noise fraction")
    epsilon = _check_fraction(epsilon, "epsilon")
    if rates.ndim != 2:
        raise ValueError(f"rates must be a (B x n) matrix, got shape {rates.shape}")
    b, n = rates.shape
    if isinstance(epsilon, np.ndarray) and epsilon.shape != (b,):
        raise ValueError(f"epsilon must be a float or a column of {b} values, "
                         f"got shape {epsilon.shape}")
    if n < 1 or n > MAX_GADGET_QUBITS:
        raise ValueError(f"n must lie in 1..{MAX_GADGET_QUBITS}, got {n}")

    diagonal = _unanimous_diagonal(rates / 2.0)
    d = 2 ** n
    op = np.zeros((2, b, d * d), dtype=complex)
    op[0, :, ::d + 1] = diagonal
    op[1, :, ::d + 1] = diagonal[:, ::-1]
    op = op.reshape(2, b, d, d)
    # The depolarized CNOT is its own adjoint: V is a real symmetric
    # involution and replacing the pair by I/4 is a self-adjoint map, so
    # the Schroedinger-picture channel also pulls observables back. A
    # column of eps broadcasts against the (2, B) leading axes.
    for j in reversed(range(1, n)):
        op = depolarized_cnot_apply(op, 0, j, epsilon)
    # <0...0| op |0...0> on the ancillas: the measured qubit's rows and
    # columns at ancilla index 0, rows and columns 0 and d/2.
    q = op[..., ::d // 2, ::d // 2]
    return q[0], q[1]


def _unanimous_diagonal(half: np.ndarray) -> np.ndarray:
    """The diagonal of outcome 0^n's product of the elements diag(1 - p/2, p/2), in kron order,
    for the p/2 of each qubit on ``half``'s last axis; outcome 1^n's is this one reversed."""
    factors = np.empty(half.shape + (2,))
    factors[..., 0], factors[..., 1] = 1.0 - half, half
    diagonal = factors[..., 0, :]
    for k in range(1, half.shape[-1]):
        diagonal = (diagonal[..., :, None] * factors[..., k, None, :]).reshape(*half.shape[:-1], -1)
    return diagonal


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
    # tensor(pair, pair) of each slice: entry (ik, jl) is pair[i, j] pair[k, l].
    rho = (pair[..., :, None, :, None] * pair[..., None, :, None, :]).reshape(
        pair.shape[:-2] + (16, 16))
    return depolarized_cnot_apply(depolarized_cnot_apply(rho, 0, 2, 0.0), 1, 3, 0.0)


def oracle_mixed_post_state(register: np.ndarray, qa: EffectivePovm,
                            qb: EffectivePovm) -> np.ndarray:
    """Unnormalized accepted state of the two-way round, with the gadgets' effective POVMs.

    ``register`` is ``mixed_register(f)``: register order A1 B1 A2 B2,
    ideal bilateral CNOTs A1->A2 and B1->B2. The second pair is
    contracted with Alice's element ``qa`` and Bob's ``qb``, summed over
    the two equal-outcome branches.
    """
    rho, a0, a1, b0, b1 = _stacks(register, qa.q0, qa.q1, qb.q0, qb.q1)
    # tensor(a, b) of each slice as a broadcast product: entry (ik, jl) is a[i, j] b[k, l].
    element = (a0[:, :, None, :, None] * b0[:, None, :, None, :]
               + a1[:, :, None, :, None] * b1[:, None, :, None, :]).reshape(-1, 4, 4)
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


def oracle_mixed_post_state_direct(
    f: float,
    p_a: Sequence[float],
    p_b: Sequence[float],
    epsilon: float = 0.0,
) -> np.ndarray:
    """Same accepted state from the full circuit including every gadget ancilla.

    Register order [A1, B1, A2, B2, Alice ancillas, Bob ancillas]; with
    depths (n, m) this is 2 + n + m qubits, at most 10, so n = m = 4, the
    tables' largest depth, is a 10-qubit circuit. Certifies the
    effective-POVM reduction.

    Each ancilla is measured right after its one CNOT, which is exact: no
    other gate touches it and its readout is diagonal, so only its two
    diagonal blocks reach the accepted state. The state is a stack of 2^k
    four-qubit (A1 B1 A2 B2) registers, one per outcome of the k ancillas
    measured so far, in register order. Each CNOT acts on the stack beside
    the fresh ancilla in |0> (5 qubits), and its t = 0 and t = 1 blocks
    become the stack's next bit. The channel treats each (row, column) of
    the other qubits alone, so every entry kept gets the float operations
    it got on the whole register, and the result is that register's bit
    for bit.
    """
    epsilon = _check_fraction(epsilon, "epsilon")
    n, m = len(p_a), len(p_b)
    if not (n and m):
        raise ValueError(f"{'p_b' if n else 'p_a'} must be nonempty")
    nq = 4 + (n - 1) + (m - 1)
    if nq > 10:
        raise ValueError(f"direct register would need {nq} qubits, max is 10")

    rho = mixed_register(f)[None]
    # Alice's fan-out from A2 onto her ancillas, then Bob's from B2 onto his.
    for control, ancillas in ((2, n - 1), (3, m - 1)):
        for _ in range(ancillas):
            beside = np.zeros((len(rho), 16, 2, 16, 2), dtype=complex)
            beside[:, :, 0, :, 0] = rho
            out = depolarized_cnot_apply(beside.reshape(-1, 32, 32), control, 4, epsilon)
            blocks = out.reshape(-1, 16, 2, 16, 2).diagonal(axis1=2, axis2=4)
            rho = np.moveaxis(blocks, -1, 1).reshape(-1, 16, 16)

    # Measured qubits in register order: A2, B2, Alice's ancillas, Bob's ancillas.
    diagonal = _unanimous_diagonal(
        _check_fraction(np.array([p_a[0], p_b[0], *p_a[1:], *p_b[1:]]), "p") / 2.0)
    weights = diagonal + diagonal[::-1]
    # Entry (y, a, b) is <a y| rho |b y> with y = (A2 B2, ancillas) in register order.
    kept = rho.reshape(-1, 4, 4, 4, 4).diagonal(axis1=2, axis2=4)
    terms = kept.transpose(3, 0, 1, 2).reshape(-1, 4, 4) * weights[:, None, None]
    return np.add.reduce(terms, axis=0)


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

