"""Dense complex linear algebra for small multi-qubit registers.

Everything in this package is carried by plain ``numpy`` arrays with
``dtype=complex``: kets are 1-D vectors, operators (states, unitaries,
POVM elements, Kraus operators) are square 2-D matrices. Qubit ordering
follows the usual binary-string convention: the leftmost qubit label is
the most significant bit, so ``tensor(a, b)`` puts ``a`` on the high
bits.

Registers stay small (at most 8 qubits, 256 x 256), so states are
stored densely. Channels on a register need not be: the oracle applies
them on qubit axes (an index permutation, a sum over diagonal blocks, a
contraction with one POVM element) instead of building 2^n x 2^n
operators. The library calls neither ``embed_op`` nor ``permute_qubits``;
they stay as dense references for the tests, whose other references
(partial trace, conjugation, state validation) are in tests/reference.py.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

I2 = np.eye(2, dtype=complex)

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
P0 = np.outer(KET0, KET0)
P1 = np.outer(KET1, KET1)

#: (|00> + |11>) / sqrt(2), the maximally entangled reference state.
PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def ket(bits: str) -> np.ndarray:
    """Computational-basis ket for a bit string, e.g. ket("10")."""
    if not bits or any(b not in "01" for b in bits):
        raise ValueError(f"bits must be a nonempty string over {{0,1}}, got {bits!r}")
    v = np.zeros(2 ** len(bits), dtype=complex)
    v[int(bits, 2)] = 1.0
    return v


def projector(psi: np.ndarray) -> np.ndarray:
    """|psi><psi| for a ket."""
    v = np.asarray(psi, dtype=complex).ravel()
    return np.outer(v, v.conj())


def tensor(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices, or of one or more kets.

    The first factor occupies the most significant qubits, matching the
    |x1 x2 ... xn> labelling used throughout. Entry (i k, j l) of
    ``tensor(a, b)`` is a[i, j] * b[k, l], the product ``np.kron`` forms,
    taken here as one broadcast multiply: at these sizes ``np.kron``'s
    axis bookkeeping costs several times its arithmetic.
    """
    if not ops:
        raise ValueError("tensor requires at least one factor")
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        op = np.asarray(op, dtype=complex)
        if op.ndim != out.ndim:
            raise ValueError(f"tensor factors must all be kets or all matrices, "
                             f"got ranks {out.ndim} and {op.ndim}")
        dims = list(zip(out.shape, op.shape))
        out = (out.reshape([s for a, _ in dims for s in (a, 1)])
               * op.reshape([s for _, b in dims for s in (1, b)])).reshape([a * b for a, b in dims])
    return out


def permute_qubits(mat: np.ndarray, order: Sequence[int]) -> np.ndarray:
    """Rearrange the tensor factors of ``mat``.

    ``order[k]`` names the qubit (in the current factor layout) that
    should end up at position ``k`` of the result.
    """
    mat = np.asarray(mat, dtype=complex)
    n = len(order)
    if mat.shape != (2 ** n, 2 ** n):
        raise ValueError(f"matrix shape {mat.shape} does not match {n} qubits")
    if sorted(order) != list(range(n)):
        raise ValueError(f"order {list(order)} is not a permutation of 0..{n - 1}")
    axes = list(order) + [q + n for q in order]
    t = mat.reshape((2,) * (2 * n)).transpose(axes)
    return t.reshape(2 ** n, 2 ** n)


def embed_op(op: np.ndarray, targets: Sequence[int], num_qubits: int) -> np.ndarray:
    """Embed a k-qubit operator acting on ``targets`` into an n-qubit register.

    ``targets`` gives the register indices, in the order of the
    operator's own tensor factors.
    """
    op = np.asarray(op, dtype=complex)
    k = len(targets)
    if op.shape != (2 ** k, 2 ** k):
        raise ValueError(f"operator shape {op.shape} does not match {k} targets")
    if len(set(targets)) != k or any(t < 0 or t >= num_qubits for t in targets):
        raise ValueError(f"invalid target indices {list(targets)} for {num_qubits} qubits")
    rest = [q for q in range(num_qubits) if q not in targets]
    full = np.kron(op, np.eye(2 ** (num_qubits - k), dtype=complex))
    # full currently factors as [targets..., rest...]; send each back home.
    current = list(targets) + rest
    order = [current.index(q) for q in range(num_qubits)]
    return permute_qubits(full, order)


def expectation(rho: np.ndarray, e: np.ndarray) -> float:
    """tr[rho e] as a real number.

    Tiny negative results (above -1e-12) coming from rounding are
    clamped to zero.
    """
    rho = np.asarray(rho, dtype=complex)
    e = np.asarray(e, dtype=complex)
    if rho.shape != e.shape:
        raise ValueError(f"dimension mismatch: rho is {rho.shape}, e is {e.shape}")
    val = float(np.trace(rho @ e).real)
    if -1e-12 <= val < 0.0:
        return 0.0
    return val


def singlet_fraction(rho: np.ndarray) -> float:
    """Overlap <phi+| rho |phi+> of a two-qubit state with the ebit."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"singlet fraction needs a two-qubit state, got shape {rho.shape}")
    val = float((PHI_PLUS.conj() @ rho @ PHI_PLUS).real)
    if -1e-12 <= val < 0.0:
        return 0.0
    return val
