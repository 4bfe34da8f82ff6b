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
contraction with one POVM element) instead of building the 2^n x 2^n
operators that ``embed_op`` returns; ``embed_op`` and ``permute_qubits``
remain the dense references that the tests compare against.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

# Validation tolerances for density matrices and unitaries.
HERMITIAN_TOL = 1e-9
TRACE_TOL = 1e-9
EIGENVALUE_TOL = 1e-9
UNITARY_TOL = 1e-9

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

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


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def projector(psi: np.ndarray) -> np.ndarray:
    """|psi><psi| for a ket."""
    v = np.asarray(psi, dtype=complex).ravel()
    return np.outer(v, v.conj())


def tensor(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices (or kets).

    The first factor occupies the most significant qubits, matching the
    |x1 x2 ... xn> labelling used throughout.
    """
    if not ops:
        raise ValueError("tensor requires at least one factor")
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def _qubit_dims(mat: np.ndarray, dims: Sequence[int] | None) -> list[int]:
    d = mat.shape[0]
    if dims is not None:
        dims = list(dims)
        if int(np.prod(dims)) != d:
            raise ValueError(f"dims {dims} do not multiply to matrix dimension {d}")
        return dims
    n = d.bit_length() - 1
    if 2 ** n != d:
        raise ValueError(f"matrix dimension {d} is not a power of two; pass dims explicitly")
    return [2] * n


def partial_trace(
    rho: np.ndarray,
    keep: Iterable[int],
    dims: Sequence[int] | None = None,
) -> np.ndarray:
    """Trace out all subsystems not listed in ``keep``.

    Kept subsystems stay in their original relative order. ``dims``
    defaults to an all-qubit factorization of the matrix dimension.
    """
    rho = np.asarray(rho, dtype=complex)
    dims = _qubit_dims(rho, dims)
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("keep must contain at least one subsystem index")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep indices {keep} out of range for {n} subsystems")
    t = rho.reshape(dims + dims)
    remaining = list(dims)
    for idx in reversed(range(n)):
        if idx in keep:
            continue
        t = np.trace(t, axis1=idx, axis2=idx + len(remaining))
        del remaining[idx]
    d = int(np.prod(remaining))
    return t.reshape(d, d)


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


def is_unitary(u: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    return bool(np.abs(u @ dag(u) - np.eye(u.shape[0])).max() <= tol)


def conjugate(u: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """u rho u^dagger for unitary u; preserves trace and spectrum."""
    u = np.asarray(u, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if u.shape != rho.shape:
        raise ValueError(f"dimension mismatch: u is {u.shape}, rho is {rho.shape}")
    if not is_unitary(u):
        raise ValueError("u is not unitary within tolerance")
    return u @ rho @ dag(u)


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


def validate_density_matrix(rho: np.ndarray, dims: Sequence[int] | None = None) -> None:
    """Raise ValueError unless rho is Hermitian, unit-trace and PSD.

    Tolerances: max entry deviation 1e-9 for Hermiticity, 1e-9 on the
    trace, eigenvalues allowed down to -1e-9.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    _qubit_dims(rho, dims)
    if np.abs(rho - dag(rho)).max() > HERMITIAN_TOL:
        raise ValueError("density matrix is not Hermitian within 1e-9")
    if abs(np.trace(rho).real - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix trace {np.trace(rho).real} is not 1 within 1e-9")
    if np.linalg.eigvalsh(rho).min() < -EIGENVALUE_TOL:
        raise ValueError("density matrix has an eigenvalue below -1e-9")
