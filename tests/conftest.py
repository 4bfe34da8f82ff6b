import numpy as np
import pytest


def rand_pure_state(rng, num_qubits):
    """Haar-ish random ket from normalized Gaussian amplitudes."""
    d = 2 ** num_qubits
    v = rng.randn(d) + 1j * rng.randn(d)
    return v / np.linalg.norm(v)


def rand_density_matrix(rng, num_qubits):
    """Full-rank random density matrix from a Wishart draw."""
    d = 2 ** num_qubits
    m = rng.randn(d, d) + 1j * rng.randn(d, d)
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def rand_unitary(rng, num_qubits):
    d = 2 ** num_qubits
    m = rng.randn(d, d) + 1j * rng.randn(d, d)
    q, r = np.linalg.qr(m)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def bits(a):
    """The float64 bit patterns of a complex array: equal iff bit for bit, signs of zeros too."""
    return np.ascontiguousarray(a, dtype=complex).view(np.uint64)


@pytest.fixture
def rng():
    return np.random.RandomState(20240817)
