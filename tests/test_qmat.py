import numpy as np
import pytest
from conftest import rand_density_matrix, rand_pure_state, rand_unitary
from reference import X, collective_cnot, conjugate, partial_trace, validate_density_matrix

from entdistill.noise import noisy_povm_element
from entdistill.qmat import (
    I2,
    KET0,
    PHI_PLUS,
    embed_op,
    expectation,
    ket,
    permute_qubits,
    projector,
    singlet_fraction,
    tensor,
)


def test_tensor_identity():
    assert np.array_equal(tensor(I2, I2), np.eye(4))


def test_tensor_block_structure():
    # first factor is most significant: |0><0| x X puts X in the top-left block
    t = tensor(projector(KET0), X)
    assert np.array_equal(t[:2, :2], X)
    assert not t[2:, :].any() and not t[:, 2:].any()


def test_tensor_noisy_povm_trace_is_one():
    m = tensor(noisy_povm_element(0, 0.1), noisy_povm_element(0, 0.1))
    assert np.trace(m).real == pytest.approx(1.0, abs=1e-15)


def test_tensor_associative_exact(rng):
    # dyadic entries make every float product exact, so associativity is
    # exact entry equality rather than allclose
    mats = [rng.randint(-8, 9, (2, 2)) / 8.0 + 1j * rng.randint(-8, 9, (2, 2)) / 8.0
            for _ in range(3)]
    a, b, c = mats
    assert np.array_equal(tensor(tensor(a, b), c), tensor(a, tensor(b, c)))


def test_tensor_needs_a_factor():
    with pytest.raises(ValueError):
        tensor()


def test_tensor_is_np_kron_bit_for_bit(rng):
    # random complex matrices of unequal shapes, and kets
    for a, b in [(rng.randn(2, 4) + 1j * rng.randn(2, 4), rng.randn(4, 2) + 1j * rng.randn(4, 2)),
                 (rng.randn(4, 4) + 1j * rng.randn(4, 4), rng.randn(4, 4) + 1j * rng.randn(4, 4)),
                 (rng.randn(4) + 1j * rng.randn(4), rng.randn(2) + 1j * rng.randn(2))]:
        assert np.array_equal(tensor(a, b), np.kron(a, b))
    with pytest.raises(ValueError, match=r"^tensor factors must all be kets or all matrices"):
        tensor(KET0, I2)


def test_ket_indexing():
    assert np.array_equal(ket("10"), np.array([0, 0, 1, 0], dtype=complex))
    with pytest.raises(ValueError):
        ket("102")


def test_partial_trace_bell_marginal():
    for keep in ([0], [1]):
        red = partial_trace(projector(PHI_PLUS), keep)
        np.testing.assert_allclose(red, I2 / 2, atol=1e-15)


def test_partial_trace_product_state(rng):
    rho = rand_density_matrix(rng, 1)
    sigma = rand_density_matrix(rng, 2)
    np.testing.assert_allclose(partial_trace(np.kron(rho, sigma), [0]), rho, atol=1e-12)
    np.testing.assert_allclose(partial_trace(np.kron(rho, sigma), [1, 2]), sigma, atol=1e-12)


def test_partial_trace_fanout_gadget_marginal():
    # explicit 8x8 case: the 3-qubit fan-out on |+>|00> is GHZ, every
    # single-qubit marginal is I/2
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    state = collective_cnot(3) @ tensor(plus, KET0, KET0)
    red = partial_trace(projector(state), [2])
    np.testing.assert_allclose(red, np.diag([0.5, 0.5]), atol=1e-12)


def test_partial_trace_preserves_trace(rng):
    rho = rand_density_matrix(rng, 3)
    for keep in ([0], [1, 2], [0, 2]):
        assert np.trace(partial_trace(rho, keep)).real == pytest.approx(1.0, abs=1e-12)


def test_partial_trace_keeps_original_order(rng):
    rho = rand_density_matrix(rng, 3)
    np.testing.assert_allclose(
        partial_trace(rho, [2, 0]), partial_trace(rho, [0, 2]), atol=1e-15)


def test_partial_trace_invalid_arguments(rng):
    rho = rand_density_matrix(rng, 2)
    with pytest.raises(ValueError):
        partial_trace(rho, [])
    with pytest.raises(ValueError):
        partial_trace(rho, [2])
    with pytest.raises(ValueError):
        partial_trace(rho, [-1])


def test_conjugate_identity(rng):
    rho = rand_density_matrix(rng, 1)
    np.testing.assert_allclose(conjugate(I2, rho), rho, atol=1e-15)


def test_conjugate_bit_flip():
    np.testing.assert_allclose(conjugate(X, projector(KET0)), np.diag([0.0, 1.0]), atol=1e-15)


def test_conjugate_cnot_truth_table():
    rho = projector(ket("10"))
    out = conjugate(collective_cnot(2), rho)
    np.testing.assert_allclose(out, projector(ket("11")), atol=1e-15)


def test_conjugate_rejects_non_unitary(rng):
    rho = rand_density_matrix(rng, 1)
    with pytest.raises(ValueError):
        conjugate(np.array([[1, 1], [0, 1]], dtype=complex), rho)
    with pytest.raises(ValueError):
        conjugate(np.eye(4), rho)


def test_conjugate_preserves_trace_and_hermiticity(rng):
    for nq in (2, 3):
        rho = rand_density_matrix(rng, nq)
        u = rand_unitary(rng, nq)
        out = conjugate(u, rho)
        assert abs(np.trace(out).real - 1.0) < 1e-10
        assert np.abs(out - out.conj().T).max() < 1e-10
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(out)), np.sort(np.linalg.eigvalsh(rho)), atol=1e-10)


def test_local_unitary_on_traced_subsystem_is_invisible(rng):
    # a unitary acting only on discarded qubits cannot change the marginal
    for nq, local, keep in [(2, [0], [1]), (3, [0, 1], [2]), (3, [2], [0, 1])]:
        rho = rand_density_matrix(rng, nq)
        u = embed_op(rand_unitary(rng, len(local)), local, nq)
        np.testing.assert_allclose(
            partial_trace(conjugate(u, rho), keep),
            partial_trace(rho, keep), atol=1e-10)


def test_expectation_normalization(rng):
    rho = rand_density_matrix(rng, 1)
    assert expectation(rho, I2) == pytest.approx(1.0, abs=1e-12)


def test_expectation_noisy_povm_on_basis_state():
    assert expectation(projector(KET0), noisy_povm_element(0, 0.1)) == pytest.approx(0.95, abs=1e-15)


@pytest.mark.parametrize("p", [0.0, 0.1, 0.2, 0.5, 0.9])
def test_expectation_maximally_mixed(p):
    assert expectation(I2 / 2, noisy_povm_element(0, p)) == pytest.approx(0.5, abs=1e-15)


def test_expectation_dim_mismatch():
    with pytest.raises(ValueError):
        expectation(I2 / 2, np.eye(4))


def test_expectation_povm_completeness(rng):
    rho = rand_density_matrix(rng, 1)
    for p in (0.0, 0.05, 0.2, 0.4):
        total = expectation(rho, noisy_povm_element(0, p)) + expectation(rho, noisy_povm_element(1, p))
        assert abs(total - 1.0) < 1e-10


def test_singlet_fraction_trivials():
    assert singlet_fraction(projector(PHI_PLUS)) == pytest.approx(1.0, abs=1e-15)
    assert singlet_fraction(np.eye(4) / 4) == pytest.approx(0.25, abs=1e-15)
    with pytest.raises(ValueError):
        singlet_fraction(np.eye(8) / 8)


def test_validate_density_matrix(rng):
    validate_density_matrix(rand_density_matrix(rng, 2))
    with pytest.raises(ValueError):
        validate_density_matrix(np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(ValueError):
        validate_density_matrix(2 * np.eye(2, dtype=complex))
    with pytest.raises(ValueError):
        validate_density_matrix(np.diag([1.5, -0.5]).astype(complex))


def test_embed_op_single_qubit():
    full = embed_op(X, [1], 3)
    assert np.array_equal(full, tensor(I2, X, I2))


def test_embed_op_order_matters():
    # embedding CNOT as (control=1, target=0) must equal the reversed gate
    cnot = collective_cnot(2)
    rev = embed_op(cnot, [1, 0], 2)
    out = rev @ ket("01")
    np.testing.assert_allclose(out, ket("11"), atol=1e-15)


def test_permute_qubits_roundtrip(rng):
    rho = rand_density_matrix(rng, 3)
    perm = [2, 0, 1]
    forward = permute_qubits(rho, perm)
    inverse = [perm.index(q) for q in range(3)]
    np.testing.assert_allclose(permute_qubits(forward, inverse), rho, atol=1e-15)


def test_permute_qubits_swap_matches_kron(rng):
    a = rand_density_matrix(rng, 1)
    b = rand_density_matrix(rng, 1)
    np.testing.assert_allclose(permute_qubits(np.kron(a, b), [1, 0]), np.kron(b, a), atol=1e-15)


def test_validate_dims_argument():
    with pytest.raises(ValueError):
        validate_density_matrix(np.eye(4) / 4, dims=[2, 3])
