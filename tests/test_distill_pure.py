import numpy as np
import pytest
from conftest import rand_pure_state
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from reference import partial_trace

from entdistill.distill_mixed import PI_PHI_PLUS, parity_weights, post_state_unnormalized
from entdistill.distill_pure import (
    filter_ops,
    pure_filter_fidelity,
    pure_filter_fidelity_limit,
    pure_post_state_unnormalized,
)
from entdistill.noise import (
    PurifiedCoeffs,
    noisy_povm_element,
    purified_coeffs_gate_noisy,
    purified_coeffs_general,
)
from entdistill.qmat import (
    I2,
    KET0,
    PHI_PLUS,
    embed_op,
    ket,
    projector,
    singlet_fraction,
    tensor,
)
from entdistill.states import pure_theta

THETA_GRID = [0.05, 0.2, np.pi / 16, np.pi / 8, np.pi / 4 - 1e-3, np.pi / 4]

# filtered fidelities at theta = pi/16, p = 0.1, frozen at 12 digits
FN_IDEAL = [0.805102555847, 0.983736444162, 0.999116807665, 0.999953438276]
FN_EPS005 = [0.805102555847, 0.914062957445, 0.923953493492, 0.924616401787]
LIMIT_EPS005 = 0.924662837649


def _limit_cos_form(theta, p, epsilon):
    """The large-depth filtered fidelity as a closed form in cos(2 theta).

    An independent cross-check of pure_filter_fidelity_limit, which goes
    through the fixed-point ratio s instead.
    """
    c = np.cos(2.0 * theta)
    root = np.sqrt(
        epsilon ** 2 * (5.0 + 4.0 * (-2.0 + p) * p)
        + 4.0 * (1.0 - p) ** 2 * (1.0 - 2.0 * epsilon)
    )
    num = 2.0 * epsilon + (-2.0 + 2.0 * p - 2.0 * epsilon * p + root) * c
    den = 2.0 * epsilon + 2.0 * (-2.0 + epsilon + 2.0 * p - 2.0 * epsilon * p + root) * c
    return float(num / den)


def test_filter_ops_boundary_theta():
    # float pi/4 is ~1e-16 below the exact angle, which sqrt amplifies to
    # ~1e-8 in K1; that is as close to (I, 0) as double precision allows
    ops = filter_ops(np.pi / 4)
    np.testing.assert_allclose(ops.k0, I2, atol=1e-12)
    np.testing.assert_allclose(ops.k1, np.zeros((2, 2)), atol=1e-7)
    assert pure_filter_fidelity(np.pi / 4, PurifiedCoeffs(r0=1.0, r1=0.0, n=1)).p_succ == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("theta", THETA_GRID)
def test_kraus_completeness(theta):
    ops = filter_ops(theta)
    total = ops.k0.conj().T @ ops.k0 + ops.k1.conj().T @ ops.k1
    np.testing.assert_allclose(total, I2, atol=1e-10)


@pytest.mark.parametrize("theta", THETA_GRID)
def test_w_and_u_unitary(theta):
    ops = filter_ops(theta)
    np.testing.assert_allclose(ops.w @ ops.w.conj().T, I2, atol=1e-10)
    np.testing.assert_allclose(ops.u @ ops.u.conj().T, np.eye(4), atol=1e-10)


@pytest.mark.parametrize("theta", THETA_GRID)
def test_kraus_operators_are_ancilla_matrix_elements(theta):
    # K_m = <m|_E U |0>_E, with the ancilla on the low bits
    ops = filter_ops(theta)
    u = ops.u.reshape(2, 2, 2, 2)
    np.testing.assert_allclose(u[:, 0, :, 0], ops.k0, atol=1e-12)
    np.testing.assert_allclose(u[:, 1, :, 0], ops.k1, atol=1e-12)


def test_w_rotates_zero_ket():
    theta = np.pi / 8
    ops = filter_ops(theta)
    expected = np.array([np.tan(theta), np.sqrt(1 - np.tan(theta) ** 2)], dtype=complex)
    np.testing.assert_allclose(ops.w @ KET0, expected, atol=1e-12)


def test_filter_ops_domain():
    for bad in (0.0, -0.2, np.pi / 4 + 1e-9):
        with pytest.raises(ValueError):
            filter_ops(bad)


def test_successful_filter_yields_ebit():
    theta = np.pi / 16
    ops = filter_ops(theta)
    out = tensor(I2, ops.k0) @ pure_theta(theta)
    np.testing.assert_allclose(out, np.sqrt(2) * np.sin(theta) * PHI_PLUS, atol=1e-12)
    assert np.linalg.norm(out) ** 2 == pytest.approx(2 * np.sin(theta) ** 2, abs=1e-12)


def test_failed_filter_gives_product_state():
    theta = 0.3
    ops = filter_ops(theta)
    out = tensor(I2, ops.k1) @ pure_theta(theta)
    np.testing.assert_allclose(out / np.linalg.norm(out), ket("11"), atol=1e-12)


def test_noisy_single_shot_decomposition(rng):
    """Contracting the controlled-W circuit with one noisy measurement splits
    into (1 - p/2) K0 . K0^dag + (p/2) K1 . K1^dag."""
    theta, p = 0.27, 0.13
    ops = filter_ops(theta)
    for _ in range(10):
        psi = rand_pure_state(rng, 2)
        rho = projector(psi)
        circuit = embed_op(ops.u, [1, 2], 3) @ tensor(rho, projector(KET0)) @ embed_op(ops.u, [1, 2], 3).conj().T
        lhs = partial_trace(circuit @ tensor(np.eye(4), noisy_povm_element(0, p)), [0, 1])
        k0 = tensor(I2, ops.k0)
        k1 = tensor(I2, ops.k1)
        rhs = (1 - p / 2) * k0 @ rho @ k0.conj().T + (p / 2) * k1 @ rho @ k1.conj().T
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_fidelity_with_ideal_measurement():
    theta = 0.22
    res = pure_filter_fidelity(theta, PurifiedCoeffs(r0=1.0, r1=0.0, n=1))
    assert res.fidelity_out == pytest.approx(1.0, abs=1e-15)
    assert res.p_succ == pytest.approx(2 * np.sin(theta) ** 2, abs=1e-12)


@pytest.mark.parametrize("n, expected", list(enumerate(FN_IDEAL, start=1)))
def test_fidelity_table_ideal_gates(n, expected):
    res = pure_filter_fidelity(np.pi / 16, purified_coeffs_gate_noisy(0.1, 0.0, n))
    assert res.fidelity_out == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("n, expected", list(enumerate(FN_EPS005, start=1)))
def test_fidelity_table_noisy_gates(n, expected):
    res = pure_filter_fidelity(np.pi / 16, purified_coeffs_gate_noisy(0.1, 0.05, n))
    assert res.fidelity_out == pytest.approx(expected, abs=1e-12)


def test_fidelity_in_is_input_overlap():
    # the filter's input fidelity is the overlap of |theta> with the ebit,
    # and the filter raises it
    f_in = singlet_fraction(projector(pure_theta(np.pi / 16)))
    assert f_in == pytest.approx(0.691341716183, abs=1e-12)
    res = pure_filter_fidelity(np.pi / 16, purified_coeffs_gate_noisy(0.1, 0.0, 2))
    assert res.fidelity_out > f_in


def test_boundary_theta_always_unit_fidelity():
    for coeffs in (purified_coeffs_gate_noisy(0.3, 0.0, 1), purified_coeffs_gate_noisy(0.1, 0.1, 3)):
        res = pure_filter_fidelity(np.pi / 4, coeffs)
        assert res.fidelity_out == pytest.approx(1.0, abs=1e-12)


def test_degenerate_coeffs_raise():
    with pytest.raises(ValueError, match="^filter success probability is zero$"):
        pure_filter_fidelity(0.3, PurifiedCoeffs(r0=0.0, r1=0.0, n=1))
    # one zero success probability in an array
    with pytest.raises(ValueError, match="^filter success probability is zero$"):
        pure_filter_fidelity(0.3, PurifiedCoeffs(r0=np.array([0.5, 0.0, 0.9]),
                                                 r1=np.array([0.1, 0.0, 0.05]), n=1))


FRACTION = st.floats(0.0, 1.0, exclude_max=True)


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-3, np.pi / 4), st.integers(1, 7),
       arrays(float, st.integers(1, 6), elements=FRACTION), FRACTION)
def test_array_coefficients_equal_scalar_calls_bit_for_bit(theta, n, rates, eps):
    """Coefficient arrays, one entry per rate at depth n, with a scalar theta."""
    coeffs = purified_coeffs_general(np.repeat(rates[:, None], n, axis=1), eps)
    res = pure_filter_fidelity(theta, coeffs)
    scalar = [pure_filter_fidelity(theta, purified_coeffs_gate_noisy(p, eps, n))
              for p in rates.tolist()]
    assert res.fidelity_out.tolist() == [r.fidelity_out for r in scalar]
    assert res.p_succ.tolist() == [r.p_succ for r in scalar]


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-3, np.pi / 4), st.integers(1, 7),
       arrays(float, st.integers(1, 6), elements=FRACTION), FRACTION)
# At this theta, sin(theta) ** 2 as an np.float64's pow and as an array's square differ.
@example(0.21921936201796255, 3, np.array([0.05, 0.1, 0.15, 0.2, 0.25, 0.3]), 0.05)
def test_post_state_of_coefficient_arrays_equals_scalar_calls_bit_for_bit(theta, n, rates, eps):
    """Coefficient arrays with a float theta give one state per entry, each its scalar call's."""
    stack = pure_post_state_unnormalized(
        theta, purified_coeffs_general(np.repeat(rates[:, None], n, axis=1), eps))
    assert stack.shape == (len(rates), 4, 4)
    for state, p in zip(stack, rates.tolist()):
        assert np.array_equal(
            state, pure_post_state_unnormalized(theta, purified_coeffs_gate_noisy(p, eps, n)))


def test_fidelity_monotone_in_depth_and_converges():
    for p in (0.05, 0.1, 0.2, 0.3):
        for theta in (0.1, np.pi / 16, 0.6):
            fids = [pure_filter_fidelity(theta, purified_coeffs_gate_noisy(p, 0.0, n)).fidelity_out
                    for n in range(1, 11)]
            assert all(b > a for a, b in zip(fids, fids[1:]) if a < 1.0)
            assert fids[-1] > 0.9999


def test_gate_noisy_sequence_converges_to_limit():
    limit = pure_filter_fidelity_limit(np.pi / 16, 0.1, 0.05)
    f12 = pure_filter_fidelity(np.pi / 16, purified_coeffs_gate_noisy(0.1, 0.05, 12)).fidelity_out
    assert abs(f12 - limit) < 1e-4


def test_limit_value_frozen():
    assert pure_filter_fidelity_limit(np.pi / 16, 0.1, 0.05) == pytest.approx(
        LIMIT_EPS005, abs=1e-12)


def test_limit_two_closed_forms_agree():
    for theta in (0.1, np.pi / 16, 0.5, np.pi / 4 - 1e-4):
        for p in (0.02, 0.1, 0.25):
            for eps in (0.01, 0.05, 0.15):
                assert pure_filter_fidelity_limit(theta, p, eps) == pytest.approx(
                    _limit_cos_form(theta, p, eps), abs=1e-10)


def test_limit_is_a_fidelity_down_to_tiny_epsilon():
    mpmath = pytest.importorskip("mpmath")
    assert pure_filter_fidelity_limit(np.pi / 16, 0.1, 1e-8) <= 1.0
    with mpmath.workdps(50):
        for theta in (0.05, np.pi / 16, np.pi / 8, np.pi / 4 - 1e-3):
            for p in (0.02, 0.1, 0.3):
                for eps in np.logspace(-12, np.log10(0.99), 30):
                    mp, me = mpmath.mpf(p), mpmath.mpf(float(eps))
                    s = 2 * (1 - mp) * (1 - 1 / me) + mpmath.sqrt(
                        5 - 4 * mp * (2 - mp) + 4 * (1 - mp) ** 2 / me * (1 / me - 2))
                    t2 = 2 * mpmath.sin(mpmath.mpf(theta)) ** 2
                    exact = (t2 + s / 2 * (1 - t2)) / (t2 + s * (1 - t2))
                    got = pure_filter_fidelity_limit(theta, p, float(eps))
                    assert 0.0 <= got <= 1.0
                    assert abs(got - exact) < 1e-15, (theta, p, eps, got)


def test_limit_near_boundary_theta():
    assert pure_filter_fidelity_limit(np.pi / 4 - 1e-8, 0.1, 0.05) == pytest.approx(1.0, abs=1e-6)


def test_limit_domain():
    with pytest.raises(ValueError):
        pure_filter_fidelity_limit(np.pi / 16, 0.1, 0.0)
    with pytest.raises(ValueError):
        pure_filter_fidelity_limit(np.pi / 4, 0.1, 0.05)


def test_post_state_structure():
    theta = np.pi / 16
    coeffs = purified_coeffs_gate_noisy(0.1, 0.0, 2)
    sigma = pure_post_state_unnormalized(theta, coeffs)
    res = pure_filter_fidelity(theta, coeffs)
    assert np.trace(sigma).real == pytest.approx(res.p_succ, abs=1e-12)
    fraction = (PHI_PLUS.conj() @ sigma @ PHI_PLUS).real / np.trace(sigma).real
    assert fraction == pytest.approx(res.fidelity_out, abs=1e-12)


def test_post_states_leave_the_shared_projector_unchanged():
    """Both post-states scale the one read-only |phi+><phi+| into a new array."""
    coeffs = purified_coeffs_gate_noisy(0.1, 0.05, 2)
    first = pure_post_state_unnormalized(np.pi / 16, coeffs)
    post_state_unnormalized(0.7, parity_weights([0.1], [0.2], 0.05))
    assert np.array_equal(pure_post_state_unnormalized(np.pi / 16, coeffs), first)
    assert not PI_PHI_PLUS.flags.writeable
    assert np.array_equal(PI_PHI_PLUS, projector(PHI_PLUS))
