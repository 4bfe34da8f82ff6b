from itertools import permutations

import numpy as np
import pytest
import reference
from conftest import bits, rand_density_matrix
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import collective_cnot, conjugate, partial_trace

from entdistill.noise import (
    MAX_QUBITS,
    PurifiedCoeffs,
    _cnot_index,
    asymptotic_ratio,
    depolarized_cnot_apply,
    noisy_povm_element,
    purified_coeffs_gate_noisy,
    purified_coeffs_general,
    purified_coeffs_prefixes,
    purified_povm_element,
)
from entdistill.qmat import I2, embed_op, ket, permute_qubits, projector, tensor

P_GRID = [0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3]
EPS_GRID = [0.02, 0.05, 0.1, 0.2, 0.3]

# fixed point of the coefficient-ratio recurrence at p = eps = 0.1
S_01_01 = 0.030834852219


def test_noisy_povm_element_values():
    assert np.array_equal(noisy_povm_element(0, 0.0), projector(ket("0")))
    assert np.array_equal(noisy_povm_element(0, 0.1), np.diag([0.95, 0.05]).astype(complex))
    assert np.array_equal(noisy_povm_element(1, 0.2), np.diag([0.1, 0.9]).astype(complex))


def test_noisy_povm_element_domain():
    with pytest.raises(ValueError):
        noisy_povm_element(0, 1.0)
    with pytest.raises(ValueError):
        noisy_povm_element(0, -0.1)
    with pytest.raises(ValueError):
        noisy_povm_element(2, 0.1)


@pytest.mark.parametrize("p", [0.0, 0.02, 0.05, 0.1, 0.15, 0.2, 0.29, 0.5, 0.8, 0.9, 0.99])
def test_povm_completeness_exact(p):
    total = noisy_povm_element(0, p) + noisy_povm_element(1, p)
    assert np.array_equal(total, I2)


def test_collective_cnot_small_cases():
    assert np.array_equal(collective_cnot(1), I2)
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    assert np.array_equal(collective_cnot(2), cnot)
    np.testing.assert_allclose(collective_cnot(3) @ ket("100"), ket("111"), atol=1e-15)
    np.testing.assert_allclose(collective_cnot(3) @ ket("011"), ket("011"), atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_collective_cnot_unitary(n):
    v = collective_cnot(n)
    np.testing.assert_allclose(v @ v.conj().T, np.eye(2 ** n), atol=1e-15)


def test_collective_cnot_domain():
    with pytest.raises(ValueError):
        collective_cnot(0)


def dense_depolarized_cnot(rho, control, target, eps):
    """Reference channel on dense operators: (1 - eps) V rho V^dag + eps (I/4)_ct x tr_ct(rho)."""
    nq = rho.shape[0].bit_length() - 1
    v = embed_op(collective_cnot(2), [control, target], nq)
    rest = [q for q in range(nq) if q not in (control, target)]
    if rest:
        pair = np.kron(partial_trace(rho, rest), np.eye(4) / 4)
        current = rest + [control, target]
        mixed = permute_qubits(pair, [current.index(q) for q in range(nq)])
    else:
        mixed = np.trace(rho) * np.eye(4) / 4
    return (1 - eps) * (v @ rho @ v.conj().T) + eps * mixed


@pytest.mark.parametrize("nq", [2, 3, 4, 5, 6])
def test_depolarized_cnot_matches_dense_reference(nq, rng):
    # arbitrary complex operators, not only states: the oracle also pulls
    # POVM elements back through the channel
    d = 2 ** nq
    for control, target in permutations(range(nq), 2):
        rho = rng.randn(d, d) + 1j * rng.randn(d, d)
        for eps in (0.0, 1.0 - 2.0 ** -40, float(rng.uniform()), float(rng.uniform())):
            np.testing.assert_allclose(
                depolarized_cnot_apply(rho, control, target, eps),
                dense_depolarized_cnot(rho, control, target, eps),
                rtol=0, atol=1e-12 * np.abs(rho).max())


@pytest.mark.parametrize("nq", [2, 3, 4, 5, 6])
def test_depolarized_cnot_on_a_stack_is_the_call_per_operator(nq, rng):
    # a (3, d, d) stack: each slice is its own unstacked call, bit for bit
    d = 2 ** nq
    for control, target in permutations(range(nq), 2):
        stack = rng.randn(3, d, d) + 1j * rng.randn(3, d, d)
        for eps in (0.0, float(rng.uniform()), float(rng.uniform())):
            out = depolarized_cnot_apply(stack, control, target, eps)
            assert out.shape == stack.shape
            for rho, got in zip(stack, out):
                assert np.array_equal(got, depolarized_cnot_apply(rho, control, target, eps))
                np.testing.assert_allclose(got, dense_depolarized_cnot(rho, control, target, eps),
                                           rtol=0, atol=1e-12 * np.abs(rho).max())


STACK_SHAPES = st.sampled_from([(), (3,), (2, 4)])
CNOT_EPS = st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))


@settings(max_examples=40, deadline=None)
@given(STACK_SHAPES, st.integers(2, 6), CNOT_EPS, st.integers(0, 2 ** 32 - 1))
def test_depolarized_cnot_is_the_fancy_index_reference_bit_for_bit(lead, nq, eps, seed):
    # every control != target, on operators with signed zeros among their entries
    rng = np.random.RandomState(seed)
    d = 2 ** nq
    rho = rng.randn(*lead, d, d) + 1j * rng.randn(*lead, d, d)
    rho[rng.uniform(size=rho.shape) < 0.2] = -0.0
    for control, target in permutations(range(nq), 2):
        assert np.array_equal(bits(depolarized_cnot_apply(rho, control, target, eps)),
                              bits(reference.depolarized_cnot_apply(rho, control, target, eps)))


@settings(max_examples=40, deadline=None)
@given(STACK_SHAPES, st.integers(2, 6), st.integers(0, 2 ** 32 - 1))
def test_depolarized_cnot_with_an_eps_column_is_the_scalar_call_per_operator(lead, nq, seed):
    # one eps per operator, about a third of them 0: an eps > 0 slice is its scalar
    # call bit for bit, an eps = 0 slice equal to it up to the sign of a zero
    rng = np.random.RandomState(seed)
    d = 2 ** nq
    rho = rng.randn(*lead, d, d) + 1j * rng.randn(*lead, d, d)
    rho[rng.uniform(size=rho.shape) < 0.2] = -0.0
    eps = np.where(rng.uniform(size=lead) < 0.3, 0.0, rng.uniform(size=lead))
    for control, target in permutations(range(nq), 2):
        out = depolarized_cnot_apply(rho, control, target, eps)
        assert out.shape == rho.shape
        for k in np.ndindex(*lead):
            one = depolarized_cnot_apply(rho[k], control, target, float(eps[k]))
            assert np.array_equal(out[k], one)
            if eps[k] > 0.0:
                assert np.array_equal(bits(out[k]), bits(one))


@pytest.mark.parametrize("nq", [4, 6])
def test_depolarized_cnot_leaves_its_input(nq, rng):
    d = 2 ** nq
    rho = rng.randn(2, d, d) + 1j * rng.randn(2, d, d)
    rho[rng.uniform(size=rho.shape) < 0.2] = -0.0
    before = bits(rho).copy()
    for control, target in [(0, nq - 1), (nq - 1, 0)]:
        for eps in (0.0, 0.3, np.array([0.3, 0.0])):
            out = depolarized_cnot_apply(rho, control, target, eps)
            assert not np.shares_memory(out, rho)
            assert np.array_equal(bits(rho), before)


def test_depolarized_cnot_rejects_a_register_past_its_cap():
    # a 7-qubit operator, alone or in a stack, is rejected before the index cache sees it
    size = _cnot_index.cache_info().currsize
    d = 2 ** (MAX_QUBITS + 1)
    for rho, eps in [(np.zeros((d, d)), 0.1), (np.zeros((2, d, d)), np.array([0.1, 0.0]))]:
        with pytest.raises(ValueError,
                           match=r"^the depolarized CNOT takes at most 6 qubits, got 7$"):
            depolarized_cnot_apply(rho, 0, MAX_QUBITS, eps)
    assert _cnot_index.cache_info().currsize == size
    # every register under the cap, with every control != target, fills the cache's 70 entries
    for nq in range(1, MAX_QUBITS + 1):
        for control, target in permutations(range(nq), 2):
            _cnot_index(nq, control, target)
    assert _cnot_index.cache_info().currsize == 70


def test_depolarized_cnot_eps_column_broadcasts_against_the_stack(rng):
    # a (4,) column against a (2, 4) stack is one value per operator of each row
    rho = rng.randn(2, 4, 8, 8) + 1j * rng.randn(2, 4, 8, 8)
    eps = np.array([0.1, 0.0, 0.37, 0.05])
    out = depolarized_cnot_apply(rho, 2, 0, eps)
    for i, j in np.ndindex(2, 4):
        assert np.array_equal(out[i, j], depolarized_cnot_apply(rho[i, j], 2, 0, float(eps[j])))
    for bad in (np.full(2, 0.1), np.full((3, 4), 0.1)):
        with pytest.raises(ValueError, match=r"does not broadcast against a stack of shape"):
            depolarized_cnot_apply(rho, 2, 0, bad)
    with pytest.raises(ValueError, match=r"^epsilon must lie in \[0, 1\), got 1\.0$"):
        depolarized_cnot_apply(rho, 2, 0, np.array([0.1, 1.0, 0.0, 0.2]))


def test_depolarized_cnot_rejects_shapes_that_are_no_stack_of_operators():
    for shape in [(), (4,), (4, 2), (3, 4, 2), (3, 3), (2, 6, 6)]:
        with pytest.raises(ValueError, match=r"is not a square power of two$"):
            depolarized_cnot_apply(np.zeros(shape), 0, 1, 0.1)


def test_depolarized_cnot_noiseless_limit(rng):
    rho = rand_density_matrix(rng, 3)
    v = embed_op(collective_cnot(2), [0, 2], 3)
    np.testing.assert_allclose(
        depolarized_cnot_apply(rho, 0, 2, 0.0), conjugate(v, rho), atol=1e-14)


def test_depolarized_cnot_full_depolarization(rng):
    # eps = 1 lies outside the domain [0, 1); just below it the pair is
    # I/4 up to the weight 2^-40 left on V rho V^dag, whose entries are
    # at most 1 away from those of I/4
    rho = rand_density_matrix(rng, 2)
    np.testing.assert_allclose(depolarized_cnot_apply(rho, 0, 1, 1.0 - 2.0 ** -40),
                               np.eye(4) / 4, rtol=0, atol=2.0 ** -40)
    with pytest.raises(ValueError, match=r"^epsilon must lie in \[0, 1\), got 1\.0$"):
        depolarized_cnot_apply(rho, 0, 1, 1.0)


def test_depolarized_cnot_simple_mixture():
    rho = projector(ket("10"))
    out = depolarized_cnot_apply(rho, 0, 1, 0.1)
    expected = 0.9 * projector(ket("11")) + 0.1 * np.eye(4) / 4
    np.testing.assert_allclose(out, expected, atol=1e-15)


def test_depolarized_cnot_preserves_trace_and_rest(rng):
    rho = rand_density_matrix(rng, 3)
    out = depolarized_cnot_apply(rho, 1, 2, 0.23)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
    # the depolarized pair's complement keeps its marginal
    np.testing.assert_allclose(partial_trace(out, [0]), partial_trace(rho, [0]), atol=1e-12)


def test_depolarized_cnot_index_collision(rng):
    rho = rand_density_matrix(rng, 2)
    with pytest.raises(ValueError):
        depolarized_cnot_apply(rho, 1, 1, 0.1)
    with pytest.raises(ValueError):
        depolarized_cnot_apply(rho, 0, 2, 0.1)


def test_purified_coeffs_examples():
    c = purified_coeffs_general([0.1])
    assert (c.r0, c.r1) == (0.95, 0.05)
    c = purified_coeffs_general([0.2, 0.2])
    assert c.r0 == pytest.approx(0.81, abs=1e-15)
    assert c.r1 == pytest.approx(0.01, abs=1e-15)
    c = purified_coeffs_general([0.05, 0.15])
    assert c.r0 == pytest.approx(0.975 * 0.925, abs=1e-15)
    assert c.r1 == pytest.approx(0.025 * 0.075, abs=1e-15)


def test_gate_noisy_reduces_to_products():
    c = purified_coeffs_gate_noisy(0.2, 0.0, 3)
    assert c.r0 == pytest.approx(0.729, abs=1e-15)
    assert c.r1 == pytest.approx(0.001, abs=1e-18)


@pytest.mark.parametrize("eps", [0.0, 0.05, 0.3])
def test_gate_noisy_single_measurement_has_no_cnot(eps):
    c = purified_coeffs_gate_noisy(0.14, eps, 1)
    assert (c.r0, c.r1) == (1 - 0.07, 0.07)


def test_gate_noisy_ratio_converges_to_fixed_point():
    c = purified_coeffs_gate_noisy(0.1, 0.1, 50)
    assert c.r1 / c.r0 == pytest.approx(S_01_01, abs=1e-9)
    assert c.r1 / c.r0 == pytest.approx(asymptotic_ratio(0.1, 0.1), abs=1e-9)


def test_heterogeneous_reduces_to_homogeneous():
    for p in P_GRID:
        for n in (1, 2, 3, 5):
            hom = purified_coeffs_gate_noisy(p, 0.0, n)
            het = purified_coeffs_general([p] * n)
            assert abs(hom.r0 - het.r0) < 1e-12
            assert abs(hom.r1 - het.r1) < 1e-12


def test_purification_fidelity_monotone_and_converging():
    for p in P_GRID:
        fids = [purified_coeffs_gate_noisy(p, 0.0, n).fidelity for n in range(1, 11)]
        # strictly increasing until it saturates at 1.0 in double precision
        assert all(b > a for a, b in zip(fids, fids[1:]) if a < 1.0)
        assert all(b >= a for a, b in zip(fids, fids[1:]))
        assert fids[-1] > 0.9999


def test_acceptance_yield_strictly_decreasing():
    for p in P_GRID:
        yields = [purified_coeffs_gate_noisy(p, 0.0, n).acceptance for n in range(1, 11)]
        assert all(b < a for a, b in zip(yields, yields[1:]))


def test_coeff_invariants_on_grid():
    for p in P_GRID:
        for eps in [0.0] + EPS_GRID:
            for n in (1, 2, 3, 4, 6):
                c = purified_coeffs_gate_noisy(p, eps, n)
                assert 0.0 <= c.r1 <= c.r0 <= 1.0
                assert c.r0 + c.r1 <= 1.0 + 1e-12


def test_asymptotic_ratio_fixed_point_residual():
    for p in P_GRID:
        for eps in EPS_GRID:
            s = asymptotic_ratio(p, eps)
            rhs = ((1 - eps) * s * (p / 2) + eps / 4 * (1 + s)) / (
                (1 - eps) * (1 - p / 2) + eps / 4 * (1 + s))
            assert abs(s - rhs) < 1e-9


def test_asymptotic_ratio_matches_50_digit_reference_down_to_tiny_epsilon():
    # The reference evaluates the textbook form, which cancels in double
    # precision as eps -> 0, at 50 digits where the cancellation is harmless.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for p in (0.0, 0.02, 0.1, 0.3, 0.9):
            for eps in np.logspace(-12, np.log10(0.99), 60):
                mp, me = mpmath.mpf(p), mpmath.mpf(float(eps))
                exact = 2 * (1 - mp) * (1 - 1 / me) + mpmath.sqrt(
                    5 - 4 * mp * (2 - mp) + 4 * (1 - mp) ** 2 / me * (1 / me - 2))
                s = asymptotic_ratio(p, float(eps))
                assert s > 0.0
                assert abs(s - exact) <= 1e-15 * exact, (p, eps, s)


def test_asymptotic_ratio_rejects_zero_epsilon():
    with pytest.raises(ValueError):
        asymptotic_ratio(0.1, 0.0)


def test_purified_povm_element_values():
    noiseless = PurifiedCoeffs(r0=1.0, r1=0.0, n=1)
    assert np.array_equal(purified_povm_element(0, noiseless), projector(ket("0")))
    assert np.array_equal(purified_povm_element(1, noiseless), projector(ket("1")))

    c = purified_coeffs_gate_noisy(0.2, 0.0, 3)
    q0 = purified_povm_element(0, c)
    assert q0[0, 0].real == pytest.approx(0.729 / 0.730, abs=1e-12)

    c1 = purified_coeffs_gate_noisy(0.1, 0.0, 1)
    assert np.allclose(purified_povm_element(0, c1), np.diag([0.95, 0.05]), atol=1e-15)


def test_purified_povm_element_completeness(rng):
    for _ in range(5):
        p_list = list(rng.uniform(0.02, 0.3, 3))
        c = purified_coeffs_general(p_list, float(rng.uniform(0.0, 0.2)))
        total = purified_povm_element(0, c) + purified_povm_element(1, c)
        np.testing.assert_allclose(total, I2, atol=1e-12)


def test_purified_povm_element_degenerate():
    with pytest.raises(ValueError):
        purified_povm_element(0, PurifiedCoeffs(r0=0.0, r1=0.0, n=1))


def test_purified_coeffs_records_its_inputs():
    c = purified_coeffs_general([0.1, 0.2], 0.05)
    assert c.n == 2


def test_purified_coeffs_rejects_rates_outside_the_domain():
    for bad in ([], [1.0], [0.1, -0.1]):
        with pytest.raises(ValueError):
            purified_coeffs_general(bad)
    with pytest.raises(ValueError):
        purified_coeffs_general([0.1], epsilon=1.0)


def test_purified_coeffs_rate_matrix_is_one_scalar_call_per_row(rng):
    rates = rng.uniform(0.0, 0.4, (5, 4))
    c = purified_coeffs_general(rates, 0.07)
    assert c.n == 4
    assert c.r0.tolist() == [purified_coeffs_general(list(row), 0.07).r0 for row in rates]
    assert c.r1.tolist() == [purified_coeffs_general(list(row), 0.07).r1 for row in rates]


def test_coefficient_checks_hold_over_arrays():
    with pytest.raises(ValueError, match=r"got \(-0\.1, 0\.3\)$"):
        PurifiedCoeffs(r0=np.array([0.5, -0.1, -0.2]), r1=np.array([0.1, 0.3, 0.1]), n=1)
    with pytest.raises(ValueError, match=r"r0 \+ r1 = 1\.5 exceeds 1$"):
        PurifiedCoeffs(r0=np.array([0.5, 1.0]), r1=np.array([0.1, 0.5]), n=1)
    with pytest.raises(ValueError, match=r"measurement noise fraction .* got 1\.0$"):
        purified_coeffs_general(np.array([[0.1, 0.2], [0.3, 1.0]]))
    with pytest.raises(ValueError, match="nonempty"):
        purified_coeffs_general(np.zeros((3, 0)))


@pytest.mark.parametrize("below", [-1e-7, -1e-9, -1e-11, -2e-12])
def test_coefficients_below_the_rounding_tolerance_raise(below):
    # -1e-12 is the tolerance: a value in (-1e-6, -1e-12) is no rounding error
    for r0, r1 in ((below, 0.5), (0.5, below)):
        with pytest.raises(ValueError, match=r"^coefficients must be nonnegative"):
            PurifiedCoeffs(r0=r0, r1=r1, n=1)
        with pytest.raises(ValueError, match=r"^coefficients must be nonnegative"):
            PurifiedCoeffs(r0=np.array([0.5, r0]), r1=np.array([0.1, r1]), n=1)
    PurifiedCoeffs(r0=-5e-13, r1=np.array([0.5, -5e-13]), n=1)


FRACTION = st.floats(0.0, 1.0, exclude_max=True)
RATES = st.lists(FRACTION, min_size=1, max_size=7)


@settings(max_examples=300, deadline=None)
@given(RATES, FRACTION)
def test_coefficients_are_probabilities_over_the_whole_domain(p_list, eps):
    c = purified_coeffs_general(p_list, eps)
    assert c.r0 >= 0.0 and c.r1 >= 0.0
    assert c.acceptance <= 1.0


@settings(max_examples=300, deadline=None)
@given(FRACTION, st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_asymptotic_ratio_is_nonnegative_over_the_whole_domain(p, eps):
    assert asymptotic_ratio(p, eps) >= 0.0


@settings(max_examples=300, deadline=None)
@given(FRACTION, FRACTION, st.integers(1, 12))
def test_prefix_entries_are_the_scalar_calls_bit_for_bit(p, eps, depth):
    c = purified_coeffs_prefixes(p, eps, depth)
    assert c.n == depth and c.r0.shape == c.r1.shape == (depth,)
    scalar = [purified_coeffs_gate_noisy(p, eps, n) for n in range(1, depth + 1)]
    assert c.r0.tolist() == [s.r0 for s in scalar]
    assert c.r1.tolist() == [s.r1 for s in scalar]


@pytest.mark.parametrize("args,message", [
    ((1.0, 0.1, 3), r"measurement noise fraction must lie in \[0, 1\), got 1\.0$"),
    ((0.1, 1.0, 3), r"epsilon must lie in \[0, 1\), got 1\.0$"),
    ((1.0, 1.0, 3), "measurement noise fraction"),  # p first, as purified_coeffs_general
    ((0.1, 0.1, 0), r"depth must be >= 1, got 0$"),
])
def test_prefixes_reject_inputs_outside_the_domain(args, message):
    with pytest.raises(ValueError, match=message):
        purified_coeffs_prefixes(*args)
