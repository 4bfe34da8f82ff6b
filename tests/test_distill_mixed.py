import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from reference import validate_density_matrix

from entdistill.distill_mixed import (
    ParityWeights,
    distill_map,
    lower_bound,
    lower_bound_limit,
    parity_weights,
    post_state_unnormalized,
)
from entdistill.noise import purified_coeffs_gate_noisy
from entdistill.qmat import PHI_PLUS, projector, singlet_fraction

NOISELESS = ParityWeights(r_even=1.0, r_odd=0.0)

# thresholds from the product formulas, frozen at 12 digits
L_EXACT_P02 = {
    (1, 1): 0.781250000000, (2, 1): 0.640625000000, (3, 1): 0.626717032967,
    (4, 1): 0.625190548780, (2, 2): 0.525312500000, (3, 2): 0.513907967033,
    (4, 2): 0.512656250000, (3, 3): 0.502751026446, (4, 3): 0.501526484187,
}
L_EXACT_P01_22 = 0.505570987654
L_EPS_EXACT = [0.617283950617, 0.569547515623, 0.565961141024, 0.565680238691]
L_LIMIT_01_01 = 0.565656282778


def test_parity_weights_single_measurement():
    w = parity_weights([0.2], [0.2])
    assert w.r_even == pytest.approx(0.82, abs=1e-15)
    assert w.r_odd == pytest.approx(0.18, abs=1e-15)


def test_parity_weights_noiseless():
    w = parity_weights([0.0], [0.0])
    assert (w.r_even, w.r_odd) == (1.0, 0.0)


def test_parity_weights_product_form():
    w = parity_weights([0.1, 0.1], [0.1, 0.1])
    assert w.r_even == pytest.approx(0.9025 ** 2 + 0.0025 ** 2, abs=1e-15)
    assert w.r_odd == pytest.approx(2 * 0.9025 * 0.0025, abs=1e-15)


def test_parity_weights_empty_list():
    with pytest.raises(ValueError):
        parity_weights([], [0.1])
    with pytest.raises(ValueError):
        parity_weights([0.1], [])


def test_parity_weights_swap_symmetric(rng):
    for _ in range(20):
        p_a = list(rng.uniform(0.0, 0.3, rng.randint(1, 4)))
        p_b = list(rng.uniform(0.0, 0.3, rng.randint(1, 4)))
        w1 = parity_weights(p_a, p_b)
        w2 = parity_weights(p_b, p_a)
        assert w1.r_even == w2.r_even
        assert w1.r_odd == w2.r_odd
        assert lower_bound(w1) == lower_bound(w2)


def test_gate_noisy_weights_reduce_to_products():
    for (n, m) in [(1, 1), (2, 3), (4, 2)]:
        w = parity_weights([0.13] * n, [0.13] * m, 0.0)
        a0, a1, b0, b1 = (1 - 0.065) ** n, 0.065 ** n, (1 - 0.065) ** m, 0.065 ** m
        assert w.r_even == pytest.approx(a0 * b0 + a1 * b1, abs=1e-15)
        assert w.r_odd == pytest.approx(a0 * b1 + a1 * b0, abs=1e-15)


def test_gate_noisy_weights_no_cnot_at_depth_one():
    a = parity_weights([0.1], [0.1], 0.1)
    b = parity_weights([0.1], [0.1])
    assert (a.r_even, a.r_odd) == (b.r_even, b.r_odd)


def test_distill_map_noiseless_values():
    res = distill_map(0.7, NOISELESS)
    assert res.fidelity_out == pytest.approx(25 / 34, abs=1e-12)
    assert res.p_succ == pytest.approx(0.68, abs=1e-12)
    assert distill_map(1.0, NOISELESS).fidelity_out == pytest.approx(1.0, abs=1e-15)
    assert distill_map(0.25, NOISELESS).fidelity_out == pytest.approx(0.25, abs=1e-15)


def test_distill_map_noiseless_closed_form_across_grid():
    for f in np.linspace(0.0, 1.0, 101):
        w = (1 - f) / 3
        expected = (f * f + w * w) / (f * f + 2 * f * w + 5 * w * w)
        assert distill_map(float(f), NOISELESS).fidelity_out == pytest.approx(expected, abs=1e-12)


def test_distill_map_quarter_is_a_fixed_point_for_any_weights(rng):
    for _ in range(10):
        w = parity_weights(
            list(rng.uniform(0.0, 0.3, 2)), list(rng.uniform(0.0, 0.3, 2)),
            float(rng.uniform(0.0, 0.2)))
        assert distill_map(0.25, w).fidelity_out == pytest.approx(0.25, abs=1e-12)


def test_distill_map_domain():
    with pytest.raises(ValueError):
        distill_map(1.1, NOISELESS)
    with pytest.raises(ValueError):
        distill_map(-0.1, NOISELESS)


def test_post_state_perfect_input():
    sigma = post_state_unnormalized(1.0, NOISELESS)
    np.testing.assert_allclose(sigma, projector(PHI_PLUS), atol=1e-15)
    assert np.trace(sigma).real == pytest.approx(1.0, abs=1e-15)


def test_post_state_consistent_with_map(rng):
    for _ in range(25):
        f = float(rng.uniform(0.0, 1.0))
        w = parity_weights(
            list(rng.uniform(0.0, 0.3, rng.randint(1, 4))),
            list(rng.uniform(0.0, 0.3, rng.randint(1, 4))),
            float(rng.uniform(0.0, 0.2)))
        sigma = post_state_unnormalized(f, w)
        res = distill_map(f, w)
        assert np.trace(sigma).real == pytest.approx(res.p_succ, abs=1e-12)
        assert singlet_fraction(sigma / np.trace(sigma).real) == pytest.approx(
            res.fidelity_out, abs=1e-12)
        validate_density_matrix(sigma / np.trace(sigma).real)


def test_lower_bound_values():
    assert lower_bound(parity_weights([0.2], [0.2])) == pytest.approx(0.78125, abs=1e-15)
    assert lower_bound(parity_weights([0.1] * 2, [0.1] * 2)) == pytest.approx(
        L_EXACT_P01_22, abs=1e-12)
    assert lower_bound(NOISELESS) == pytest.approx(0.5, abs=1e-15)
    for (n, m), expected in L_EXACT_P02.items():
        assert lower_bound(parity_weights([0.2] * n, [0.2] * m)) == pytest.approx(
            expected, abs=1e-12)


def test_lower_bound_requires_distillable_window():
    with pytest.raises(ValueError):
        lower_bound(ParityWeights(r_even=0.4, r_odd=0.4))
    with pytest.raises(ValueError):
        lower_bound(ParityWeights(r_even=0.3, r_odd=0.4))


def test_gate_noisy_lower_bounds_frozen():
    for n, expected in zip([1, 2, 3, 4], L_EPS_EXACT):
        val = lower_bound(parity_weights([0.1] * n, [0.1] * n, 0.1))
        assert val == pytest.approx(expected, abs=1e-12)


def test_lower_bound_limit_value_and_recurrence_agreement():
    limit = lower_bound_limit(0.1, 0.1)
    assert limit == pytest.approx(L_LIMIT_01_01, abs=1e-12)
    at_12 = lower_bound(parity_weights([0.1] * 12, [0.1] * 12, 0.1))
    assert abs(limit - at_12) < 1e-6


def test_lower_bound_limit_small_epsilon_tends_to_half():
    val = lower_bound_limit(0.1, 1e-6)
    assert 0.5 < val < 0.5 + 1e-5


def test_lower_bound_limit_rejects_zero_epsilon():
    with pytest.raises(ValueError):
        lower_bound_limit(0.1, 0.0)


def test_limit_matches_fixed_point_expression():
    from entdistill.noise import asymptotic_ratio

    for p in (0.05, 0.1, 0.2):
        for eps in (0.02, 0.1, 0.25):
            s = asymptotic_ratio(p, eps)
            assert lower_bound_limit(p, eps) == pytest.approx(
                (1 + s) ** 2 / (2 * (1 - s) ** 2), abs=1e-10)


def test_sign_and_roots_of_the_gain():
    """F' - F changes sign exactly at 1/4, L and 1."""
    for (p, n, m, eps) in [(0.2, 1, 1, 0.0), (0.1, 2, 2, 0.0), (0.1, 3, 3, 0.1), (0.25, 2, 1, 0.05)]:
        w = parity_weights([p] * n, [p] * m, eps)
        big_l = lower_bound(w)
        for f in np.linspace(0.01, 0.99, 197):
            f = float(f)
            if min(abs(f - 0.25), abs(f - big_l), abs(f - 1.0)) < 1e-6:
                continue
            gain = distill_map(f, w).fidelity_out - f
            reference = -8.0 * (f - 0.25) * (f - big_l) * (f - 1.0)
            assert np.sign(gain) == np.sign(reference), (p, n, m, eps, f)
        # strict improvement holds right up against the threshold
        assert distill_map(big_l + 1e-12, w).fidelity_out > big_l + 1e-12
        assert distill_map(big_l - 1e-12, w).fidelity_out < big_l - 1e-12


def test_lower_bound_monotone_in_depth():
    for p in (0.05, 0.1, 0.2, 0.3):
        vals = [lower_bound(parity_weights([p] * n, [p] * n)) for n in range(1, 9)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 0.5
        assert vals[-1] - 0.5 < 1e-3


def test_heterogeneous_band_still_distills(rng):
    # rates anywhere in (0.025, 0.175) with one extra qubit per party keep
    # the map strictly improving at F = 0.7
    for _ in range(100):
        p_a = list(rng.uniform(0.025, 0.175, 2))
        p_b = list(rng.uniform(0.025, 0.175, 2))
        res = distill_map(0.7, parity_weights(p_a, p_b))
        assert res.fidelity_out > 0.7


def test_parity_weights_invariants_on_grid():
    for p in (0.02, 0.1, 0.2, 0.3):
        for n in (1, 2, 3):
            for m in (1, 2, 3):
                w = parity_weights([p] * n, [p] * m)
                assert w.r_even > w.r_odd >= 0.0
                assert w.r_even + w.r_odd <= 1.0 + 1e-12


FRACTION = st.floats(0.0, 1.0, exclude_max=True)
RATES = st.lists(FRACTION, min_size=1, max_size=7)


def _threshold(p_a, p_b, eps=0.0):
    """L, or inf where r_even <= r_odd leaves no window."""
    try:
        return lower_bound(parity_weights(p_a, p_b, eps))
    except ValueError:
        return np.inf


@settings(max_examples=300, deadline=None)
@given(RATES, RATES, FRACTION)
def test_threshold_is_at_least_one_half_wherever_it_exists(p_a, p_b, eps):
    assert _threshold(p_a, p_b, eps) >= 0.5


@settings(max_examples=300, deadline=None)
@given(st.lists(FRACTION, min_size=1, max_size=6), st.lists(FRACTION, min_size=1, max_size=6),
       FRACTION)
def test_threshold_never_rises_with_another_measurement(p_a, p_b, p):
    # One more purifying measurement on either side, at any rate, cannot
    # raise L. Rounding can, by a few ulps of r_even - r_odd: that
    # difference cancels, so its relative error, and L's, grows like 2L ulps.
    # From L ~ 2^52 on (a rate within a few ulps of 1) the difference is an
    # ulp or two of r_even and rounding can close the window outright:
    # [0.75] vs [1 - 2^-53] gives L = 2^53, one more rate 0.5 for Alice
    # gives r_even == r_odd. So the order is checked below 2^50.
    big_l = _threshold(p_a, p_b)
    if big_l >= 2.0 ** 50:
        return
    slack = 4 * np.spacing(big_l) * max(1.0, 2.0 * big_l)
    for longer in (_threshold(p_a + [p], p_b), _threshold(p_a, p_b + [p])):
        assert longer <= big_l + slack


@st.composite
def map_inputs(draw):
    """F values with 0 and 1 among them, per-row rate matrices at depths 1-6, and eps."""
    fs = np.array([0.0, 1.0] + draw(st.lists(st.floats(0.0, 1.0), max_size=6)))
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    p_a = draw(arrays(float, (len(fs), n), elements=FRACTION))
    p_b = draw(arrays(float, (len(fs), m), elements=FRACTION))
    return fs, p_a, p_b, draw(FRACTION)


@settings(max_examples=200, deadline=None)
@given(map_inputs())
def test_array_evaluation_equals_scalar_calls_bit_for_bit(inputs):
    fs, p_a, p_b, eps = inputs
    # One row per point: rate matrices and an F column, as heterogeneous sweeps use them.
    w = parity_weights(p_a, p_b, eps)
    res = distill_map(fs, w)
    scalar_w = [parity_weights(list(a), list(b), eps) for a, b in zip(p_a, p_b)]
    scalar = [distill_map(float(f), sw) for f, sw in zip(fs, scalar_w)]
    assert w.r_even.tolist() == [sw.r_even for sw in scalar_w]
    assert w.r_odd.tolist() == [sw.r_odd for sw in scalar_w]
    assert res.fidelity_out.tolist() == [r.fidelity_out for r in scalar]
    assert res.p_succ.tolist() == [r.p_succ for r in scalar]
    # One cell's scalar weights on the F column, as grid sweeps use them.
    cell = distill_map(fs, scalar_w[0])
    assert cell.fidelity_out.tolist() == [distill_map(float(f), scalar_w[0]).fidelity_out
                                          for f in fs]
    assert cell.p_succ.tolist() == [distill_map(float(f), scalar_w[0]).p_succ for f in fs]
    for out in (res.fidelity_out, res.p_succ, cell.fidelity_out, cell.p_succ):
        assert np.all((out >= 0.0) & (out <= 1.0))
    # lower_bound on the weight arrays: each row's scalar value, or the first failing row's error.
    thresholds = []
    for sw in scalar_w:
        try:
            thresholds.append(lower_bound(sw))
        except ValueError as exc:
            with pytest.raises(ValueError) as array_error:
                lower_bound(w)
            assert str(array_error.value) == str(exc)
            return
    assert lower_bound(w).tolist() == thresholds


@settings(max_examples=200, deadline=None)
@given(map_inputs())
# At this f, (f - w) ** 2 as a float's pow and as an array's square differ in the last bit.
@example((np.array([0.639126848719905]), np.array([[0.1, 0.2]]), np.array([[0.3]]), 0.05))
def test_post_state_of_weight_arrays_equals_scalar_calls_bit_for_bit(inputs):
    """Weight arrays with a float f give one state per row, each its scalar call's."""
    fs, p_a, p_b, eps = inputs
    w = parity_weights(p_a, p_b, eps)
    scalar_w = [parity_weights(list(a), list(b), eps) for a, b in zip(p_a, p_b)]
    for f in fs.tolist():
        stack = post_state_unnormalized(f, w)
        assert stack.shape == (len(scalar_w), 4, 4)
        for state, sw in zip(stack, scalar_w):
            assert np.array_equal(state, post_state_unnormalized(f, sw))


def test_array_checks_name_the_first_offending_value_in_row_order():
    rates = np.array([[0.1, 0.2], [1.5, 0.1], [0.2, -0.3]])
    with pytest.raises(ValueError, match=r"got 1\.5$"):
        parity_weights(rates, rates, 0.0)
    with pytest.raises(ValueError, match=r"input fidelity must lie in \[0, 1\], got 1\.25$"):
        distill_map(np.array([0.5, 1.25, -1.0]), NOISELESS)
    with pytest.raises(ValueError, match=r"got nan$"):
        distill_map(np.array([0.5, np.nan]), NOISELESS)
    # One closed window, then three: the error is the scalar call's, for the first in row order.
    with pytest.raises(ValueError) as scalar_error:
        lower_bound(ParityWeights(r_even=0.45, r_odd=0.45))
    r_even = np.array([[0.5, 0.45], [0.3, 0.2]])
    for r_odd in ([[0.1, 0.45], [0.1, 0.1]], [[0.1, 0.45], [0.4, 0.3]]):
        with pytest.raises(ValueError) as array_error:
            lower_bound(ParityWeights(r_even=r_even, r_odd=np.array(r_odd)))
        assert str(array_error.value) == str(scalar_error.value) == (
            "no distillable window: r_even = 0.45 <= r_odd = 0.45")
