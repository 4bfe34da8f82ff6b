import csv
import tracemalloc

import numpy as np
import pytest
import reference
from conftest import bits, rand_density_matrix
from reference import P0, P1

from entdistill import cli, noise, oracle
from entdistill.distill_mixed import (
    distill_map,
    parity_weights,
    post_state_unnormalized,
)
from entdistill.distill_pure import filter_ops, pure_filter_fidelity, pure_post_state_unnormalized
from entdistill.noise import (
    depolarized_cnot_apply,
    noisy_povm_element,
    purified_coeffs_gate_noisy,
    purified_coeffs_general,
)
from entdistill.oracle import (
    distill_result,
    filtered_ket,
    mixed_register,
    oracle_distill_mixed,
    oracle_distill_pure,
    oracle_effective_povm,
    oracle_effective_povms,
    oracle_mixed_post_state,
    oracle_mixed_post_state_direct,
    oracle_pure_post_state,
)
from entdistill.qmat import I2, KET0, projector, singlet_fraction, tensor
from entdistill.states import isotropic, pure_theta, twirl

TOL = 1e-10


def povm(rates, eps):
    """The oracle's effective POVM of a gadget with these rates."""
    return oracle_effective_povm(rates, eps, len(rates))


def test_effective_povm_single_measurement_is_raw_element():
    ep = oracle_effective_povm([0.17], 0.0, 1)
    assert np.array_equal(ep.q0, noisy_povm_element(0, 0.17))
    assert np.array_equal(ep.q1, noisy_povm_element(1, 0.17))


def test_effective_povm_ideal_gates_gives_products(rng):
    for n in (1, 2, 3, 4):
        p_list = list(rng.uniform(0.02, 0.3, n))
        ep = oracle_effective_povm(p_list, 0.0, n)
        r0 = np.prod([1 - p / 2 for p in p_list])
        r1 = np.prod([p / 2 for p in p_list])
        assert abs(ep.r0 - r0) < 1e-12
        assert abs(ep.r1 - r1) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
def test_effective_povm_matches_recurrence_homogeneous(n):
    c = purified_coeffs_gate_noisy(0.1, 0.1, n)
    ep = oracle_effective_povm([0.1] * n, 0.1, n)
    assert abs(ep.r0 - c.r0) < TOL
    assert abs(ep.r1 - c.r1) < TOL


def test_effective_povm_matches_recurrence_heterogeneous(rng):
    # pins the rate ordering of the analytic recurrence to the circuit
    for _ in range(10):
        n = int(rng.randint(2, 5))
        p_list = list(rng.uniform(0.02, 0.3, n))
        eps = float(rng.choice([0.02, 0.05, 0.1, 0.2]))
        c = purified_coeffs_general(p_list, eps)
        ep = oracle_effective_povm(p_list, eps, n)
        assert abs(ep.r0 - c.r0) < TOL
        assert abs(ep.r1 - c.r1) < TOL


def test_effective_povm_stays_diagonal(rng):
    for _ in range(5):
        n = int(rng.randint(1, 5))
        p_list = list(rng.uniform(0.02, 0.3, n))
        ep = oracle_effective_povm(p_list, 0.1, n)
        for q in (ep.q0, ep.q1):
            assert np.abs(q - np.diag(np.diag(q))).max() < 1e-12


def test_effective_povm_elements_sum_to_yield_times_identity(rng):
    p_list = list(rng.uniform(0.02, 0.3, 3))
    ep = oracle_effective_povm(p_list, 0.07, 3)
    total = ep.q0 + ep.q1
    np.testing.assert_allclose(total, (ep.r0 + ep.r1) * np.eye(2), atol=1e-12)


def test_effective_povm_at_depth_64_is_the_recurrence(rng):
    """The gadget folds one ancilla at a time, so depth 64 is 63 two-qubit steps; its (r0, r1)
    lies within 1e-14 relative of the closed-form recurrence, r1 as small as about 1e-80."""
    for eps in (0.0, 0.05, 0.1, 0.3):
        for p_list in ([0.1] * 64, list(rng.uniform(0.0, 0.3, 64))):
            ep, c = oracle_effective_povm(p_list, eps, 64), purified_coeffs_general(p_list, eps)
            assert abs(ep.r0 - c.r0) < 1e-14 * c.r0 and abs(ep.r1 - c.r1) < 1e-14 * c.r1


def test_effective_povm_guards():
    with pytest.raises(ValueError):
        oracle_effective_povm([0.1, 0.1], 0.0, 3)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 16])
def test_effective_povm_stack_rows_are_the_single_calls(n, rng):
    rates = rng.uniform(0.0, 1.0, (4, n))
    per_eps = {}
    for eps in (0.0, 0.05, 0.1, 0.37):
        q0, q1 = per_eps[eps] = oracle_effective_povms(rates, eps)
        assert q0.shape == q1.shape == (4, 2, 2)
        for row, a, b in zip(rates, q0, q1):
            ep = oracle_effective_povm(list(row), eps, n)
            assert np.array_equal(a, ep.q0) and np.array_equal(b, ep.q1)
    # eps as a column: each row is its eps's stack's row, bit for bit where eps > 0
    column = np.array([0.37, 0.0, 0.05, 0.1] * 4)
    q0, q1 = oracle_effective_povms(np.tile(rates, (4, 1)), column)
    for k, eps in enumerate(column):
        for got, stack in zip((q0[k], q1[k]), per_eps[eps]):
            assert np.array_equal(got, stack[k % 4])
            assert eps == 0.0 or np.array_equal(bits(got), bits(stack[k % 4]))


def test_effective_povm_stack_guards():
    with pytest.raises(ValueError, match=r"fraction must lie in \[0, 1\), got -0\.2$"):
        oracle_effective_povms([[0.1, -0.2], [1.5, 0.1]], 0.0)
    with pytest.raises(ValueError, match=r"fraction must lie in \[0, 1\), got 1\.5$"):
        oracle_effective_povms([[0.1, 0.2], [1.5, -0.1]], 0.0)
    with pytest.raises(ValueError, match=r"^epsilon must lie in \[0, 1\), got 1\.0$"):
        oracle_effective_povms([[0.1]], 1.0)
    with pytest.raises(ValueError, match=r"^rates must be a \(B x n\) matrix, got shape \(2,\)$"):
        oracle_effective_povms([0.1, 0.2], 0.0)
    with pytest.raises(ValueError, match=r"^n must be >= 1, got 0$"):
        oracle_effective_povms(np.zeros((2, 0)), 0.0)
    with pytest.raises(ValueError, match=r"^epsilon must be a float or a column of 2 values, "
                                         r"got shape \(1,\)$"):
        oracle_effective_povms([[0.1, 0.2], [0.3, 0.1]], np.array([0.05]))
    with pytest.raises(ValueError, match=r"^epsilon must lie in \[0, 1\), got 1\.0$"):
        oracle_effective_povms([[0.1, 0.2], [0.3, 0.1]], np.array([0.05, 1.0]))


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_effective_povm_checks_each_input_once(n, monkeypatch):
    # the rate matrix once, eps once at entry and once per depolarized CNOT
    checked = []

    def counted(value, name, closed=False):
        checked.append(name)
        return exact(value, name, closed)

    exact = noise._check_fraction
    monkeypatch.setattr(noise, "_check_fraction", counted)
    monkeypatch.setattr(oracle, "_check_fraction", counted)
    oracle_effective_povm([0.1] * n, 0.05, n)
    assert sorted(checked) == ["epsilon"] * n + ["measurement noise fraction"]


def gadget_stack(rng, b, n, eps):
    """b random gadgets of depth n, as one EffectivePovm of (b, 2, 2) stacks."""
    return oracle.EffectivePovm(*oracle_effective_povms(rng.uniform(0.0, 1.0, (b, n)), eps))


@pytest.mark.parametrize("eps", [0.0, 0.05, 0.1, 0.37])
def test_post_state_and_result_stacks_are_the_single_calls(eps, rng):
    for b in range(1, 9):
        n, m = rng.randint(1, 5, 2)
        qa, qb = gadget_stack(rng, b, n, eps), gadget_stack(rng, b, m, eps)
        fs = rng.uniform(0.0, 1.0, b)
        registers = mixed_register(fs)
        assert np.array_equal(bits(registers), bits([mixed_register(float(f)) for f in fs]))
        kets = np.array([filtered_ket(theta) for theta in rng.uniform(0.05, np.pi / 4, b)])
        sigma = oracle_mixed_post_state(registers, qa, qb)
        sigma_p = oracle_pure_post_state(kets, qa)
        assert sigma.shape == (b, 4, 4) and sigma_p.shape == (b, 4, 4)
        for k in range(b):
            one_a, one_b = (oracle.EffectivePovm(q.q0[k], q.q1[k]) for q in (qa, qb))
            assert np.array_equal(sigma[k], oracle_mixed_post_state(registers[k], one_a, one_b))
            assert np.array_equal(sigma_p[k], oracle_pure_post_state(kets[k], one_a))
        for stack in (sigma, sigma_p):
            res = distill_result(stack)
            for k, state in enumerate(stack):
                one = distill_result(state)
                assert isinstance(one.fidelity_out, float) and isinstance(one.p_succ, float)
                assert np.array_equal(res.fidelity_out[k], one.fidelity_out)
                assert np.array_equal(res.p_succ[k], one.p_succ)


def test_post_state_stacks_of_mismatched_lengths_raise(rng):
    qa, qb = gadget_stack(rng, 3, 2, 0.05), gadget_stack(rng, 2, 1, 0.05)
    registers, kets = np.array([mixed_register(0.7)] * 3), np.array([filtered_ket(0.3)] * 2)
    with pytest.raises(ValueError, match=r"^stacks of mismatched lengths \[3, 3, 3, 2, 2\]$"):
        oracle_mixed_post_state(registers, qa, qb)
    with pytest.raises(ValueError, match=r"^stacks of mismatched lengths \[1, 3, 3, 3, 3\]$"):
        oracle_mixed_post_state(mixed_register(0.7), qa, qa)
    with pytest.raises(ValueError, match=r"^stacks of mismatched lengths \[2, 3\]$"):
        oracle_pure_post_state(kets, qa)


def test_schroedinger_and_adjoint_pictures_are_dual(rng):
    # tr[E(A) B] == tr[A E(B)]: the depolarized CNOT is its own adjoint, so
    # the oracle may pull observables back through the same function. A and
    # B are arbitrary complex operators, not only states and observables.
    for nq in (2, 3, 4, 5):
        d = 2 ** nq
        for _ in range(3):
            a = rng.randn(d, d) + 1j * rng.randn(d, d)
            b = rng.randn(d, d) + 1j * rng.randn(d, d)
            control, target = (int(q) for q in rng.choice(nq, 2, replace=False))
            eps = float(rng.uniform(0.0, 1.0))
            lhs = np.trace(depolarized_cnot_apply(a, control, target, eps) @ b)
            rhs = np.trace(a @ depolarized_cnot_apply(b, control, target, eps))
            assert abs(lhs - rhs) < 1e-12 * d * d


def test_effective_povm_predicts_circuit_probabilities(rng):
    # state-side simulation of the gadget reproduces tr[rho Q_x]
    from entdistill.qmat import KET0, projector, tensor

    n, eps = 3, 0.08
    p_list = [0.1, 0.2, 0.05]
    ep = oracle_effective_povm(p_list, eps, n)
    for _ in range(5):
        rho = rand_density_matrix(rng, 1)
        full = tensor(rho, projector(KET0), projector(KET0))
        full = reference.apply_depolarized_cnot_chain(full, [1, 2], control=0, epsilon=eps)
        for outcome, q in ((0, ep.q0), (1, ep.q1)):
            m = tensor(*[noisy_povm_element(outcome, p) for p in p_list])
            prob_circuit = np.trace(full @ m).real
            prob_effective = np.trace(rho @ q).real
            assert abs(prob_circuit - prob_effective) < 1e-12


def test_mixed_oracle_noiseless_examples():
    res = oracle_distill_mixed(0.7, [0.0], [0.0], 0.0)
    assert res.fidelity_out == pytest.approx(25 / 34, abs=1e-12)
    assert res.p_succ == pytest.approx(0.68, abs=1e-12)
    assert oracle_distill_mixed(1.0, [0.0], [0.0], 0.0).fidelity_out == pytest.approx(1.0, abs=1e-12)


def test_mixed_oracle_matches_analytic_map(rng):
    for _ in range(12):
        f = float(rng.uniform(0.26, 0.99))
        n, m = int(rng.randint(1, 4)), int(rng.randint(1, 4))
        p_a = list(rng.uniform(0.02, 0.3, n))
        p_b = list(rng.uniform(0.02, 0.3, m))
        eps = float(rng.choice([0.0, 0.05, 0.1]))
        w = parity_weights(p_a, p_b, eps)
        res = distill_map(f, w)
        orc = oracle_distill_mixed(f, p_a, p_b, eps)
        assert abs(res.fidelity_out - orc.fidelity_out) < TOL
        assert abs(res.p_succ - orc.p_succ) < TOL


def test_mixed_oracle_state_matches_analytic_state(rng):
    for _ in range(8):
        f = float(rng.uniform(0.0, 1.0))
        p_a = list(rng.uniform(0.02, 0.3, 2))
        p_b = list(rng.uniform(0.02, 0.3, 2))
        eps = float(rng.choice([0.0, 0.1]))
        sigma = oracle_mixed_post_state(mixed_register(f), povm(p_a, eps), povm(p_b, eps))
        np.testing.assert_allclose(
            sigma, post_state_unnormalized(f, parity_weights(p_a, p_b, eps)), atol=TOL)


def test_two_twirled_oracle_rounds_match_the_iterated_map_and_the_cli(capsys):
    # distill-mixed --rounds assumes each round's output is twirled back to an
    # isotropic state; the oracle runs that protocol: a round, a twirl, a round.
    f, p_a, p_b, eps = 0.7, [0.1, 0.2], [0.05, 0.15, 0.1], 0.05
    qa, qb = povm(p_a, eps), povm(p_b, eps)
    sigma = oracle_mixed_post_state(mixed_register(f), qa, qb)
    first = distill_result(sigma)
    f2 = singlet_fraction(twirl(sigma / np.trace(sigma).real))
    second = distill_result(oracle_mixed_post_state(mixed_register(f2), qa, qb))

    w = parity_weights(p_a, p_b, eps)
    map1 = distill_map(f, w)
    map2 = distill_map(map1.fidelity_out, w)
    for orc, ref in ((first, map1), (second, map2)):
        assert abs(orc.fidelity_out - ref.fidelity_out) < 1e-12
        assert abs(orc.p_succ - ref.p_succ) < 1e-12

    assert cli.main(["distill-mixed", "--F", "0.7", "--pA", "0.1,0.2", "--pB", "0.05,0.15,0.1",
                     "--epsilon", "0.05", "--rounds", "2"]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert len(rows) == 2
    for row, fin, orc in zip(rows, (f, f2), (first, second)):
        assert row["F"] == f"{fin:.12g}"
        assert row["value"] == f"{orc.fidelity_out:.12g}"
        assert row["p_succ"] == f"{orc.p_succ:.12g}"


def test_direct_register_matches_reduction_six_qubits(rng):
    for eps in (0.0, 0.1):
        f = 0.7
        p_a = list(rng.uniform(0.02, 0.3, 2))
        p_b = list(rng.uniform(0.02, 0.3, 2))
        direct = oracle_mixed_post_state_direct(f, p_a, p_b, eps)
        reduced = oracle_mixed_post_state(mixed_register(f), povm(p_a, eps), povm(p_b, eps))
        np.testing.assert_allclose(direct, reduced, atol=TOL)


def test_direct_register_eight_qubit_check():
    """One-shot full simulation of the n = m = 3 protocol (8 qubits)."""
    f, eps = 0.63, 0.05
    p_a = [0.1, 0.17, 0.06]
    p_b = [0.22, 0.09, 0.13]
    direct = oracle_mixed_post_state_direct(f, p_a, p_b, eps)
    np.testing.assert_allclose(
        direct, post_state_unnormalized(f, parity_weights(p_a, p_b, eps)), atol=TOL)
    res = distill_map(f, parity_weights(p_a, p_b, eps))
    assert np.trace(direct).real == pytest.approx(res.p_succ, abs=TOL)


@pytest.mark.parametrize("eps", [0.0, 0.05])
def test_direct_register_ten_qubit_check(eps):
    """The tables' largest depth, n = m = 4: a 10-qubit circuit."""
    f = 0.71
    p_a = [0.12, 0.05, 0.21, 0.08]
    p_b = [0.03, 0.16, 0.1, 0.27]
    direct = oracle_mixed_post_state_direct(f, p_a, p_b, eps)
    expected = post_state_unnormalized(f, parity_weights(p_a, p_b, eps))
    assert np.abs(direct - expected).max() < TOL


@pytest.mark.parametrize("ancillas", [0, 2, 6])
def test_direct_register_starts_from_the_two_pair_register(ancillas):
    """The bilateral CNOTs on the whole register give mixed_register(f) beside the ancillas."""
    for f in (0.0, 0.37, 0.7, 1.0):
        ancilla_states = [projector(KET0)] * ancillas
        whole = tensor(isotropic(f), isotropic(f), *ancilla_states)
        whole = reference.depolarized_cnot_apply(
            reference.depolarized_cnot_apply(whole, 0, 2, 0.0), 1, 3, 0.0)
        assert np.array_equal(tensor(mixed_register(f), *ancilla_states), whole)


@pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (2, 3), (3, 3), (1, 4), (4, 1), (4, 4)])
@pytest.mark.parametrize("eps", [0.0, 0.05])
def test_direct_register_is_the_kron_built_reference(n, m, eps, rng):
    """Measuring each ancilla right after its CNOT gives the whole kron-built register's state,
    within 8 ulps of its largest entry: the two sum the same terms in different orders."""
    for f in (0.0, float(rng.uniform(0.26, 0.99)), 1.0):
        p_a, p_b = list(rng.uniform(0.02, 0.3, n)), list(rng.uniform(0.02, 0.3, m))
        expected = reference.oracle_mixed_post_state_direct(f, p_a, p_b, eps)
        gap = np.abs(oracle_mixed_post_state_direct(f, p_a, p_b, eps) - expected).max()
        assert gap <= 8 * np.spacing(np.abs(expected).max()), (f, gap)


@pytest.mark.parametrize("n,m", [(8, 8), (16, 16)])
@pytest.mark.parametrize("eps", [0.0, 0.05, 0.1])
def test_direct_register_past_depth_4_is_the_closed_form(n, m, eps, rng):
    """No depth cap: (16, 16) is a 34-qubit circuit, run 5 qubits at a time, within 1e-14 of
    the closed form's largest entry."""
    for f in (0.0, float(rng.uniform(0.26, 0.99)), 1.0):
        p_a, p_b = list(rng.uniform(0.02, 0.3, n)), list(rng.uniform(0.02, 0.3, m))
        expected = post_state_unnormalized(f, parity_weights(p_a, p_b, eps))
        gap = np.abs(oracle_mixed_post_state_direct(f, p_a, p_b, eps) - expected).max()
        assert gap < 1e-14 * np.abs(expected).max(), (f, gap)


def test_direct_register_never_builds_the_whole_register():
    """Each ancilla is measured right after its CNOT, so a call holds two 5-qubit registers,
    never the whole one, at any depth: a (3, 3) call peaks below 512 KiB (the 8-qubit register
    is 1 MiB), a (4, 4) call below 2 MiB (the 10-qubit register is 16 MiB), and a (16, 16)
    call below 512 KiB too."""
    for depth, bound in ((3, 512 * 2 ** 10), (4, 2 * 2 ** 20), (16, 512 * 2 ** 10)):
        p_a, p_b = ([0.1, 0.2, 0.05, 0.07] * 4)[:depth], ([0.12, 0.3, 0.02, 0.2] * 4)[:depth]
        for eps in (0.0, 0.05):
            tracemalloc.start()
            try:
                oracle_mixed_post_state_direct(0.7, p_a, p_b, eps)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, (depth, eps, peak)


@pytest.mark.parametrize("p_a,p_b", [([0.1, 1.5], [0.1]), ([0.1], [0.2, 0.1, 1.5])])
def test_direct_register_checks_its_rates_before_the_circuit(p_a, p_b, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return exact(*args)

    exact = oracle.depolarized_cnot_apply
    monkeypatch.setattr(oracle, "depolarized_cnot_apply", counted)
    with pytest.raises(ValueError,
                       match=r"^measurement noise fraction must lie in \[0, 1\), got 1\.5$"):
        oracle_mixed_post_state_direct(0.7, p_a, p_b, 0.05)
    assert calls == []
    oracle_mixed_post_state_direct(0.7, [0.1], [0.2, 0.1], 0.05)  # the counter sees the calls
    assert calls


@pytest.mark.parametrize("p_a,p_b,side", [([], [0.1], "p_a"), ([0.1, 0.2], [], "p_b"),
                                          ([], [], "p_a")])
def test_direct_register_rejects_an_empty_rate_list(p_a, p_b, side):
    with pytest.raises(ValueError, match=f"^{side} must be nonempty$"):
        oracle_mixed_post_state_direct(0.7, p_a, p_b, 0.1)


def test_filtered_ket_applies_the_filters_controlled_w(rng):
    """filter_ops(theta)'s K0, K1, W and U, bit for bit, against the matrices built from
    tan(theta) with U = |0><0| x I + |1><1| x W as a kron sum; filtered_ket applies that U."""
    for theta in [np.pi / 4, np.pi / 4 - 1e-12, 1e-300, 0.3, *rng.uniform(0.0, np.pi / 4, 200)]:
        theta = float(theta)
        t = np.tan(theta)
        r = np.sqrt(1.0 - t * t)
        w = np.array([[t, -r], [r, t]], dtype=complex)
        expected = {"k0": np.array([[1.0, 0.0], [0.0, t]], dtype=complex),
                    "k1": np.array([[0.0, 0.0], [0.0, r]], dtype=complex),
                    "w": w, "u": np.kron(P0, I2) + np.kron(P1, w)}
        ops = filter_ops(theta)
        for name, matrix in expected.items():
            assert np.array_equal(bits(getattr(ops, name)), bits(matrix)), (theta, name)
        assert not any(np.shares_memory(m, ops.u) for m in (ops.k0, ops.k1, ops.w))
        assert np.array_equal(filtered_ket(theta), (tensor(pure_theta(theta), KET0).reshape(2, 4)
                                                    @ expected["u"].T).reshape(4, 2))
    with pytest.raises(ValueError, match="theta must lie in"):
        filtered_ket(1.0)


def test_pure_oracle_frozen_values():
    assert oracle_distill_pure(np.pi / 16, 0.1, 0.0, 1).fidelity_out == pytest.approx(
        0.805102555847, abs=1e-12)
    assert oracle_distill_pure(np.pi / 16, 0.1, 0.05, 3).fidelity_out == pytest.approx(
        0.923953493492, abs=1e-12)


def test_pure_oracle_boundary_theta():
    assert oracle_distill_pure(np.pi / 4, 0.2, 0.0, 1).fidelity_out == pytest.approx(1.0, abs=1e-9)


def test_pure_oracle_matches_analytic(rng):
    for _ in range(12):
        theta = float(rng.uniform(0.05, np.pi / 4 - 0.01))
        p = float(rng.uniform(0.02, 0.3))
        eps = float(rng.choice([0.0, 0.05, 0.1]))
        n = int(rng.randint(1, 5))
        coeffs = purified_coeffs_gate_noisy(p, eps, n)
        res = pure_filter_fidelity(theta, coeffs)
        orc = oracle_distill_pure(theta, p, eps, n)
        assert abs(res.fidelity_out - orc.fidelity_out) < TOL
        assert abs(res.p_succ - orc.p_succ) < TOL
        np.testing.assert_allclose(
            oracle_pure_post_state(filtered_ket(theta), povm([p] * n, eps)),
            pure_post_state_unnormalized(theta, coeffs), atol=TOL)


def test_pure_direct_register_matches_reduction():
    for (n, eps) in [(2, 0.0), (3, 0.07)]:
        direct = reference.oracle_pure_post_state_direct(0.3, 0.12, eps, n)
        reduced = oracle_pure_post_state(filtered_ket(0.3), povm([0.12] * n, eps))
        np.testing.assert_allclose(direct, reduced, atol=TOL)
