import argparse
import contextlib
import csv
import dataclasses
import io
import json
import shutil
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import reference

from entdistill import cli, distill_mixed, distill_pure, noise
from entdistill.distill_mixed import distill_map, lower_bound, lower_bound_limit, parity_weights
from entdistill.distill_pure import pure_filter_fidelity, pure_filter_fidelity_limit
from entdistill.noise import purified_coeffs_gate_noisy


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_tables_writes_five_csv_files(tmp_path, capsys):
    code, _, err = run_cli(["tables", "--out", str(tmp_path)], capsys)
    assert code == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [
        "lower_bound_gate_noise.csv",
        "lower_bound_p01.csv",
        "lower_bound_p02.csv",
        "pure_fidelity_gate_noise.csv",
        "pure_fidelity_noiseless.csv",
    ]
    assert err.count("wrote") == 5


def test_tables_values_agree_with_library(tmp_path, capsys):
    from entdistill.distill_mixed import lower_bound, parity_weights

    run_cli(["tables", "--out", str(tmp_path)], capsys)
    rows = read_csv(tmp_path / "lower_bound_p02.csv")
    assert len(rows) == 12
    for row in rows:
        n, m = int(row["n"]), int(row["m"])
        expected = lower_bound(parity_weights([0.2] * n, [0.2] * m))
        assert float(row["value"]) == pytest.approx(expected, abs=1e-12)
        assert float(row["value_3dp"]) == pytest.approx(round(expected, 3), abs=1e-12)


def test_tables_reference_cells(tmp_path, capsys):
    run_cli(["tables", "--out", str(tmp_path)], capsys)
    p02 = {(int(r["n"]), int(r["m"])): float(r["value"]) for r in read_csv(tmp_path / "lower_bound_p02.csv")}
    assert p02[(3, 3)] == pytest.approx(0.503, abs=5e-4)
    assert p02[(1, 1)] == pytest.approx(0.781, abs=5e-4)
    fn = {int(r["n"]): float(r["value"]) for r in read_csv(tmp_path / "pure_fidelity_noiseless.csv")}
    assert fn[2] == pytest.approx(0.984, abs=5e-4)


def test_tables_json_format(tmp_path, capsys):
    code, _, _ = run_cli(["tables", "--out", str(tmp_path), "--format", "json"], capsys)
    assert code == 0
    lines = (tmp_path / "lower_bound_p01.json").read_text().splitlines()
    assert len(lines) == 8
    for line in lines:
        rec = json.loads(line)
        assert rec["schema_version"] == 1
        assert rec["quantity"] == "lower_bound"


def test_sweep_deterministic_and_ordered(capsys):
    argv = ["sweep", "--quantity", "lower_bound", "--p", "0.1,0.2", "--n", "1:3", "--m", "1,2"]
    _, out1, _ = run_cli(argv, capsys)
    _, out2, _ = run_cli(argv, capsys)
    assert out1 == out2
    rows = list(csv.DictReader(out1.splitlines()))
    keys = [(float(r["p"]), int(r["n"]), int(r["m"])) for r in rows]
    assert keys == sorted(keys)
    assert len(rows) == 2 * 3 * 2


def test_sweep_diagonal_matches_reference_table(capsys):
    code, out, _ = run_cli(
        ["sweep", "--quantity", "lower_bound", "--p", "0.1", "--n", "1:4", "--m", "1:4"], capsys)
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    diag = {int(r["n"]): float(r["value"]) for r in rows if r["n"] == r["m"]}
    assert diag[1] == pytest.approx(0.617, abs=5e-4)
    assert diag[2] == pytest.approx(0.505570987654, abs=1e-10)
    for exact, n in [(0.617283950617, 1), (0.505570987654, 2), (0.500291672737, 3), (0.500015346956, 4)]:
        assert diag[n] == pytest.approx(exact, abs=1e-9)


def test_sweep_fixed_point_of_map(capsys):
    _, out, _ = run_cli(
        ["sweep", "--quantity", "mixed_fidelity_map", "--p", "0.1", "--n", "2", "--m", "2",
         "--F", "0.25"], capsys)
    row = next(csv.DictReader(out.splitlines()))
    assert float(row["value"]) == pytest.approx(0.25, abs=1e-12)


def test_sweep_pure_limit_value(capsys):
    _, out, _ = run_cli(
        ["sweep", "--quantity", "pure_fidelity_limit", "--p", "0.1", "--epsilon", "0.05",
         "--theta-frac-pi", "0.0625"], capsys)
    row = next(csv.DictReader(out.splitlines()))
    assert float(row["value"]) == pytest.approx(0.924662837649, abs=1e-10)


def test_sweep_het_band_mode_seeded(capsys):
    argv = ["sweep", "--quantity", "mixed_fidelity_map", "--het-band", "0.025", "0.175",
            "--n", "2", "--m", "2", "--F", "0.7", "--draws", "5", "--seed", "11"]
    _, out1, _ = run_cli(argv, capsys)
    _, out2, _ = run_cli(argv, capsys)
    assert out1 == out2
    rows = list(csv.DictReader(out1.splitlines()))
    assert len(rows) == 5
    for row in rows:
        assert float(row["value"]) > 0.7
        rates = [float(x) for x in row["pA"].split(";")]
        assert len(rates) == 2 and all(0.025 < x < 0.175 for x in rates)


#: JSON outputs on the template path (12 rows) and on the columnar path: a
#: 144-row grid, the 4,000-row het sweep of the goldens (an int draw column
#: and rate lists), and 200 rounds (an int round column and rate strings).
ROUND_TRIP_ARGVS = [
    ["sweep", "--quantity", "povm_fidelity", "--p", "0.05:0.2:4", "--n", "1:3"],
    ["sweep", "--quantity", "mixed_fidelity_map", "--p", "0.02,0.1", "--epsilon", "0,0.05",
     "--n", "1:3", "--m", "1:2", "--F", "0.3:0.99:6"],
    ["sweep", "--quantity", "mixed_fidelity_map", "--het-band", "0.025", "0.175",
     "--epsilon", "0.05,0.1", "--seed", "3", "--n", "1:4", "--m", "1:4",
     "--F", "0.55:0.95:25", "--draws", "5"],
    ["distill-mixed", "--F", "0.8", "--pA", "0.1,0.05", "--pB", "0.2", "--epsilon", "0.02",
     "--rounds", "200"],
]


def test_sweep_json_round_trip_idempotent(capsys):
    for argv, rows in zip(ROUND_TRIP_ARGVS, [12, 144, 4000, 200]):
        _, out, _ = run_cli(argv + ["--format", "json"], capsys)
        lines = out.splitlines()
        assert len(lines) == rows
        for line in lines:
            rec = json.loads(line)
            assert rec["schema_version"] == 1
            assert json.dumps(rec, sort_keys=True) == line


SWEEP_USAGE_ERRORS = [
    ["sweep", "--quantity", "lower_bound", "--p", "0.1", "--seed", "3"],  # --seed outside het-band
    ["sweep", "--quantity", "pure_fidelity", "--p", "0.1"],  # missing required axis
    ["sweep", "--quantity", "lower_bound", "--p", "abc"],  # malformed axis
    ["sweep", "--quantity", "nope", "--p", "0.1"],  # unknown quantity
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_lower_bound_sweep_is_the_scalar_calls_bit_for_bit(fmt, capsys):
    """The prefix-recurrence kernel prints each row's scalar lower_bound(parity_weights(...))."""
    code, out, _ = run_cli(["sweep", "--quantity", "lower_bound", "--p", "0.02,0.15",
                            "--epsilon", "0,0.05", "--n", "4,1,3", "--m", "1:4",
                            "--format", fmt], capsys)
    assert code == 0
    rows = ([json.loads(line) for line in out.splitlines()] if fmt == "json"
            else list(csv.DictReader(out.splitlines())))
    cells = list(product([0.02, 0.15], [0.0, 0.05], [4, 1, 3], [1, 2, 3, 4]))
    assert len(rows) == len(cells)
    for row, (p, eps, n, m) in zip(rows, cells):
        expected = lower_bound(parity_weights([p] * n, [p] * m, eps))
        assert (float(row["p"]), float(row["epsilon"]), int(row["n"]), int(row["m"])) == (p, eps, n, m)
        assert row["value"] == (expected if fmt == "json" else f"{expected:.12g}")


def test_sweep_usage_errors(capsys):
    for argv in SWEEP_USAGE_ERRORS:
        assert run_cli(argv, capsys)[0] == 2, argv


def test_verify_passes(capsys):
    # depth 4 and the 8-qubit direct register run through the same kernels
    for argv in (["--max-n", "2", "--draws", "3"], ["--max-n", "4", "--draws", "2"],
                 ["--full", "--draws", "2"]):
        code, out, _ = run_cli(["verify", *argv], capsys)
        assert code == 0, argv
        assert "verification passed" in out
        assert out.count("[ok]") >= 8


def test_verify_full_includes_direct_register(capsys):
    code, out, _ = run_cli(["verify", "--max-n", "2", "--draws", "2", "--full"], capsys)
    assert code == 0
    assert "direct_register" in out


@pytest.mark.parametrize("full", [False, True], ids=["gadget", "full"])
@pytest.mark.parametrize("seed", [0, 7, 2 ** 32 - 1])
def test_verify_equals_the_per_point_reference(seed, full):
    """The stacked oracle evaluation returns the per-point loop's dict, float for float."""
    for max_n, draws in product(range(1, 5), (1, 5)):
        expected = reference.run_verification(max_n=max_n, seed=seed, draws=draws, full=full)
        assert cli.run_verification(max_n=max_n, seed=seed, draws=draws, full=full) == expected


def test_verify_evaluates_the_closed_forms_on_the_oracles_stacks(monkeypatch, capsys):
    """One coefficient call per (eps, depth) stack and one fidelity map per draw.

    ``--max-n 3 --draws 5`` has 3 x 3 stacks and 45 points; point by point the
    closed forms made 180 coefficient calls and 45 map calls. ``parity_weights``
    holds its own name for the coefficients, so both names are spied on.
    """
    coeffs = mock.Mock(wraps=noise.purified_coeffs_general)
    maps = mock.Mock(wraps=distill_mixed.distill_map)
    monkeypatch.setattr(noise, "purified_coeffs_general", coeffs)
    monkeypatch.setattr(distill_mixed, "purified_coeffs_general", coeffs)
    monkeypatch.setattr(distill_mixed, "distill_map", maps)
    code, out, _ = run_cli(["verify", "--max-n", "3", "--draws", "5"], capsys)
    assert code == 0 and "verification passed" in out
    assert coeffs.call_count <= 9
    assert maps.call_count <= 5


#: Keys per row, and the (key, rows) calls that ``cli._stacked`` makes on them, in order.
STACKED_CALLS = {
    "interleaved": (["b", "a", "b", "c", "a", "b"], [("b", [0, 2, 5]), ("a", [1, 4]), ("c", [3])]),
    "eps-depth": ([(0.1, 2), (0.0, 1), (0.1, 2), (0.0, 2)],
                  [((0.1, 2), [0, 2]), ((0.0, 1), [1]), ((0.0, 2), [3])]),
    "single": (["k"] * 4, [("k", [0, 1, 2, 3])]),
}


@pytest.mark.parametrize("keys,calls", STACKED_CALLS.values(), ids=STACKED_CALLS)
def test_stacked_runs_each_key_once_and_returns_row_order(keys, calls):
    """One call per distinct key, in the order the keys first occur, on that key's rows
    in order; each output comes back in row order, with its trailing axes: a value per
    row, a 2 x 2 element per row (verify's gadgets) and a block per row (het's cells)."""
    seen = []

    def evaluate(index, key):
        seen.append((key, list(index)))
        rows = np.array(index, dtype=float)
        return (np.array([hash(key)] * len(index)), rows,
                rows[:, None, None] * np.eye(2) + np.array([[0, 1], [2, 0]]),
                rows[:, None] * 10 + np.arange(3))
    key_hash, row, element, block = cli._stacked(evaluate, keys)
    assert seen == calls
    rows = np.arange(len(keys), dtype=float)
    assert key_hash.tolist() == [hash(key) for key in keys]
    np.testing.assert_array_equal(row, rows)
    np.testing.assert_array_equal(element, rows[:, None, None] * np.eye(2) + [[0, 1], [2, 0]])
    np.testing.assert_array_equal(block, rows[:, None] * 10 + np.arange(3))


#: Each analytic output that verify compares: its module, function and field
#: (None for a returned state matrix), and the verify line it feeds.
CORRUPTIONS = [
    (noise, "purified_coeffs_general", "r0", "povm_coeffs"),
    (distill_mixed, "distill_map", "fidelity_out", "mixed_fidelity"),
    (distill_mixed, "distill_map", "p_succ", "mixed_p_succ"),
    (distill_mixed, "post_state_unnormalized", None, "mixed_state"),
    (distill_pure, "pure_filter_fidelity", "fidelity_out", "pure_fidelity"),
    (distill_pure, "pure_filter_fidelity", "p_succ", "pure_p_succ"),
    (distill_pure, "pure_post_state_unnormalized", None, "pure_state"),
]


# The bias is negative: r0 + 1e-6 can push r0 + r1 past 1, which PurifiedCoeffs rejects.
@pytest.mark.parametrize("corrupt", [lambda x: x - 1e-6, lambda x: x * np.nan],
                         ids=["bias", "nan"])
@pytest.mark.parametrize("module,func,field,line", CORRUPTIONS, ids=[c[3] for c in CORRUPTIONS])
def test_verify_corrupt_hook_fails(module, func, field, line, corrupt, monkeypatch, capsys):
    """A -1e-6 bias or a NaN in one analytic output fails the verify line it feeds.

    The first call stays exact, so a corruption must show in a later call's points:
    every corrupted function runs more than once, per (eps, depth) stack or per draw.
    """
    exact, calls = getattr(module, func), []

    def corrupted(*args, **kwargs):
        res = exact(*args, **kwargs)
        calls.append(res)
        if len(calls) == 1:
            return res
        if field is None:
            return corrupt(res)
        return dataclasses.replace(res, **{field: corrupt(getattr(res, field))})

    monkeypatch.setattr(module, func, corrupted)
    code, out, _ = run_cli(["verify", "--max-n", "1", "--draws", "2"], capsys)
    *checks, summary = out.splitlines()
    status = {text.split()[0]: text.split()[-1] for text in checks}
    assert code == 1 and summary.startswith("verification FAILED")
    assert status[line] == "[FAIL]"


def test_verify_reports_a_broken_invariant_as_a_failure(monkeypatch, capsys):
    """A closed form that the library itself rejects fails verify; no flag is at fault."""
    exact = noise.purified_coeffs_general

    def biased(*args, **kwargs):
        c = exact(*args, **kwargs)
        return dataclasses.replace(c, r0=c.r0 + 1e-6)

    monkeypatch.setattr(noise, "purified_coeffs_general", biased)
    code, out, err = run_cli(["verify", "--max-n", "1", "--draws", "2"], capsys)
    assert (code, err) == (1, "")
    assert out == ("verification FAILED: r0 + r1 = 1.0000010000000001 exceeds 1 "
                   "(tolerance 1e-10, max_n=1, seed=7, draws=2)\n")


SEEDED = [
    ["verify", "--max-n", "1", "--draws", "1"],
    ["sweep", "--quantity", "mixed_fidelity_map", "--het-band", "0.05", "0.1", "--F", "0.7"],
]
BAD_SEEDS = ["-1", "4294967296"]


@pytest.mark.parametrize("seed", BAD_SEEDS)
@pytest.mark.parametrize("argv", SEEDED, ids=["verify", "sweep"])
def test_seed_outside_the_generator_range_is_a_usage_error(argv, seed, capsys):
    code, out, err = run_cli(argv + ["--seed", seed], capsys)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == "entdistill: error: Seed must be between 0 and 2**32 - 1"


def test_distill_mixed_iterated_rounds(capsys):
    code, out, _ = run_cli(
        ["distill-mixed", "--F", "0.7", "--p", "0.1", "--n", "2", "--m", "2", "--rounds", "3"],
        capsys)
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert [int(r["round"]) for r in rows] == [1, 2, 3]
    fids = [float(r["value"]) for r in rows]
    assert fids[0] < fids[1] < fids[2]
    assert float(rows[1]["F"]) == pytest.approx(fids[0], abs=1e-12)


def test_distill_mixed_heterogeneous_rates(capsys):
    code, out, _ = run_cli(
        ["distill-mixed", "--F", "0.7", "--pA", "0.1,0.2", "--pB", "0.05"], capsys)
    assert code == 0
    row = next(csv.DictReader(out.splitlines()))
    assert row["pA"] == "0.1;0.2"
    assert int(row["n"]) == 2 and int(row["m"]) == 1


DISTILL_MIXED_USAGE_ERRORS = [
    ["distill-mixed", "--F", "0.7"],
    ["distill-mixed", "--F", "1.5", "--p", "0.1"],
    ["distill-mixed", "--F", "0.7", "--p", "0.1", "--pA", "0.1", "--pB", "0.1"],
    ["distill-mixed", "--F", "0.7", "--pA", "0.1"],
]


def test_distill_mixed_usage_errors(capsys):
    for argv in DISTILL_MIXED_USAGE_ERRORS:
        assert run_cli(argv, capsys)[0] == 2, argv


def test_distill_pure_theta_conventions_agree(capsys):
    _, out1, _ = run_cli(
        ["distill-pure", "--theta-frac-pi", "0.0625", "--p", "0.1", "--n", "3"], capsys)
    _, out2, _ = run_cli(
        ["distill-pure", "--theta", str(np.pi / 16), "--p", "0.1", "--n", "3"], capsys)
    v1 = float(next(csv.DictReader(out1.splitlines()))["value"])
    v2 = float(next(csv.DictReader(out2.splitlines()))["value"])
    assert v1 == pytest.approx(v2, abs=1e-12)
    assert v1 == pytest.approx(0.999116807665, abs=1e-10)


THETA_USAGE_ERRORS = [
    ["distill-pure", "--p", "0.1"],
    ["distill-pure", "--p", "0.1", "--theta", "0.3", "--theta-frac-pi", "0.1"],
]


def test_distill_pure_requires_exactly_one_theta(capsys):
    for argv in THETA_USAGE_ERRORS:
        assert run_cli(argv, capsys)[0] == 2, argv


def test_povm_purify_record(capsys):
    code, out, _ = run_cli(["povm-purify", "--p", "0.2", "--n", "3"], capsys)
    assert code == 0
    row = next(csv.DictReader(out.splitlines()))
    assert float(row["r0"]) == pytest.approx(0.729, abs=1e-12)
    assert float(row["r1"]) == pytest.approx(0.001, abs=1e-12)
    assert float(row["value"]) == pytest.approx(0.729 / 0.730, abs=1e-12)
    assert float(row["p_succ"]) == pytest.approx(0.730, abs=1e-12)


def test_povm_purify_heterogeneous(capsys):
    code, out, _ = run_cli(["povm-purify", "--pList", "0.05,0.15"], capsys)
    assert code == 0
    row = next(csv.DictReader(out.splitlines()))
    assert float(row["r0"]) == pytest.approx(0.901875, abs=1e-12)
    assert run_cli(["povm-purify"], capsys)[0] == 2


def test_out_file_writing(tmp_path, capsys):
    path = tmp_path / "out.csv"
    code, out, _ = run_cli(
        ["povm-purify", "--p", "0.1", "--n", "2", "--out", str(path)], capsys)
    assert code == 0
    assert out == ""
    text = path.read_text()
    assert text.endswith("\n") and "\r" not in text


@pytest.mark.parametrize("argv", [
    ["tables"],
    ["sweep", "--quantity", "lower_bound", "--p", "0.1"],
    ["distill-mixed", "--F", "0.7", "--p", "0.1"],
    ["distill-pure", "--theta", "0.3", "--p", "0.1"],
    ["povm-purify", "--p", "0.1"],
], ids=lambda argv: argv[0])
def test_out_that_cannot_be_written_exits_1(argv, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = run_cli(argv + ["--out", str(blocker / "x.csv")], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: ")


def _usage_error(argv, flag, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert flag in err


#: Usage errors that name one flag: (argv, flag).
ZERO_ROUNDS = (["distill-mixed", "--F", "0.7", "--p", "0.1", "--rounds", "0"], "--rounds")
NONPOSITIVE_DRAWS = (["sweep", "--quantity", "mixed_fidelity_map", "--het-band", "0.05", "0.1",
                      "--F", "0.7", "--draws", "-3"], "--draws")
INVERTED_HET_BAND = (["sweep", "--quantity", "mixed_fidelity_map", "--het-band", "0.3", "0.1",
                      "--F", "0.7"], "--het-band")
ZERO_VERIFY_DRAWS = (["verify", "--draws", "0"], "--draws")
DEPTH_FLAGS_WITH_RATE_LISTS = [
    (["povm-purify", "--pList", "0.1,0.2", "--n", "5"], "--n"),
    (["distill-mixed", "--F", "0.7", "--pA", "0.1", "--pB", "0.1,0.2", "--n", "4", "--m", "3"],
     "--n"),
    (["distill-mixed", "--F", "0.7", "--pA", "0.1", "--pB", "0.1,0.2", "--m", "2"], "--m"),
]
DEPTHS_BELOW_ONE = [
    (["sweep", "--quantity", "lower_bound", "--p", "0.1", "--n", "0"], "--n"),
    (["sweep", "--quantity", "lower_bound", "--p", "0.1", "--m", "0:2"], "--m"),
    (["distill-mixed", "--F", "0.7", "--p", "0.1", "--n", "0"], "--n"),
    (["distill-mixed", "--F", "0.7", "--p", "0.1", "--m", "-1"], "--m"),
    (["distill-pure", "--theta", "0.3", "--p", "0.1", "--n", "0"], "--n"),
    (["povm-purify", "--p", "0.1", "--n", "0"], "--n"),
]
#: Float ranges with start > stop: (argv, flag).
INVERTED_RANGES = [
    (["sweep", "--quantity", "mixed_fidelity_map", "--p", "0.1", "--F", "0.3:0.1:5"], "--F"),
    (["sweep", "--quantity", "pure_fidelity", "--p", "0.1", "--theta-frac-pi", "0.2:0.1:3"],
     "--theta-frac-pi"),
]
#: Depth ranges with lo > hi: (argv, flag).
INVERTED_DEPTH_RANGES = [
    (["sweep", "--quantity", "povm_fidelity", "--p", "0.1", "--n", "3:1"], "--n"),
    (["sweep", "--quantity", "lower_bound", "--p", "0.1", "--m", "4:2"], "--m"),
]
NON_INTEGER_COUNTS = [
    (["distill-pure", "--theta", "0.1", "--p", "0.1", "--n", "abc"], "--n"),
    (["verify", "--draws", "x"], "--draws"),
    (["distill-mixed", "--F", "0.7", "--p", "0.1", "--rounds", "x"], "--rounds"),
]


def test_distill_mixed_rejects_zero_rounds(capsys):
    _usage_error(*ZERO_ROUNDS, capsys)


def test_sweep_rejects_nonpositive_draws(capsys):
    _usage_error(*NONPOSITIVE_DRAWS, capsys)


DRAWS_OUTSIDE_HET_BAND = [
    ["--quantity", "lower_bound", "--p", "0.1"],
    ["--quantity", "mixed_fidelity_map", "--p", "0.1", "--F", "0.7"],
]
HET_BAND_ONLY_FLAGS = ["--draws", "--seed"]


@pytest.mark.parametrize("flag", HET_BAND_ONLY_FLAGS)
@pytest.mark.parametrize("argv", DRAWS_OUTSIDE_HET_BAND, ids=["lower_bound", "mixed_fidelity_map"])
def test_sweep_rejects_draws_outside_het_band_mode(argv, flag, capsys):
    code, out, err = run_cli(["sweep", *argv, flag, "5"], capsys)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: {flag} only applies in --het-band mode\n")


@pytest.mark.parametrize("argv,flag", DEPTH_FLAGS_WITH_RATE_LISTS)
def test_depth_flags_with_rate_lists_are_rejected(argv, flag, capsys):
    _usage_error(argv, flag, capsys)


def test_sweep_rejects_inverted_het_band(capsys):
    _usage_error(*INVERTED_HET_BAND, capsys)


@pytest.mark.parametrize("argv,flag", DEPTHS_BELOW_ONE)
def test_depths_below_one_are_rejected_by_flag(argv, flag, capsys):
    _usage_error(argv, flag, capsys)


@pytest.mark.parametrize("argv,flag", INVERTED_RANGES)
def test_inverted_float_ranges_name_the_flag_and_the_rule(argv, flag, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == (f"entdistill sweep: error: argument {flag}: inverted range "
                                    f"{argv[-1]!r}: start must be <= stop")


@pytest.mark.parametrize("argv,flag", INVERTED_DEPTH_RANGES)
def test_inverted_depth_ranges_name_the_flag_and_the_rule(argv, flag, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == (f"entdistill sweep: error: argument {flag}: inverted range "
                                    f"{argv[-1]!r}: lo must be <= hi")


@pytest.mark.parametrize("argv,flag", NON_INTEGER_COUNTS)
def test_non_integer_counts_name_the_flag(argv, flag, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].endswith(
        f"error: argument {flag}: expected an integer >= 1, got {argv[-1]!r}")
    assert "_positive_int" not in err


#: A valid argv for each quantity, giving every axis the quantity takes.
TAKES = {
    "povm_fidelity": ["--p", "0.1", "--epsilon", "0.1", "--n", "2"],
    "mixed_fidelity_map": ["--p", "0.1", "--epsilon", "0.1", "--n", "2", "--m", "2",
                           "--F", "0.7"],
    "lower_bound": ["--p", "0.1", "--epsilon", "0.1", "--n", "2", "--m", "2"],
    "lower_bound_limit": ["--p", "0.1", "--epsilon", "0.1"],
    "pure_fidelity": ["--p", "0.1", "--epsilon", "0.1", "--n", "2", "--theta", "0.3"],
    "pure_fidelity_limit": ["--p", "0.1", "--epsilon", "0.1", "--theta", "0.3"],
}
AXIS_VALUES = {"--p": "0.1", "--epsilon": "0.1", "--n": "2", "--m": "2", "--F": "0.7",
               "--theta": "0.3", "--theta-frac-pi": "0.1"}


AXES_NOT_TAKEN = [
    (q, flag) for q, argv in TAKES.items() for flag in AXIS_VALUES
    if flag not in argv and not (flag == "--theta-frac-pi" and "--theta" in argv)]


@pytest.mark.parametrize("quantity,flag", AXES_NOT_TAKEN)
def test_sweep_rejects_axes_the_quantity_does_not_take(quantity, flag, capsys):
    argv = ["sweep", "--quantity", quantity] + TAKES[quantity]
    assert run_cli(argv, capsys)[0] == 0
    code, out, err = run_cli(argv + [flag, AXIS_VALUES[flag]], capsys)
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == f"entdistill: error: quantity {quantity} takes no {flag} axis"


def test_verify_rejects_zero_draws(capsys):
    _usage_error(*ZERO_VERIFY_DRAWS, capsys)


P_AXIS_IN_HET_BAND = ["sweep", "--quantity", "mixed_fidelity_map", "--het-band", "0.05", "0.1",
                      "--p", "0.9", "--F", "0.7", "--draws", "1"]


def test_sweep_rejects_p_axis_in_het_band_mode(capsys):
    code, out, err = run_cli(P_AXIS_IN_HET_BAND, capsys)
    assert code == 2 and out == ""
    assert "--p" in err and "--het-band" in err


MAP = ["sweep", "--quantity", "mixed_fidelity_map"]
HET_BAND_RULE = "--het-band needs 0 <= LO <= HI < 1, got "


DOMAIN_ERRORS = [
    (MAP + ["--het-band", "0.5", "1.5", "--F", "0.7", "--n", "1:2", "--m", "1:2", "--draws", "2",
            "--seed", "1"], HET_BAND_RULE + "0.5 1.5"),
    (MAP + ["--het-band", "0.02", "0.2", "--epsilon", "1", "--F", "0.7", "--draws", "1"],
     "epsilon must lie in [0, 1), got 1.0"),
    (MAP + ["--p", "0.1", "--F", "0.5,1.5"], "input fidelity must lie in [0, 1], got 1.5"),
    (MAP + ["--p", "0.1,1.0", "--F", "0.7"],
     "measurement noise fraction must lie in [0, 1), got 1.0"),
    (MAP + ["--p", "0.1", "--epsilon", "0,1", "--F", "0.7"], "epsilon must lie in [0, 1), got 1.0"),
    (["distill-mixed", "--F", "0.7", "--p", "0.1", "--epsilon", "1"],
     "epsilon must lie in [0, 1), got 1.0"),
    (["distill-pure", "--theta", "0.3", "--p", "1.0"],
     "measurement noise fraction must lie in [0, 1), got 1.0"),
    (["povm-purify", "--p", "0.1", "--epsilon", "1"], "epsilon must lie in [0, 1), got 1.0"),
    # the first row's F fails before the second row's eps is read
    (MAP + ["--p", "0.1", "--epsilon", "0,1", "--F", "1.5"],
     "input fidelity must lie in [0, 1], got 1.5"),
    (["sweep", "--quantity", "lower_bound", "--p", "0.1,1.0", "--n", "1:2", "--m", "1:2"],
     "measurement noise fraction must lie in [0, 1), got 1.0"),
    # the p = 0.1 slab's second point fails on eps before the p = 1.0 slab is read
    (["sweep", "--quantity", "lower_bound", "--p", "0.1,1.0", "--epsilon", "0,1", "--n", "2",
      "--m", "1:3"], "epsilon must lie in [0, 1), got 1.0"),
    # bands outside 0 <= LO <= HI < 1: non-finite, inverted, reaching 1 or below 0
    (MAP + ["--het-band", "0.1", "inf", "--F", "0.6"], HET_BAND_RULE + "0.1 inf"),
    (MAP + ["--het-band", "nan", "0.2", "--F", "0.6"], HET_BAND_RULE + "nan 0.2"),
    (MAP + ["--het-band", "0.1", "nan", "--F", "0.6"], HET_BAND_RULE + "0.1 nan"),
    (INVERTED_HET_BAND[0], HET_BAND_RULE + "0.3 0.1"),
    # the band is checked before any draw: whether a draw reaches 1 depends on the seed
    *((MAP + ["--het-band", "0.9", "1.05", "--F", "0.7", "--draws", "2", "--seed", str(seed)],
       HET_BAND_RULE + "0.9 1.05") for seed in range(6)),
    (MAP + ["--het-band", "-0.001", "0.2", "--F", "0.7"], HET_BAND_RULE + "-0.001 0.2"),
    (MAP + ["--het-band", "0.5", "1", "--F", "0.7"], HET_BAND_RULE + "0.5 1.0"),
    (MAP + ["--het-band", "0.02", "0.2", "--F", "0.7,1.2"],
     "input fidelity must lie in [0, 1], got 1.2"),
    # the eps = 0.05 slab is valid; the eps = 1 slab fails after its rates are drawn
    (MAP + ["--het-band", "0.02", "0.2", "--epsilon", "0.05,1", "--F", "0.7", "--n", "1:2",
            "--m", "1:2", "--draws", "3"], "epsilon must lie in [0, 1), got 1.0"),
]


@pytest.mark.parametrize("argv,message", DOMAIN_ERRORS)
def test_sweep_domain_errors_leave_no_output(argv, message, tmp_path, capsys):
    """A value the library or the CLI rejects, in a sweep or a single-point command, writes nothing."""
    path = tmp_path / "out.csv"
    code, out, err = run_cli(argv + ["--out", str(path)], capsys)
    assert code == 2 and out == ""
    assert not path.exists()
    assert err.splitlines()[-1] == f"entdistill: error: {message}"


#: Valid --het-band bands: LO = HI and LO = 0 included.
HET_BANDS = st.one_of(
    st.floats(0, 1, exclude_max=True).flatmap(
        lambda lo: st.tuples(st.just(lo), st.just(lo) | st.floats(lo, 1, exclude_max=True))),
    st.tuples(st.just(0.0), st.floats(0, 1, exclude_max=True)))


def _axis(values) -> str:
    return ",".join(map(repr, values))


# No shrink phase: each example builds up to 960 rows twice, and shrinking a
# failure ran for minutes; the unshrunk falsifying example is still reported.
@settings(max_examples=60, deadline=None, phases=[p for p in Phase if p is not Phase.shrink])
@given(band=HET_BANDS, eps=st.lists(st.floats(0, 1, exclude_max=True), min_size=1, max_size=3),
       n=st.lists(st.integers(1, 4), min_size=1, max_size=4),
       m=st.lists(st.integers(1, 4), min_size=1, max_size=4),
       fs=st.lists(st.floats(0, 1), min_size=1, max_size=4), draws=st.integers(1, 5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_het_band_sweep_is_the_per_cell_reference(band, eps, n, m, fs, draws, seed):
    """Het mode as a _grid kernel writes the bytes of the per-cell loop, in CSV and JSON."""
    args = cli.build_parser().parse_args(
        [*MAP, "--het-band", *map(repr, band), "--epsilon", _axis(eps), "--n", _axis(n),
         "--m", _axis(m), "--F", _axis(fs), "--draws", str(draws), "--seed", str(seed)])
    expected = reference.het_records(args, {"epsilon": eps, "n": n, "m": m, "F": fs})
    records = cli._sweep_records(args)
    for fmt in ("csv", "json"):
        got, want = io.StringIO(), io.StringIO()
        cli.emit_records(records, fmt, got)
        cli.emit_records(expected, fmt, want)
        assert got.getvalue() == want.getvalue()


#: A valid call of each command that writes output; with ``--out ''`` each is a usage error.
EMPTY_OUT = [["tables"], ["sweep", "--quantity", "lower_bound", "--p", "0.1"],
             ["distill-mixed", "--F", "0.7", "--p", "0.1"],
             ["distill-pure", "--theta", "0.3", "--p", "0.1"], ["povm-purify", "--p", "0.1"]]


@pytest.mark.parametrize("argv", EMPTY_OUT, ids=lambda argv: argv[0])
def test_empty_out_is_a_usage_error_that_writes_nothing(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli([*argv, "--out", ""], capsys)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == "entdistill: error: --out is empty: name a path, or '-'"
    assert list(tmp_path.iterdir()) == []


#: ``tables`` writes five files, so ``--out -`` (stdout elsewhere) names no directory.
TABLES_TO_STDOUT = ["tables", "--out", "-"]


def test_tables_to_stdout_is_a_usage_error_that_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(TABLES_TO_STDOUT, capsys)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == ("entdistill: error: tables writes five files: "
                                    "--out must name a directory, not '-'")
    assert list(tmp_path.iterdir()) == []


#: Every usage error exercised above, gathered in one list.
USAGE_ERRORS = [
    *SWEEP_USAGE_ERRORS,
    *(argv + ["--seed", seed] for argv in SEEDED for seed in BAD_SEEDS),
    *DISTILL_MIXED_USAGE_ERRORS,
    *THETA_USAGE_ERRORS,
    ["povm-purify"],
    *(argv for argv, _ in [ZERO_ROUNDS, NONPOSITIVE_DRAWS, INVERTED_HET_BAND, ZERO_VERIFY_DRAWS,
                           *DEPTH_FLAGS_WITH_RATE_LISTS, *DEPTHS_BELOW_ONE, *INVERTED_RANGES,
                           *INVERTED_DEPTH_RANGES, *NON_INTEGER_COUNTS]),
    *(["sweep", *argv, flag, "5"] for argv in DRAWS_OUTSIDE_HET_BAND
      for flag in HET_BAND_ONLY_FLAGS),
    *(["sweep", "--quantity", q, *TAKES[q], flag, AXIS_VALUES[flag]] for q, flag in AXES_NOT_TAKEN),
    P_AXIS_IN_HET_BAND,
    *(argv for argv, _ in DOMAIN_ERRORS),
    *(argv + ["--out", ""] for argv in EMPTY_OUT),
    TABLES_TO_STDOUT,
]
#: Help, no arguments, an unknown command and an unrecognized trailing flag.
PARSER_ONLY = [["-h"], *([name, "-h"] for name in cli.COMMANDS), [], ["bogus"],
               ["povm-purify", "--p", "0.1", "--bogus"]]


#: Valid calls: a mutually exclusive group, axes, defaults.
VALID = [["povm-purify", "--p", "0.1", "--n", "2", "--format", "json"],
         [*MAP, "--p", "0.1", "--F", "0.7,0.8"],
         ["distill-pure", "--theta", "0.3", "--p", "0.1"]]


def run_full_parser(argv, capsys):
    """What main gives when one full parser parses ``argv`` and reports every error."""
    parser = cli.build_parser()
    try:
        args = parser.parse_args(argv)
        try:
            code = args.run(args)
        except ValueError as exc:
            parser.error(str(exc))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("columns", ["40", "80"])
def test_narrowed_parser_prints_what_the_full_parser_prints(columns, monkeypatch, capsys):
    """main parses through the argument table or argparse; stdout, stderr and exit code
    stay the full parser's."""
    monkeypatch.setenv("COLUMNS", columns)
    argvs = USAGE_ERRORS + PARSER_ONLY + VALID
    narrowed = [run_cli(argv, capsys) for argv in argvs]
    full = [run_full_parser(argv, capsys) for argv in argvs]
    assert all(code == 2 for code, _, _ in full[:len(USAGE_ERRORS)])
    assert all(code == 0 for code, _, _ in full[-len(VALID):])
    assert narrowed == full


@pytest.mark.parametrize("argv", VALID, ids=lambda argv: argv[0])
def test_command_parser_gives_the_full_parsers_namespace(argv, monkeypatch):
    """The Namespace that a command runs with is the full parser's."""
    seen = []
    monkeypatch.setattr(cli, "cmd_" + argv[0].replace("-", "_"), seen.append)
    cli.main(argv)
    assert vars(seen[0]) == vars(cli.build_parser().parse_args(argv))


def test_main_builds_the_full_parser_only_off_the_table(monkeypatch, capsys):
    """A valid call constructs no parser. Help, a usage error, a '--flag=value' form, a
    table-parsed call's ValueError and an argparse-parsed call's ValueError each construct
    the full parser once, with every subparser. No parser is kept between calls."""
    added, built = [], []
    add_parser, init = argparse._SubParsersAction.add_parser, argparse.ArgumentParser.__init__

    def spy_add(self, name, **kwargs):
        added.append(name)
        return add_parser(self, name, **kwargs)

    def spy_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy_add)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy_init)
    full = ["entdistill", *(f"entdistill {name}" for name in cli.COMMANDS)]
    equals = [["povm-purify", "--p=0.1"], ["sweep", "--quantity=povm_fidelity", "--p", "0.1"],
              ["povm-purify", "--p=1"]]
    assert cli._parse_table(DISTILL_MIXED_USAGE_ERRORS[0]) is not None
    assert cli._parse_table(["povm-purify", "--p=1"]) is None
    for argv, want in [*((argv, []) for argv in VALID),
                       *(([name, "-h"], full) for name in cli.COMMANDS),
                       *((argv, full) for argv in ([], ["-h"], ["bogus"], ZERO_ROUNDS[0],
                                                   *equals, DISTILL_MIXED_USAGE_ERRORS[0]))]:
        for _ in range(2):
            added.clear()
            built.clear()
            cli.main(argv)
            capsys.readouterr()
            assert built == want, argv
            assert added == (list(cli.COMMANDS) if want else []), argv


@pytest.mark.parametrize("argv", [
    ["tables"], ["sweep", "--quantity", "lower_bound"], ["verify"], ["distill-mixed", "--F", "0.7"],
    ["distill-pure", "--theta", "0.3", "--p", "0.1"], ["povm-purify", "--p", "0.1"],
], ids=lambda argv: argv[0])
def test_main_runs_the_module_binding_of_the_command(argv, monkeypatch):
    """A wrapper put on ``cli.cmd_*`` runs, as bench/tracing.py's span wrappers must."""
    name = "cmd_" + argv[0].replace("-", "_")
    monkeypatch.setattr(cli, name, lambda args: 7)
    assert cli.main(argv) == 7


#: Values drawn for a flag of each type, or with choices its choices, most of the time.
TABLE_VALID = {float: ["0.1", "0.7", "nan", "1e-3"], int: ["3", "4294967295"],
               cli._float_axis: ["0.1", "0:0.1:3", "0.1,0.2"],
               cli._frac_pi_axis: ["0.1", "0:0.2:3"], cli._depth_axis: ["2", "1:4"],
               cli._positive_int: ["1", "3"], cli._rates: ["0.1,0.2", "0.3"],
               None: ["out.csv", "-"]}
#: Values drawn for any flag otherwise: valid elsewhere, negatives, '-', '', NaN, garbage
#: and flag names.
TABLE_OTHER = ["2", "1:4", "csv", "lower_bound", "-0.1", "-1", "-", "", "nan", "abc", "2:1", "0",
               "--p", "--n", "-h"]


@st.composite
def command_tokens(draw, command):
    """Tokens after ``command``: mostly its required flags and one flag of each required
    group, then a few of its other flags, and at times one flag again, so repeated and
    conflicting flags come up. A flag is mostly exact and given its number of values,
    mostly valid ones; otherwise an abbreviation, a '--flag=value' form, or given a
    value too many or too few."""
    specs = cli.FLAGS[command]
    required = [flag for flag, keywords in specs.items() if keywords.get("required")]
    # a required group: one of its flags
    required += [draw(st.sampled_from(group)) for is_required, group in cli.GROUPS[command]
                 if is_required]
    flags = [flag for flag in required if draw(st.integers(0, 9))]
    others = [flag for flag in draw(st.permutations(list(specs))) if flag not in flags]
    flags += others[:draw(st.integers(0, 4))]
    if draw(st.integers(0, 3)) == 0:
        flags.append(draw(st.sampled_from(list(specs))))
    tokens = []
    for flag in flags:
        keywords = specs[flag]
        valid = [str(c) for c in keywords["choices"]] if "choices" in keywords else (
            TABLE_VALID[keywords.get("type")])
        value = st.sampled_from(TABLE_OTHER if draw(st.integers(0, 5)) == 0 else valid)
        count = 0 if "action" in keywords else keywords.get("nargs", 1)
        form = draw(st.sampled_from(["exact"] * 8 + ["abbreviation"] * 2 + ["equals", "count"]))
        if form == "equals":
            tokens.append(f"{flag}={draw(value)}")
            continue
        if form == "abbreviation" and len(flag) > 3:
            flag = flag[:draw(st.integers(3, len(flag) - 1))]
        if form == "count":
            count = draw(st.integers(0, 2))
        tokens += [flag, *(draw(value) for _ in range(count))]
    return tokens


def _same(a, b) -> bool:
    """a == b, of one type, NaN equal to NaN, lists elementwise."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_same, a, b))
    return type(a) is type(b) and (a == b or a != a and b != b)


@pytest.mark.parametrize("command", list(cli.COMMANDS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_table_parser_gives_argparses_namespace_or_none(command, data):
    """The table parser returns None or the full parser's Namespace, and None wherever
    the full parser exits."""
    argv = [command, *data.draw(command_tokens(command))]
    table = cli._parse_table(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            full = vars(cli.build_parser().parse_args(argv))
    except SystemExit:
        assert table is None, argv
        return
    if table is not None:
        assert vars(table).keys() == full.keys(), argv
        assert all(_same(vars(table)[k], v) for k, v in full.items()), argv


#: Argvs that argparse parses otherwise than exactly or rejects: an ambiguous and a unique
#: abbreviation, '--flag=value', a value outside the choices, a conflict in an exclusive
#: group, a missing required group, an option-like value, a negative number, a repeated
#: flag, a value after a store_true flag, one value of two, a missing required flag.
TABLE_LEAVES_TO_ARGPARSE = [
    ["distill-pure", "--th", "0.3", "--p", "0.1"], ["povm-purify", "--eps", "0.1", "--p", "0.1"],
    ["povm-purify", "--p=0.1"], ["povm-purify", "--p", "0.1", "--format", "xml"],
    ["povm-purify", "--p", "0.1", "--pList", "0.1"], ["povm-purify", "--n", "2"],
    ["povm-purify", "--out", "-h", "--p", "0.1"], ["povm-purify", "--p", "-0.1"],
    ["povm-purify", "--p", "0.1", "--p", "0.2"], ["verify", "--full", "1"],
    ["sweep", "--quantity", "lower_bound", "--het-band", "0.1"], ["distill-mixed", "--p", "0.1"],
]


@pytest.mark.parametrize("argv", TABLE_LEAVES_TO_ARGPARSE, ids=" ".join)
def test_table_parser_leaves_other_argvs_to_argparse(argv):
    assert cli._parse_table(argv) is None


def _reference_emit(rows, fmt):
    """Row-by-row formatting, one dict per row: the bytes the table emitter must give."""
    def text(value):
        if isinstance(value, list):  # a rate list: one ';'-separated field
            return ";".join(f"{v:.12g}" for v in value)
        return f"{value:.12g}" if isinstance(value, float) else str(value)

    if fmt == "json":
        return "".join(json.dumps({**{k: text(v) if isinstance(v, list) else v
                                      for k, v in row.items()}, "schema_version": 1},
                                  sort_keys=True) + "\n" for row in rows)
    fields = [f for f in cli.FIELD_ORDER if any(f in row for row in rows)]
    return ",".join(fields) + "\n" + "".join(
        ",".join(text(row[f]) if f in row else "" for f in fields) + "\n" for row in rows)


FLOAT_FIELDS = ["p", "epsilon", "F", "theta", "r0", "r1", "value", "value_3dp", "p_succ"]
INT_FIELDS = ["n", "m", "draw", "round"]
# numpy string arrays drop trailing NUL characters, which no field carries.
TEXT = st.text(alphabet=st.characters(blacklist_characters="\x00"), max_size=6)


@st.composite
def tables(draw):
    """A table over random fields, each a constant, a column or a coded axis, with a
    rate-list column of mixed widths; or constants alone, one row. Also its rows."""
    rows = draw(st.integers(1, 6))
    fields = draw(st.lists(st.sampled_from(FLOAT_FIELDS + INT_FIELDS + ["quantity"]),
                           unique=True, min_size=1))
    one_row = draw(st.booleans())
    constants, columns, lists = {}, {}, {}
    for f in fields:
        value = (st.floats() if f in FLOAT_FIELDS else
                 st.integers(-2 ** 63, 2 ** 63 - 1) if f in INT_FIELDS else TEXT)
        how = "constant" if one_row else draw(st.sampled_from(["constant", "column", "coded"]))
        if how == "constant":
            constants[f] = draw(value)
        elif how == "column":
            columns[f] = np.array(draw(st.lists(value, min_size=rows, max_size=rows)))
            lists[f] = columns[f].tolist()
        else:
            values = np.array(draw(st.lists(value, min_size=1, max_size=3)))
            codes = np.array(draw(st.lists(st.integers(0, len(values) - 1), min_size=rows,
                                           max_size=rows)), np.uint8)
            columns[f], lists[f] = (values, codes), [values[c].item() for c in codes]
    if not one_row:
        rates = [draw(st.lists(st.floats(0, 1, exclude_max=True), min_size=1, max_size=3))
                 for _ in range(rows)]
        columns["pA"] = np.array([r + [np.nan] * (3 - len(r)) for r in rates])
        lists["pA"] = rates
    records = cli.Records(constants, columns)
    return records, [{**constants, **{f: v[i] for f, v in lists.items()}}
                     for i in range(rows if lists else 1)]


@settings(max_examples=150, deadline=None)
@given(tables(), st.sampled_from(["csv", "json"]), st.integers(1, 6), st.integers(1, 4))
def test_chunked_emit_matches_row_by_row_formatting(table, fmt, min_rows, cap):
    """A table emitted in batches of at most ``cap`` rows from ``min_rows`` rows on, or
    through one template below, is its rows formatted one by one."""
    records, rows = table
    buf = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "COLUMNAR_MIN_ROWS", min_rows)
        mp.setattr(cli, "BATCH_ROWS", cap)
        cli.emit_records(records, fmt, buf)
    assert len(records) == len(rows)
    assert buf.getvalue() == _reference_emit(rows, fmt)


#: Sweeps whose eps axis repeats a value and holds -0.0 and 0.0, below and above the
#: crossover, and the eps that each of their rows prints.
SIGNED_ZEROS = {
    "povm_fidelity": (["sweep", "--quantity", "povm_fidelity", "--p", "0.1",
                       "--epsilon=-0.0,0,-0.0"], [-0.0, 0.0, -0.0]),
    "mixed_fidelity_map": ([*MAP, "--p", "0.1", "--epsilon=-0.0,0", "--F", "0.5:0.99:64"],
                           [-0.0] * 64 + [0.0] * 64),
}


@pytest.mark.parametrize("argv,eps", SIGNED_ZEROS.values(), ids=SIGNED_ZEROS)
def test_signed_zeros_print_as_given(argv, eps, capsys):
    """An axis's -0.0 and 0.0 stay apart, as columns and as codes: each row prints its
    own, '-0' or '0' in CSV and -0.0 or 0.0 in JSON."""
    assert (len(eps) < cli.COLUMNAR_MIN_ROWS) == (argv[2] == "povm_fidelity")
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert [row["epsilon"] for row in csv.DictReader(io.StringIO(out))] == [
        "%.12g" % e for e in eps]
    code, out, _ = run_cli(argv + ["--format", "json"], capsys)
    assert code == 0
    assert [repr(json.loads(line)["epsilon"]) for line in out.splitlines()] == list(map(repr, eps))


def _povm_fidelity(p, epsilon, n):
    c = purified_coeffs_gate_noisy(p, epsilon, n)
    return {"value": c.fidelity, "p_succ": c.acceptance}


def _mixed_fidelity_map(p, epsilon, n, m, F):
    res = distill_map(F, parity_weights([p] * n, [p] * m, epsilon))
    return {"value": res.fidelity_out, "p_succ": res.p_succ}


def _pure_fidelity(p, epsilon, n, theta):
    res = pure_filter_fidelity(theta, purified_coeffs_gate_noisy(p, epsilon, n))
    return {"value": res.fidelity_out, "p_succ": res.p_succ}


RATE = st.floats(0.0, 0.9).map(abs)  # abs: no -0.0, which argparse reads as a flag
DEPTH = st.integers(1, 4)
#: Per quantity: (sweep flag, field, values) of each axis in row order, and
#: the scalar closed form of one row.
CLOSED_FORMS = {
    "povm_fidelity": ([("--p", "p", RATE), ("--epsilon", "epsilon", RATE), ("--n", "n", DEPTH)],
                      _povm_fidelity),
    "mixed_fidelity_map": ([("--p", "p", RATE), ("--epsilon", "epsilon", RATE),
                            ("--n", "n", DEPTH), ("--m", "m", DEPTH),
                            ("--F", "F", st.floats(0.0, 1.0).map(abs))], _mixed_fidelity_map),
    "lower_bound": ([("--p", "p", RATE), ("--epsilon", "epsilon", RATE), ("--n", "n", DEPTH),
                     ("--m", "m", DEPTH)],
                    lambda p, epsilon, n, m: {
                        "value": lower_bound(parity_weights([p] * n, [p] * m, epsilon))}),
    "lower_bound_limit": ([("--p", "p", RATE), ("--epsilon", "epsilon", st.floats(1e-9, 0.9))],
                          lambda p, epsilon: {"value": lower_bound_limit(p, epsilon)}),
    "pure_fidelity": ([("--p", "p", RATE), ("--epsilon", "epsilon", RATE), ("--n", "n", DEPTH),
                       ("--theta", "theta", st.floats(1e-3, np.pi / 4))], _pure_fidelity),
    "pure_fidelity_limit": ([("--p", "p", RATE), ("--epsilon", "epsilon", st.floats(1e-9, 0.9)),
                             ("--theta", "theta", st.floats(1e-3, np.pi / 4 - 1e-3))],
                            lambda p, epsilon, theta: {
                                "value": pure_filter_fidelity_limit(theta, p, epsilon)}),
}


@pytest.mark.parametrize("quantity", list(CLOSED_FORMS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sweep_rows_equal_the_scalar_closed_forms(quantity, data):
    """Row order, table layout and every value's last bit, for every quantity."""
    axes, closed_form = CLOSED_FORMS[quantity]
    values = [data.draw(st.lists(elements, min_size=1, max_size=3), label=flag)
              for flag, _, elements in axes]
    argv = ["sweep", "--quantity", quantity]
    for (flag, _, _), axis in zip(axes, values):
        argv += [flag, ",".join(map(repr, axis))]
    rows = [{"quantity": quantity, **dict(zip((f for _, f, _ in axes), point)),
             **closed_form(*point)} for point in product(*values)]
    for fmt in ("csv", "json"):
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            assert cli.main(argv + ["--format", fmt]) == 0
        assert buf.getvalue() == _reference_emit(rows, fmt)


#: Per quantity with a depth axis: sweep flags, in axis order, with unsorted and
#: repeated depths up to 7 and several (p, eps) per slab.
DEEP_SWEEPS = {
    "mixed_fidelity_map": {"--p": "0.02,0.3,0.9", "--epsilon": "0:0.3:4", "--n": "7,1,3",
                           "--m": "1:7", "--F": "0:1:11"},
    "povm_fidelity": {"--p": "0.02,0.3,0.9", "--epsilon": "0:0.3:4", "--n": "7,1,3,1,5"},
    "pure_fidelity": {"--p": "0.02,0.3,0.9", "--epsilon": "0:0.3:4", "--n": "7,1,3,1,5",
                      "--theta": "0.3,0.05,0.7"},
    "lower_bound": {"--p": "0.02,0.3,0.9", "--epsilon": "0:0.3:4", "--n": "7,1,3,1",
                    "--m": "2,7,1,2,6"},
}


def test_map_grid_rows_equal_the_scalar_calls_beyond_depth_four():
    """Unsorted and repeated depths up to 7, F = 0 and F = 1, several (p, eps) per slab,
    for every quantity with a depth axis."""
    parse = {"--n": cli._depth_axis, "--m": cli._depth_axis}
    for quantity, flags in DEEP_SWEEPS.items():
        axes, closed_form = CLOSED_FORMS[quantity]
        assert list(flags) == [flag for flag, _, _ in axes]
        values = [parse.get(flag, cli._float_axis)(spec) for flag, spec in flags.items()]
        rows = [{"quantity": quantity, **dict(zip((f for _, f, _ in axes), point)),
                 **closed_form(*point)} for point in product(*values)]
        argv = ["sweep", "--quantity", quantity, *(x for kv in flags.items() for x in kv)]
        for fmt in ("csv", "json"):
            with contextlib.redirect_stdout(io.StringIO()) as buf:
                assert cli.main(argv + ["--format", fmt]) == 0
            assert buf.getvalue() == _reference_emit(rows, fmt)
        # JSON prints repr, so the values parse back to the scalar calls' bits
        outputs = [f for f in ("value", "p_succ") if f in rows[0]]
        records = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert [[r[f] for f in outputs] for r in records] == [[row[f] for f in outputs]
                                                               for row in rows]


@settings(max_examples=150, deadline=None)
@given(st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 1.0, exclude_max=True),
       st.integers(1, 8), st.floats(0.0, np.pi / 4, exclude_min=True, exclude_max=True))
def test_one_cell_calls_print_the_scalar_calls(p, eps, n, theta):
    """A distill-pure and a povm-purify --p --n call print the scalar closed forms' values,
    '%.12g' in CSV and repr in JSON; where the scalar filter fails, the call is a usage error."""
    c = noise.purified_coeffs_general([p] * n, eps)
    rows = {"povm-purify": {"quantity": "povm_fidelity", "p": p, "epsilon": eps, "n": n,
                            "r0": c.r0, "r1": c.r1, "value": c.fidelity, "p_succ": c.acceptance}}
    try:
        res = pure_filter_fidelity(theta, purified_coeffs_gate_noisy(p, eps, n))
        rows["distill-pure"] = {"quantity": "pure_fidelity", "p": p, "epsilon": eps, "n": n,
                                "theta": theta, "value": res.fidelity_out, "p_succ": res.p_succ}
    except ValueError:  # 2 sin^2(theta) underflows to 0 where r1 = 0
        rows["distill-pure"] = None
    for command, row in rows.items():
        tail = ["--theta", repr(theta)] if command == "distill-pure" else []
        for fmt in ("csv", "json"):
            argv = [command, "--p", repr(p), "--epsilon", repr(eps), "--n", str(n), *tail,
                    "--format", fmt]
            with contextlib.redirect_stdout(io.StringIO()) as buf, \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            assert (code, buf.getvalue()) == ((0, _reference_emit([row], fmt)) if row else (2, ""))


#: Rates in [0, 1), with values within 1e-15 to 1e-1 of 1.
RATE_NEAR_ONE = st.floats(0.0, 1.0, exclude_max=True).map(abs) | st.floats(1e-15, 1e-1).map(
    lambda d: 1.0 - d)


@settings(max_examples=150, deadline=None)
@given(RATE_NEAR_ONE, st.floats(0.0, 1.0, exclude_max=True).map(abs), st.integers(1, 8),
       st.integers(1, 8), st.floats(0.0, 1.0).map(abs))
def test_distill_mixed_prints_the_one_point_sweep(p, eps, n, m, f):
    """One distill-mixed round and the one-point mixed_fidelity_map sweep, which compute
    through parity_weights and through prefix tables, both exit 2 or print the same F,
    epsilon, n, m, value and p_succ, in CSV and in JSON."""
    point = ["--p", repr(p), "--epsilon", repr(eps), "--n", str(n), "--m", str(m), "--F", repr(f)]
    fields = ["F", "epsilon", "n", "m", "value", "p_succ"]
    for fmt in ("csv", "json"):
        printed = []
        for argv in (["distill-mixed", *point], [*MAP, *point]):
            with contextlib.redirect_stdout(io.StringIO()) as buf, \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([*argv, "--format", fmt])
            out = buf.getvalue()
            rows = (list(csv.DictReader(io.StringIO(out))) if fmt == "csv"
                    else [json.loads(line) for line in out.splitlines()])
            printed.append((code, [[row[field] for field in fields] for row in rows]))
        assert printed[0] == printed[1]
        assert printed[0][0] == 2 or len(printed[0][1]) == 1


def assert_one_prefix_table_per_p_and_eps(argv, rows, tables, monkeypatch):
    """argv prints ``rows`` rows, reading exactly the prefix ``tables``, (p, eps, depth)
    in order, and never a per-row coefficient call."""
    calls = {name: mock.Mock(wraps=getattr(noise, name)) for name in
             ("purified_coeffs_prefixes", "purified_coeffs_gate_noisy", "purified_coeffs_general")}
    for name, counter in calls.items():
        monkeypatch.setattr(cli.noise, name, counter)
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        assert cli.main(argv) == 0
    assert len(buf.getvalue().splitlines()) == 1 + rows
    assert {name: [c.args for c in counter.call_args_list] for name, counter in calls.items()} == {
        "purified_coeffs_prefixes": tables,
        "purified_coeffs_gate_noisy": [], "purified_coeffs_general": []}


@pytest.mark.parametrize("quantity,tail", [("povm_fidelity", []),
                                           ("pure_fidelity", ["--theta", "0.3"])])
def test_depth_sweeps_run_one_recurrence_per_p_and_eps(quantity, tail, monkeypatch):
    """A sweep over --n 1:200 reads one prefix table per (p, eps), and no per-row call."""
    argv = ["sweep", "--quantity", quantity, "--p", "0.1", "--epsilon", "0,0.05", "--n", "1:200"]
    assert_one_prefix_table_per_p_and_eps(argv + tail, 2 * 200,
                                          [(0.1, 0.0, 200), (0.1, 0.05, 200)], monkeypatch)


#: Per depth quantity not above, and a one-cell distill-pure call: argv, rows, and the
#: prefix tables that it reads, (p, eps, largest depth) in row order.
ONE_TABLE_PER_P_AND_EPS = {
    "lower_bound": (["sweep", "--quantity", "lower_bound", "--p", "0.1,0.2", "--epsilon", "0,0.05",
                     "--n", "1:20", "--m", "1:20"], 2 * 2 * 20 * 20,
                    [(p, eps, 20) for p in (0.1, 0.2) for eps in (0.0, 0.05)]),
    "mixed_fidelity_map": ([*MAP, "--p", "0.1", "--epsilon", "0,0.05", "--n", "1:20",
                            "--m", "3,9", "--F", "0.6,0.9"], 2 * 20 * 2 * 2,
                           [(0.1, 0.0, 20), (0.1, 0.05, 20)]),
    "distill-pure": (["distill-pure", "--p", "0.1", "--epsilon", "0.05", "--n", "3",
                      "--theta", "0.3"], 1, [(0.1, 0.05, 3)]),
}


@pytest.mark.parametrize("argv,rows,tables", ONE_TABLE_PER_P_AND_EPS.values(),
                         ids=ONE_TABLE_PER_P_AND_EPS)
def test_every_depth_quantity_reads_one_prefix_table_per_p_and_eps(argv, rows, tables,
                                                                    monkeypatch):
    assert_one_prefix_table_per_p_and_eps(argv, rows, tables, monkeypatch)


def test_valid_calls_never_read_the_terminal_width(monkeypatch, capsys):
    """A valid call builds no parser and never reads the terminal width; a help call
    reads it, through argparse's own formatters."""
    reads = []
    get_terminal_size = shutil.get_terminal_size

    def spy(*args, **kwargs):
        reads.append(args)
        return get_terminal_size(*args, **kwargs)

    monkeypatch.setattr(shutil, "get_terminal_size", spy)
    for argv in VALID:
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert reads == []
    assert cli.main(["povm-purify", "-h"]) == 0
    capsys.readouterr()
    assert reads
