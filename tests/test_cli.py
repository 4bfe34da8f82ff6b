import contextlib
import csv
import dataclasses
import io
import json
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_sweep_json_round_trip_idempotent(capsys):
    _, out, _ = run_cli(
        ["sweep", "--quantity", "povm_fidelity", "--p", "0.05:0.2:4", "--n", "1:3",
         "--format", "json"], capsys)
    for line in out.splitlines():
        rec = json.loads(line)
        assert rec["schema_version"] == 1
        assert json.dumps(rec, sort_keys=True) == line


def test_sweep_usage_errors(capsys):
    # --seed outside the heterogeneous mode
    code, _, _ = run_cli(
        ["sweep", "--quantity", "lower_bound", "--p", "0.1", "--seed", "3"], capsys)
    assert code == 2
    # missing required axis
    code, _, _ = run_cli(["sweep", "--quantity", "pure_fidelity", "--p", "0.1"], capsys)
    assert code == 2
    # malformed axis
    code, _, _ = run_cli(["sweep", "--quantity", "lower_bound", "--p", "abc"], capsys)
    assert code == 2
    # unknown quantity
    code, _, _ = run_cli(["sweep", "--quantity", "nope", "--p", "0.1"], capsys)
    assert code == 2


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

    The first call stays exact: Python's max() from an exact gap skips a later NaN.
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


@pytest.mark.parametrize("seed", ["-1", "4294967296"])
@pytest.mark.parametrize("argv", [
    ["verify", "--max-n", "1", "--draws", "1"],
    ["sweep", "--quantity", "mixed_fidelity_map", "--het-band", "0.05", "0.1", "--F", "0.7"],
], ids=["verify", "sweep"])
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


def test_distill_mixed_usage_errors(capsys):
    assert run_cli(["distill-mixed", "--F", "0.7"], capsys)[0] == 2
    assert run_cli(["distill-mixed", "--F", "1.5", "--p", "0.1"], capsys)[0] == 2
    assert run_cli(["distill-mixed", "--F", "0.7", "--p", "0.1", "--pA", "0.1", "--pB", "0.1"],
                   capsys)[0] == 2
    assert run_cli(["distill-mixed", "--F", "0.7", "--pA", "0.1"], capsys)[0] == 2


def test_distill_pure_theta_conventions_agree(capsys):
    _, out1, _ = run_cli(
        ["distill-pure", "--theta-frac-pi", "0.0625", "--p", "0.1", "--n", "3"], capsys)
    _, out2, _ = run_cli(
        ["distill-pure", "--theta", str(np.pi / 16), "--p", "0.1", "--n", "3"], capsys)
    v1 = float(next(csv.DictReader(out1.splitlines()))["value"])
    v2 = float(next(csv.DictReader(out2.splitlines()))["value"])
    assert v1 == pytest.approx(v2, abs=1e-12)
    assert v1 == pytest.approx(0.999116807665, abs=1e-10)


def test_distill_pure_requires_exactly_one_theta(capsys):
    assert run_cli(["distill-pure", "--p", "0.1"], capsys)[0] == 2
    assert run_cli(["distill-pure", "--p", "0.1", "--theta", "0.3",
                    "--theta-frac-pi", "0.1"], capsys)[0] == 2


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


def test_distill_mixed_rejects_zero_rounds(capsys):
    _usage_error(["distill-mixed", "--F", "0.7", "--p", "0.1", "--rounds", "0"], "--rounds", capsys)


def test_sweep_rejects_nonpositive_draws(capsys):
    _usage_error(["sweep", "--quantity", "mixed_fidelity_map", "--het-band", "0.05", "0.1",
                  "--F", "0.7", "--draws", "-3"], "--draws", capsys)


@pytest.mark.parametrize("flag", ["--draws", "--seed"])
@pytest.mark.parametrize("argv", [
    ["--quantity", "lower_bound", "--p", "0.1"],
    ["--quantity", "mixed_fidelity_map", "--p", "0.1", "--F", "0.7"],
], ids=["lower_bound", "mixed_fidelity_map"])
def test_sweep_rejects_draws_outside_het_band_mode(argv, flag, capsys):
    code, out, err = run_cli(["sweep", *argv, flag, "5"], capsys)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: {flag} only applies in --het-band mode\n")


@pytest.mark.parametrize("argv,flag", [
    (["povm-purify", "--pList", "0.1,0.2", "--n", "5"], "--n"),
    (["distill-mixed", "--F", "0.7", "--pA", "0.1", "--pB", "0.1,0.2", "--n", "4", "--m", "3"],
     "--n"),
    (["distill-mixed", "--F", "0.7", "--pA", "0.1", "--pB", "0.1,0.2", "--m", "2"], "--m"),
])
def test_depth_flags_with_rate_lists_are_rejected(argv, flag, capsys):
    _usage_error(argv, flag, capsys)


def test_sweep_rejects_inverted_het_band(capsys):
    _usage_error(["sweep", "--quantity", "mixed_fidelity_map", "--het-band", "0.3", "0.1",
                  "--F", "0.7"], "--het-band", capsys)


@pytest.mark.parametrize("argv,flag", [
    (["sweep", "--quantity", "lower_bound", "--p", "0.1", "--n", "0"], "--n"),
    (["sweep", "--quantity", "lower_bound", "--p", "0.1", "--m", "0:2"], "--m"),
    (["distill-mixed", "--F", "0.7", "--p", "0.1", "--n", "0"], "--n"),
    (["distill-mixed", "--F", "0.7", "--p", "0.1", "--m", "-1"], "--m"),
    (["distill-pure", "--theta", "0.3", "--p", "0.1", "--n", "0"], "--n"),
    (["povm-purify", "--p", "0.1", "--n", "0"], "--n"),
])
def test_depths_below_one_are_rejected_by_flag(argv, flag, capsys):
    _usage_error(argv, flag, capsys)


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


@pytest.mark.parametrize("quantity,flag", [
    (q, flag) for q, argv in TAKES.items() for flag in AXIS_VALUES
    if flag not in argv and not (flag == "--theta-frac-pi" and "--theta" in argv)])
def test_sweep_rejects_axes_the_quantity_does_not_take(quantity, flag, capsys):
    argv = ["sweep", "--quantity", quantity] + TAKES[quantity]
    assert run_cli(argv, capsys)[0] == 0
    code, out, err = run_cli(argv + [flag, AXIS_VALUES[flag]], capsys)
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == f"entdistill: error: quantity {quantity} takes no {flag} axis"


def test_verify_rejects_zero_draws(capsys):
    _usage_error(["verify", "--draws", "0"], "--draws", capsys)


def test_sweep_rejects_p_axis_in_het_band_mode(capsys):
    code, out, err = run_cli(["sweep", "--quantity", "mixed_fidelity_map", "--het-band", "0.05",
                              "0.1", "--p", "0.9", "--F", "0.7", "--draws", "1"], capsys)
    assert code == 2 and out == ""
    assert "--p" in err and "--het-band" in err


MAP = ["sweep", "--quantity", "mixed_fidelity_map"]


@pytest.mark.parametrize("argv,message", [
    (MAP + ["--het-band", "0.5", "1.5", "--F", "0.7", "--n", "1:2", "--m", "1:2", "--draws", "2",
            "--seed", "1"], "measurement noise fraction must lie in [0, 1), got 1.220324493442158"),
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
])
def test_sweep_domain_errors_leave_no_output(argv, message, tmp_path, capsys):
    """A value the library rejects, in a sweep or a single-point command, writes nothing."""
    path = tmp_path / "out.csv"
    code, out, err = run_cli(argv + ["--out", str(path)], capsys)
    assert code == 2 and out == ""
    assert not path.exists()
    assert err.splitlines()[-1] == f"entdistill: error: {message}"


def _first_row_error(lo, hi, seed, eps, n, m, fs, draws):
    """The error of the first failing row when every row is evaluated on its own."""
    rng = np.random.RandomState(seed)
    for f in fs:
        for _ in range(draws):
            p_a, p_b = rng.uniform(lo, hi, n), rng.uniform(lo, hi, m)
            try:
                distill_map(f, parity_weights(p_a, p_b, eps))
            except ValueError as exc:
                return str(exc)
    return None


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("eps,fs", [(0.05, [0.7]), (1.0, [0.7]), (0.05, [1.2, 0.7])])
def test_het_band_error_names_the_first_failing_row(seed, eps, fs, capsys):
    """A cell is evaluated as columns, but its error is the row-by-row one."""
    expected = _first_row_error(0.6, 1.3, seed, eps, 2, 3, fs, 3)
    code, out, err = run_cli(MAP + ["--het-band", "0.6", "1.3", "--epsilon", str(eps),
                                    "--n", "2", "--m", "3", "--F", ",".join(map(str, fs)),
                                    "--draws", "3", "--seed", str(seed)], capsys)
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == f"entdistill: error: {expected}"


def _reference_emit(rows, fmt):
    """Row-by-row formatting, one dict per row: the bytes the chunked emitter must give."""
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
def chunks(draw):
    """Chunks over random fields: constants, columns, a rate-list column, a column
    shared by every chunk, and one-row chunks of constants alone."""
    rows = draw(st.integers(1, 4))
    shared = np.array(draw(st.lists(st.floats(), min_size=rows, max_size=rows)))
    out = []
    for _ in range(draw(st.integers(1, 3))):
        fields = draw(st.lists(st.sampled_from(FLOAT_FIELDS + INT_FIELDS + ["quantity"]),
                               unique=True, min_size=1))
        one_row = draw(st.booleans())
        constants, columns = {}, {} if one_row else {"F": shared}
        for f in fields:
            value = (st.floats() if f in FLOAT_FIELDS else
                     st.integers(-2 ** 63, 2 ** 63 - 1) if f in INT_FIELDS else TEXT)
            if one_row or (f != "F" and draw(st.booleans())):
                constants[f] = draw(value)
            elif f != "F":
                columns[f] = np.array(draw(st.lists(value, min_size=rows, max_size=rows)))
        if not one_row:
            width = draw(st.integers(1, 3))
            columns["pA"] = np.array(draw(st.lists(st.lists(st.floats(), min_size=width,
                                                            max_size=width),
                                                   min_size=rows, max_size=rows)))
        out.append((constants, columns))
    return out


@settings(max_examples=150, deadline=None)
@given(chunks(), st.sampled_from(["csv", "json"]))
def test_chunked_emit_matches_row_by_row_formatting(chunk_list, fmt):
    records, rows = cli.Records(), []
    for constants, columns in chunk_list:
        records.add(constants, columns)
        lists = {f: col.tolist() for f, col in columns.items()}
        rows += [{**constants, **{f: v[i] for f, v in lists.items()}}
                 for i in range(len(columns["F"]) if columns else 1)]
    buf = io.StringIO()
    cli.emit_records(records, fmt, buf)
    assert len(records) == len(rows)
    assert buf.getvalue() == _reference_emit(rows, fmt)


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
    """Row order, chunk layout and every value's last bit, for every quantity."""
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
