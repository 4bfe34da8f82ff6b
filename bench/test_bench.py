"""Tests of the benchmark's own code: ``python -m pytest bench``."""

import importlib
import inspect
import json
import sys

import pytest

import calib
import child
import tracing
import workloads
from tracing import Tracer, self_times


def _bindings():
    """Every module attribute of the package that holds a function, by identity."""
    mods = [importlib.import_module("entdistill")] + [
        importlib.import_module(f"entdistill.{layer}") for layer in tracing.LAYERS]
    return {(mod.__name__, attr): obj for mod in mods for attr, obj in vars(mod).items()
            if inspect.isfunction(obj)}


def test_self_time_subtracts_only_direct_children():
    # a [0, 100] contains b [10, 40] and d [50, 90]; b contains c [20, 30].
    parent = [-1, 0, 1, 0]
    start = [0, 10, 20, 50]
    end = [100, 40, 30, 90]
    assert self_times(parent, start, end) == [30, 20, 10, 40]


def test_tracer_nests_spans_and_counts_calls():
    from entdistill import noise

    tracer = Tracer()
    tracer.install()
    try:
        noise.purified_coeffs_gate_noisy(0.1, 0.05, 3)
    finally:
        tracer.uninstall()
    names = [tracer.names[i] for i in tracer.name]
    assert names == ["noise.purified_coeffs_gate_noisy", "noise.purified_coeffs_general"]
    assert list(tracer.parent) == [-1, 0]
    calls, self_s = tracer.totals()["noise.purified_coeffs_gate_noisy"]
    outer = (tracer.end[0] - tracer.start[0]) * 1e-9
    inner = (tracer.end[1] - tracer.start[1]) * 1e-9
    assert calls == 1 and self_s == pytest.approx(outer - inner, abs=1e-12)


def test_install_wraps_every_binding_and_uninstall_restores_them():
    from entdistill import distill_mixed, noise, oracle, qmat

    before = _bindings()
    embed_op = qmat.embed_op
    tracer = Tracer()
    tracer.install()
    try:
        # One wrapper per function, at every module that binds it.
        assert qmat.embed_op is not embed_op
        assert noise.embed_op is qmat.embed_op is oracle.embed_op
        assert distill_mixed.purified_coeffs_general is noise.purified_coeffs_general
        assert noise.purified_coeffs_general.__wrapped__ is before[
            ("entdistill.noise", "purified_coeffs_general")]
        changed = [k for k, v in _bindings().items() if before[k] is not v]
        assert ("entdistill", "distill_map") in changed
        assert ("entdistill.cli", "main") in changed
    finally:
        tracer.uninstall()
    assert _bindings() == before
    assert all(before[k] is v for k, v in _bindings().items())


def test_untraced_run_never_installs_the_tracer(tmp_path, monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("an untraced run installed the tracer")

    monkeypatch.setattr(Tracer, "install", refuse)
    monkeypatch.setattr(sys, "argv", [
        "child.py", "--workload", "point_queries", "--seed", "3", "--seconds", "0",
        "--trace", "0", "--workdir", str(tmp_path)])
    before = _bindings()
    assert child.main() == 0
    assert all(before[k] is v for k, v in _bindings().items())
    res = json.loads(capsys.readouterr().out.splitlines()[-1])
    # The warm-up round and one timed round of 40 calls each.
    assert res["failed"] == 0 and res["attempted"] == 80
    assert set(res["metrics"]) == {
        "wall_s", "rows_per_s", "verify_points_per_s", "call_p50_ms", "call_p90_ms",
        "peak_rss_mb"}


def test_medians_are_taken_per_key_over_the_rounds_that_have_it():
    assert child.medians([{0: 3.0, 1: 5.0}, {0: 2.0}, {0: 4.0, 1: 1.0, 2: 7.0}]) == {
        0: 3.0, 1: 3.0, 2: 7.0}


def test_calibrated_seconds_scale_with_the_calibration_loop():
    assert calib.scaled(0.5, calib.REFERENCE_S) == 0.5
    assert calib.scaled(0.5, 2 * calib.REFERENCE_S) == 0.25
    assert calib.calibration_s() > 0


def test_golden_matches_and_catches_a_one_byte_change(tmp_path):
    grid = workloads.GridSweep(0, tmp_path)
    calls = [workloads.invoke(argv) for argv in grid.warmup()]
    assert len(grid.check_round(calls).points) == 5 * 4 * 4
    assert not calls[0].failed

    (out,) = grid.paths(calls)
    data = bytearray(out.read_bytes())
    mid = data.index(b"0.", len(data) // 2) + 2
    data[mid] = ord("1") if data[mid] != ord("1") else ord("2")
    out.write_bytes(bytes(data))
    grid.check_round(calls)
    assert calls[0].failed


def test_a_changed_het_file_fails_only_its_call(tmp_path):
    het = workloads.HetSweep(3, tmp_path)
    calls = [workloads.invoke(argv) for argv in het.round()]
    assert len(het.check_round(calls).points) == 2 * 4 * 4 * 2
    assert not any(c.failed for c in calls)

    path = het.paths(calls)[5]
    path.write_text(path.read_text().replace("0.", "0.1", 1))
    het.check_round(calls)
    assert [c.failed for c in calls] == [k == 5 for k in range(len(calls))]


def test_slices_joined_have_the_bytes_of_the_whole_sweep(tmp_path):
    axes = ["sweep", "--quantity", "mixed_fidelity_map", "--epsilon", "0:0.1:3",
            "--n", "1:2", "--m", "1:3", "--F", "0.5:0.99:7", "--p"]
    whole, parts = tmp_path / "whole.csv", [tmp_path / f"{k}.csv" for k in range(4)]
    ps = [float(v) for v in workloads.np.linspace(0.02, 0.3, len(parts))]
    assert workloads.invoke(axes + ["0.02:0.3:4", "--out", str(whole)]).rc == 0
    for p, path in zip(ps, parts):
        assert workloads.invoke(axes + [repr(p), "--out", str(path)]).rc == 0
    assert workloads.files_digest(parts) == workloads.files_digest([whole])


def _sample_rows():
    argvs = [
        ["povm-purify", "--p", "0.12", "--n", "3", "--epsilon", "0.05"],
        ["povm-purify", "--pList", "0.1,0.2", "--epsilon", "0.03", "--format", "json"],
        ["distill-pure", "--theta-frac-pi", "0.0625", "--p", "0.1", "--epsilon", "0.05",
         "--n", "3"],
        ["distill-mixed", "--F", "0.7", "--pA", "0.1,0.05", "--pB", "0.2", "--epsilon",
         "0.05", "--rounds", "2", "--format", "json"],
        ["sweep", "--quantity", "lower_bound", "--p", "0.15", "--epsilon", "0.05",
         "--n", "1:2", "--m", "1,3"],
        ["sweep", "--quantity", "mixed_fidelity_map", "--p", "0.1", "--epsilon", "0.1",
         "--n", "2", "--m", "3", "--F", "0.8"],
        ["sweep", "--quantity", "mixed_fidelity_map", "--het-band", "0.025", "0.175",
         "--epsilon", "0.05", "--n", "2", "--m", "1:2", "--F", "0.6", "--draws", "2",
         "--seed", "4", "--format", "json"],
    ]
    rows = []
    for argv in argvs:
        call = workloads.invoke(argv)
        assert call.rc == 0, call
        fmt = "json" if "json" in argv else "csv"
        rows += workloads.parse_records(call.stdout, fmt)
    return rows


def test_oracle_check_passes_true_rows_and_catches_a_1e9_bias():
    rows = _sample_rows()
    assert {r["quantity"] for r in rows} == {
        "povm_fidelity", "pure_fidelity", "mixed_fidelity_map", "lower_bound"}
    assert all(map(workloads.row_ok, rows))
    for rec in rows:
        for field in ("value", "p_succ"):
            if rec.get(field) in (None, ""):
                continue
            biased = dict(rec)
            biased[field] = repr(float(rec[field]) - 1e-9)
            assert not workloads.row_ok(biased), (field, rec)


def test_range_check_rejects_values_outside_the_unit_interval():
    rec = {"quantity": "lower_bound", "value": "1.0000001"}
    assert not workloads.in_range(rec)
    assert workloads.in_range({"quantity": "pure_fidelity", "value": 0.9, "p_succ": 0.2})
