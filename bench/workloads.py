"""The four benchmark workloads and the checks on their outputs.

A workload turns the benchmark seed into one *round*: a fixed list of
``entdistill`` argument lists, each run in-process through ``cli.main``.
A run repeats the round; every call is short (well under a second) and
is timed on its own, in calibrated seconds (see ``calib.py``). After each
round, outside its timing, ``check_round`` compares the outputs with the
first round's, recomputes a seeded sample of the printed rows with the
density-matrix oracle and marks every call whose output is wrong.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from calib import calibration_s, scaled
from entdistill import cli, oracle

#: Largest accepted |printed - oracle|, the same tolerance as ``verify``.
TOL = 1e-10

# The ROADMAP reference grid, p 50 x eps 5 x n 4 x m 4 x F 100 = 400k rows.
GRID_AXES = ["--epsilon", "0:0.1:5", "--n", "1:4", "--m", "1:4", "--F", "0.5:0.99:100"]
GRID_ARGV = ["sweep", "--quantity", "mixed_fidelity_map", "--p", "0.02:0.3:50"] + GRID_AXES
GRID_P = [float(v) for v in np.linspace(0.02, 0.3, 50)]
GRID_SHAPE = (50, 5, 4, 4, 100)  # row-major order of the output rows
#: sha256 of the CSV that GRID_ARGV writes, captured from the closed forms
#: before any optimisation; a change to any byte of the output fails it.
GRID_SHA256 = "29d50465997cebcac54fd2296b01b4b34daf7783c186c0329f3b9f7ccacc9fa1"

# Heterogeneous rates with eps > 0. One call: n 4 x m 4 x F 25 x draws 5 =
# 2,000 rows; a round: eps {0.05, 0.1} x 8 seeds = 16 calls, 32k rows.
HET_EPS = ("0.05", "0.1")
HET_SEEDS = 8
HET_AXES = ["--n", "1:4", "--m", "1:4", "--F", "0.55:0.95:25", "--draws", "5", "--format", "json"]
HET_SHAPE = (2, HET_SEEDS, 4, 4, 25, 5)  # eps, seed, n, m, F, draw

# verify --full --draws 20 in four calls of 5 draws, the last with --full:
# the mix of oracle work of one 20-draw call, in calls a fifth as long.
VERIFY_DRAWS = 5
VERIFY_CALLS = 4
#: Points one verify call compares against the oracle: draws x the eps
#: grid {0, 0.05, 0.1} x n = 1..3, plus three direct-register points with --full.
VERIFY_POINTS = VERIFY_DRAWS * 3 * 3
VERIFY_DIRECT_POINTS = 3


@dataclass
class Call:
    """One ``cli.main`` call and what it produced."""

    argv: list[str]
    seconds: float = 0.0
    calib_s: float = 1.0  # the calibration loop's time right before the call
    rc: int | None = None
    error: str = ""
    stdout: str = ""
    failed: bool = False

    @property
    def scaled_s(self) -> float:
        """The call's time in calibrated seconds."""
        return scaled(self.seconds, self.calib_s)


def invoke(argv: list[str]) -> Call:
    """Run one command in-process, capturing stdout; exceptions count as failures."""
    call = Call(list(argv), calib_s=calibration_s())
    buf, real = io.StringIO(), sys.stdout
    sys.stdout = buf
    t0 = perf_counter()
    try:
        call.rc = cli.main(call.argv)
    except Exception as exc:  # a crash is a failed operation, not a benchmark crash
        call.error = f"{type(exc).__name__}: {exc}"
    finally:
        call.seconds = perf_counter() - t0
        sys.stdout = real
    call.stdout = buf.getvalue()
    call.failed = call.rc != 0
    return call


# ---------------------------------------------------------------------------
# output checks

def files_digest(paths: list[Path]) -> str:
    """sha256 of the files joined, each CSV header after the first dropped.

    The grid's per-p slices joined this way have the bytes of the whole grid.
    """
    h = hashlib.sha256()
    for k, path in enumerate(paths):
        data = path.read_bytes()
        h.update(data[data.index(b"\n") + 1:] if k else data)
    return h.hexdigest()


def parse_records(text: str, fmt: str) -> list[dict]:
    """Rows of CLI output; CSV values stay strings."""
    lines = text.splitlines()
    if fmt == "json":
        return [json.loads(line) for line in lines]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _rates(value, count) -> list[float]:
    rates = [float(x) for x in str(value).split(";")]
    return rates if len(rates) > 1 else rates * int(count)


def oracle_deviation(rec: dict) -> float:
    """Largest |printed output - oracle|, recomputed from the row's printed inputs."""
    q = rec["quantity"]
    eps = float(rec["epsilon"])
    value = float(rec["value"])
    if q == "mixed_fidelity_map":
        p_a = _rates(rec.get("pA") or rec["p"], rec["n"])
        p_b = _rates(rec.get("pB") or rec["p"], rec["m"])
        res = oracle.oracle_distill_mixed(float(rec["F"]), p_a, p_b, eps)
        return max(abs(res.fidelity_out - value), abs(res.p_succ - float(rec["p_succ"])))
    if q == "lower_bound":
        # L is the fixed point of the fidelity map: one oracle round at F = L returns L.
        p, n, m = float(rec["p"]), int(rec["n"]), int(rec["m"])
        return abs(oracle.oracle_distill_mixed(value, [p] * n, [p] * m, eps).fidelity_out - value)
    if q == "pure_fidelity":
        res = oracle.oracle_distill_pure(float(rec["theta"]), float(rec["p"]), eps, int(rec["n"]))
        return max(abs(res.fidelity_out - value), abs(res.p_succ - float(rec["p_succ"])))
    if q == "povm_fidelity":
        n = int(rec["n"])
        ep = oracle.oracle_effective_povm(_rates(rec["p"], n), eps, n)
        return max(abs(ep.r0 - float(rec["r0"])), abs(ep.r1 - float(rec["r1"])),
                   abs(ep.r0 / (ep.r0 + ep.r1) - value), abs(ep.r0 + ep.r1 - float(rec["p_succ"])))
    raise ValueError(f"no oracle check for quantity {q!r}")


def in_range(rec: dict) -> bool:
    """value and (when printed) p_succ lie in [0, 1]."""
    fields = [rec["value"]] + ([rec["p_succ"]] if rec.get("p_succ") not in (None, "") else [])
    return all(0.0 <= float(x) <= 1.0 for x in fields)


def row_ok(rec: dict) -> bool:
    try:
        return in_range(rec) and oracle_deviation(rec) < TOL
    except (KeyError, ValueError):
        return False


def timed_row_ok(rec: dict) -> tuple[bool, float]:
    """Oracle-check one row: (passed, calibrated seconds the check took)."""
    calibration = calibration_s()
    t0 = perf_counter()
    ok = row_ok(rec)
    return ok, scaled(perf_counter() - t0, calibration)


def stratified_indices(shape, strata, k, rng) -> list[int]:
    """k random row-major indices into a grid of ``shape`` per cell of the ``strata`` axes.

    Cells come in a fixed order, so the i-th index always falls in the
    same cell. The oracle's cost depends only on the cell, which makes
    the i-th check cost the same in every round.
    """
    out = []
    for cell in itertools.product(*(range(shape[a]) for a in strata)):
        for _ in range(k):
            idx = [rng.randrange(s) for s in shape]
            for a, v in zip(strata, cell):
                idx[a] = v
            flat = 0
            for i, s in zip(idx, shape):
                flat = flat * s + i
            out.append(flat)
    return out


def sample_file_rows(paths: list[Path], fmt: str, indices: list[int], total: int) -> list[dict]:
    """Parse the data rows with the given 0-based indices into the files' rows joined.

    The files hold ``total`` data rows, the same number each.
    """
    per_file = total // len(paths)
    offset = 0 if fmt == "json" else 1  # CSV starts with a header line
    by_file: dict[int, list[int]] = {}
    for i in indices:
        by_file.setdefault(i // per_file, []).append(i % per_file + offset)
    found = {}
    for f, wanted in by_file.items():
        with open(paths[f]) as fh:
            lines = fh.readlines()
        for lineno in wanted:
            head = lines[0] if offset else ""
            found[f * per_file + lineno - offset] = parse_records(head + lines[lineno], fmt)[0]
    return [found[i] for i in indices]


# ---------------------------------------------------------------------------
# workloads

@dataclass
class Check:
    """What the checks of one round found: output rows, and oracle seconds
    and points per key.

    A key names a check that costs the same in every round, so its
    median time over the rounds can be taken.
    """

    rows: int
    seconds: dict
    points: dict


class Workload:
    """A seeded round of CLI calls and the checks on their outputs."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)  # the inputs
        self.sample_rng = random.Random(seed + 1)  # which rows are checked
        self.workdir = workdir
        self.first_outputs = None

    def round(self) -> list[list[str]]:
        """The argument lists of one round; the same on every call."""
        raise NotImplementedError

    def warmup(self) -> list[list[str]]:
        """The untimed round a run starts with."""
        return self.round()

    def check_round(self, calls: list[Call]) -> Check:
        """Mark the round's failed calls, outside its timing."""
        raise NotImplementedError

    def outputs(self, calls: list[Call]) -> list:
        """What must repeat byte for byte from one round to the next."""
        return [c.stdout for c in calls]

    def check_repeat(self, calls: list[Call]) -> None:
        """Fail every call whose output differs from the first round's."""
        outs = self.outputs(calls)
        if self.first_outputs is None:
            self.first_outputs = outs
        for call, out, first in zip(calls, outs, self.first_outputs):
            call.failed = call.failed or out != first

    def cleanup(self) -> None:
        """Remove what the calls wrote."""


class _FileSweep(Workload):
    """Sweeps that each write a file. The files of a round, joined, form
    one grid of ``shape``; ``strata`` are the axes the oracle's cost
    depends on, sampled ``per_cell`` rows each per round."""

    fmt = "csv"
    shape: tuple[int, ...] = ()
    strata: tuple[int, ...] = ()
    per_cell = 1

    def path(self, k: int | str) -> Path:
        return self.workdir / f"{self.name}-{k}.{self.fmt}"

    def paths(self, calls: list[Call]) -> list[Path]:
        return [Path(c.argv[c.argv.index("--out") + 1]) for c in calls]

    def outputs(self, calls):
        return [hashlib.sha256(p.read_bytes()).digest() for p in self.paths(calls)]

    def check_files(self, calls: list[Call]) -> None:
        """Per-workload checks of the whole output."""

    def check_round(self, calls):
        seconds, points = {}, {}
        if any(c.failed for c in calls):
            return Check(0, seconds, points)
        indices = stratified_indices(self.shape, self.strata, self.per_cell, self.sample_rng)
        try:
            rows_out = sum(p.read_bytes().count(b"\n") for p in self.paths(calls))
            self.check_files(calls)
            self.check_repeat(calls)
            rows = sample_file_rows(self.paths(calls), self.fmt, indices, self.size)
        except (OSError, KeyError, ValueError, IndexError):
            rows_out, rows, calls[0].failed = 0, [], True
        for key, (flat, rec) in enumerate(zip(indices, rows)):
            ok, seconds[key] = timed_row_ok(rec)
            points[key] = 1
            if not ok:
                calls[flat * len(calls) // self.size].failed = True
        return Check(rows_out, seconds, points)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    def cleanup(self):
        for path in self.workdir.glob(f"{self.name}-*.{self.fmt}"):
            path.unlink(missing_ok=True)


class GridSweep(_FileSweep):
    """Emit-bound: weights once per grid cell, 400k rows of CSV, no oracle.

    A round is the grid as 50 calls, one per p value, each writing 8,000
    rows; joined, they are the bytes of the whole grid. The untimed
    warm-up is the whole grid in one call, so ``peak_rss_mb`` shows what
    a single 400k-row sweep holds. The grid is fixed; the seed only
    chooses which rows are checked.
    """

    name = "sweep_grid_csv"
    shape, strata, per_cell = GRID_SHAPE, (1, 2, 3), 1  # strata: eps, n, m

    def round(self):
        return [["sweep", "--quantity", "mixed_fidelity_map", "--p", repr(p)] + GRID_AXES
                + ["--out", str(self.path(k))] for k, p in enumerate(GRID_P)]

    def warmup(self):
        return [GRID_ARGV + ["--out", str(self.path("all"))]]

    def check_files(self, calls):
        if files_digest(self.paths(calls)) != GRID_SHA256:
            raise ValueError("grid output differs from the golden")

    def check_repeat(self, calls):
        """The golden already pins every byte."""


class HetSweep(_FileSweep):
    """Closed forms per row: an RNG draw, a heterogeneous recurrence, JSON emit."""

    name = "sweep_het_json"
    fmt = "json"
    shape, strata, per_cell = HET_SHAPE, (0, 2, 3), 2  # strata: eps, n, m

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.seeds = [self.rng.randrange(2 ** 31) for _ in range(HET_SEEDS)]

    def round(self):
        argvs = []
        for eps in HET_EPS:
            for s in self.seeds:
                k = len(argvs)
                argvs.append(["sweep", "--quantity", "mixed_fidelity_map", "--het-band",
                              "0.025", "0.175", "--epsilon", eps] + HET_AXES
                             + ["--seed", str(s), "--out", str(self.path(k))])
        return argvs


class VerifyFull(Workload):
    """Oracle-bound: ``verify --full`` over seeds drawn from the benchmark seed."""

    name = "verify_full"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        base = self.rng.randrange(2 ** 31)
        self.seeds = [base + k for k in range(VERIFY_CALLS)]

    def round(self):
        return [["verify", "--max-n", "3", "--draws", str(VERIFY_DRAWS), "--seed", str(s)]
                + (["--full"] if k == VERIFY_CALLS - 1 else [])
                for k, s in enumerate(self.seeds)]

    def check_round(self, calls):
        for call in calls:
            call.failed = call.failed or "verification passed" not in call.stdout
        self.check_repeat(calls)
        # The oracle comparisons are the calls themselves.
        return Check(_stdout_rows(calls), {k: c.scaled_s for k, c in enumerate(calls)},
                     {k: VERIFY_POINTS + VERIFY_DIRECT_POINTS * ("--full" in c.argv)
                      for k, c in enumerate(calls)})


def _stdout_rows(calls: list[Call]) -> int:
    return sum(c.stdout.count("\n") for c in calls)


def _num(rng, lo, hi) -> str:
    return f"{rng.uniform(lo, hi):.6g}"


class PointQueries(Workload):
    """Fixed per-call cost: a closed loop of one client issuing single-point commands."""

    name = "point_queries"
    #: Draws of each of the ten command shapes in one round.
    draws = 4
    #: Every this many rounds, one row of each call is checked against the oracle.
    check_every = 5

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        r = self.rng
        self.argvs, self.checked_row_index = [], []
        # Slot k has n = k + 1 and m = 4 - k, so a round holds every n and
        # m once and the seed only moves the costs through continuous values.
        for k in range(self.draws):
            for fmt in ("csv", "json"):
                tail = ["--epsilon", _num(r, 0.0, 0.1), "--format", fmt]
                n, m = k + 1, self.draws - k
                theta = (["--theta-frac-pi", _num(r, 0.02, 0.24)] if fmt == "csv"
                         else ["--theta", _num(r, 0.05, 0.75)])
                self.argvs += [
                    ["povm-purify", "--p", _num(r, 0.02, 0.3), "--n", str(n)] + tail,
                    ["povm-purify", "--pList",
                     ",".join(_num(r, 0.02, 0.3) for _ in range(m))] + tail,
                    ["distill-pure", *theta, "--p", _num(r, 0.02, 0.3), "--n", str(m)] + tail,
                    ["distill-mixed", "--F", _num(r, 0.55, 0.95),
                     "--pA", ",".join(_num(r, 0.02, 0.3) for _ in range(n)),
                     "--pB", ",".join(_num(r, 0.02, 0.3) for _ in range(m)),
                     "--rounds", str(m)] + tail,
                    # p <= 0.2 keeps every threshold L(n, m) below 1, a valid fidelity.
                    ["sweep", "--quantity", "lower_bound", "--p", _num(r, 0.02, 0.2),
                     "--n", "1:4", "--m", "1:4"] + tail,
                ]
                # The oracle checks the first row of each call; of the sweep's
                # 16 rows (n, m row-major), the one of this slot's n and m.
                self.checked_row_index += [0, 0, 0, 0, 4 * (n - 1) + (m - 1)]
        self.checked_rows = None
        self.rounds_checked = 0

    def round(self):
        return self.argvs

    def check_round(self, calls):
        seconds, points = {}, {}
        if self.checked_rows is None:
            # First round: every row in range, and the rows the oracle checks.
            self.checked_rows = []
            for call, row in zip(calls, self.checked_row_index):
                fmt = call.argv[call.argv.index("--format") + 1]
                try:
                    rows = parse_records(call.stdout, fmt)
                    call.failed = call.failed or not rows or not all(map(in_range, rows))
                except (IndexError, KeyError, ValueError):
                    call.failed, rows = True, [{}]
                self.checked_rows.append(rows[row] if row < len(rows) else {})
        self.check_repeat(calls)
        # Round 0 is the warm-up; every round's bytes equal its bytes.
        if self.rounds_checked % self.check_every == 1:
            for key, (call, rec) in enumerate(zip(calls, self.checked_rows)):
                ok, seconds[key] = timed_row_ok(rec)
                points[key] = 1
                call.failed = call.failed or not ok
        self.rounds_checked += 1
        return Check(_stdout_rows(calls), seconds, points)


WORKLOADS = {w.name: w for w in (GridSweep, HetSweep, VerifyFull, PointQueries)}
