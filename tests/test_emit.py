"""The emitter's columnar path: its '%.12g' and repr kernels, and its bytes against the templates.

``reference.emit_records`` is the emitter that filled one %-template per
chunk for every batch; the CLI's emitter must write its bytes.
"""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from entdistill import cli


def strings(kernel, values, width: int) -> list[str]:
    """The kernel's string of each value: its row of bytes without the NULs."""
    chars = kernel(np.array(values, dtype=np.float64))
    assert chars.shape == (len(values), width)
    return [bytes(row).replace(b"\0", b"").decode() for row in chars]


def g12(values) -> list[str]:
    return strings(cli._format_g12, values, 32)


def shortest(values) -> list[str]:
    return strings(cli._format_repr, values, 48)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_kernel_is_percent_12g_of_any_float(values):
    assert g12(values) == ["%.12g" % v for v in values]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40))
def test_kernel_is_percent_12g_of_any_bit_pattern(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64).tolist()
    assert g12(values) == ["%.12g" % v for v in values]


POWERS = [10.0 ** k for k in range(-5, 13)]
#: Values whose 13th significant digit is a 5: the rounding ties of 12 digits.
TIES = [(10 * j + 5) / 1e14 for j in
        [10 ** 11, 10 ** 12 - 1, *np.random.RandomState(3).randint(10 ** 11, 10 ** 12, 500).tolist()]]
KERNEL_TABLE = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
    *POWERS, *(math.nextafter(p, 0) for p in POWERS),
    *(math.nextafter(p, math.inf) for p in POWERS),
    *TIES, *(math.nextafter(t, 0) for t in TIES), *(math.nextafter(t, 1) for t in TIES),
    0.9999999999995, 9.999999999995e-5, 999999999999.5,
]


@pytest.mark.parametrize("sign", [1, -1])
def test_kernel_table(sign):
    """Signed zeros, non-finite values, subnormals, powers of ten and their neighbours,
    ties, and the carries into the next power of ten."""
    values = [sign * v for v in KERNEL_TABLE]
    assert g12(values) == ["%.12g" % v for v in values]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_repr_kernel_is_json_dumps_of_any_float(values):
    assert shortest(values) == [json.dumps(v) for v in values]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40))
def test_repr_kernel_is_json_dumps_of_any_bit_pattern(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64).tolist()
    assert shortest(values) == [json.dumps(v) for v in values]


#: Powers of two (the gap below is half the gap above) and powers of ten
#: across the fixed-notation range [1e-4, 1e16), each with its neighbours.
EDGES = [2.0 ** k for k in range(-20, 60)] + [10.0 ** k for k in range(-6, 19)]
REPR_TABLE = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072014e-308,
    *EDGES, *(math.nextafter(v, 0) for v in EDGES), *(math.nextafter(v, math.inf) for v in EDGES),
    0.1 + 0.2, 1 - 2 ** -53, 1 - 2 ** -52, 1 + 2 ** -52, 0.1, 1 / 3, 2 / 3,
    # 15, 16 and 17 significant digits
    0.123456789012345, 0.1234567890123456, 0.12345678901234568, 123456789012345.6,
    1234567890123456.8, 9007199254740993.0, 999999999999999.9, 9999999999999998.0,
    # ties of the 16- and 17-digit rounding, which repr rounds to even
    *(2.0 ** 50 + j / 4 for j in range(1, 8)), *(2.0 ** 49 + j / 8 for j in range(1, 16)),
]


@pytest.mark.parametrize("sign", [1, -1])
def test_repr_kernel_table(sign):
    """Signed zeros, non-finite values, subnormals, powers of two and ten and their
    neighbours, 15- to 17-digit reprs and rounding ties."""
    values = [sign * v for v in REPR_TABLE]
    assert shortest(values) == [json.dumps(v) for v in values]


def test_repr_kernel_on_every_power_of_two():
    """Where the gap below a float is half the gap above it."""
    values = [sign * 2.0 ** k for k in range(-1074, 1024) for sign in (1, -1)]
    assert shortest(values) == [json.dumps(v) for v in values]


def test_repr_kernel_on_a_seeded_sample():
    """200k floats: uniform, signed log-uniform over 1e-5..1e17, raw bit patterns, short
    decimals, and floats a few ulps from 1."""
    rng = np.random.RandomState(2024)
    values = np.concatenate([
        rng.uniform(0, 1, 50_000),
        10 ** rng.uniform(-5, 17, 50_000) * rng.choice([-1, 1], 50_000),
        rng.randint(0, 2 ** 63, 40_000, dtype=np.int64).view(np.float64),
        [float(f"{v:.{d}g}") for v, d in zip((10 ** rng.uniform(-4, 16, 40_000)).tolist(),
                                              rng.randint(1, 18, 40_000).tolist())],
        1 + rng.randint(-1000, 1000, 20_000) * 2.0 ** -52,
    ]).tolist()
    assert shortest(values) == [json.dumps(v) for v in values]


def emitted(emit, records: cli.Records, fmt: str) -> str:
    buf = io.StringIO()
    emit(records, fmt, buf)
    return buf.getvalue()


def assert_same_bytes(records: cli.Records) -> None:
    for fmt in ("csv", "json"):
        assert emitted(cli.emit_records, records, fmt) == emitted(reference.emit_records, records,
                                                                  fmt)


@pytest.fixture
def columnar_batches(monkeypatch):
    """The row count of each batch handed to the columnar path, per format."""
    rows = {"csv": [], "json": []}
    columnar_rows = cli._columnar_rows

    def spy(batch, fields, fmt, out):
        rows[fmt].append(sum(len(next(iter(columns.values()))) for _, columns in batch))
        return columnar_rows(batch, fields, fmt, out)

    monkeypatch.setattr(cli, "_columnar_rows", spy)
    return rows


def spy_on(monkeypatch, name: str) -> list[int]:
    """The input length of each call of the kernel ``cli.<name>``."""
    lengths = []
    kernel = getattr(cli, name)

    def spy(x):
        lengths.append(len(x))
        return kernel(x)

    monkeypatch.setattr(cli, name, spy)
    return lengths


MAP = ["--quantity", "mixed_fidelity_map"]
#: Sweeps, and the row counts of their columnar batches in CSV and in JSON.
SWEEPS = {
    "below the crossover": (MAP + ["--p", "0.1", "--n", "1:4", "--F", "0.5,0.7,0.9,0.99"], [], []),
    "above the crossover": (MAP + ["--p", "0.1", "--n", "1:4", "--m", "1:2", "--F", "0.5:0.99:20"],
                            [160], [160]),
    # 3 slabs of 4,800 rows: one run of 100-row chunks, cut at 4,096 rows in CSV
    # and, rows being wider, near BATCH_BYTES in JSON
    "multi-slab grid past the batch cap": (
        MAP + ["--p", "0.05,0.1,0.2", "--epsilon", "0:0.1:3", "--n", "1:4", "--m", "1:4",
               "--F", "0.5:0.99:100"], [4000, 4000, 4000, 2400], [3800, 3800, 3800, 3000]),
    "one chunk longer than the batch cap": (MAP + ["--p", "0.1", "--F", "0:1:9000"],
                                            [4096, 4096, 808], [3855, 3855, 1290]),
    "pure_fidelity over theta": (["--quantity", "pure_fidelity", "--p", "0.02:0.3:4", "--n", "1:3",
                                  "--theta", "0.01:0.78:50"], [600], [600]),
    # an int draw column and rate lists of widths 1 and 2: one batch of both cells
    "het-band rate lists": (MAP + ["--het-band", "0.025", "0.175", "--n", "1:2", "--m", "2",
                                   "--F", "0.55:0.95:25", "--draws", "8", "--seed", "4"],
                            [400], [400]),
}


@pytest.mark.parametrize("argv,csv_batches,json_batches", SWEEPS.values(), ids=SWEEPS)
def test_sweep_emit_equals_the_template_emitter(argv, csv_batches, json_batches,
                                                columnar_batches):
    records = cli._sweep_records(cli.build_parser("sweep").parse_args(["sweep", *argv]))
    assert_same_bytes(records)
    assert columnar_batches == {"csv": csv_batches, "json": json_batches}
    for batches in (csv_batches, json_batches):
        assert all(cli.COLUMNAR_MIN_ROWS <= rows <= cli.BATCH_ROWS for rows in batches[:-1])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_rate_lists_take_one_kernel_call_per_width(fmt, monkeypatch):
    """On the template path, every rate list of a het sweep, of widths 1 and 2, is
    formatted by two kernel calls."""
    records = cli._sweep_records(cli.build_parser("sweep").parse_args(
        ["sweep", *SWEEPS["het-band rate lists"][0]]))
    monkeypatch.setattr(cli, "COLUMNAR_MIN_ROWS", len(records) + 1)
    widths = spy_on(monkeypatch, "_format_g12")
    emitted(cli.emit_records, records, fmt)
    # 200 rows a cell, cells (n, m) = (1, 2) and (2, 2): width 1 is the first pA,
    # width 2 the second pA and both pB
    assert widths == [200 * 1, 3 * 200 * 2]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_columnar_batch_takes_one_call_per_kernel(fmt, monkeypatch):
    """The het sweep's one columnar batch: every rate, and in CSV every float, in one
    '%.12g' call; in JSON every float in one repr call."""
    records = cli._sweep_records(cli.build_parser("sweep").parse_args(
        ["sweep", *SWEEPS["het-band rate lists"][0]]))
    g12_calls, repr_calls = spy_on(monkeypatch, "_format_g12"), spy_on(monkeypatch, "_format_repr")
    emitted(cli.emit_records, records, fmt)
    # 400 rows: 1,400 rates; F shared by both cells (200), value and p_succ (400 each)
    rates, floats = 200 * 1 + 3 * 200 * 2, 200 + 2 * 400
    assert (g12_calls, repr_calls) == (([rates + floats], []) if fmt == "csv"
                                       else ([rates], [floats]))


@pytest.mark.parametrize("argv", [SWEEPS["below the crossover"][0],
                                  ["--quantity", "lower_bound", "--p", "0.1", "--n", "1:3"]])
def test_records_without_rate_lists_skip_the_rate_pass(argv, monkeypatch):
    records = cli._sweep_records(cli.build_parser("sweep").parse_args(["sweep", *argv]))
    monkeypatch.setattr(cli, "_rate_lists", None)  # calling it would raise
    for fmt in ("csv", "json"):
        emitted(cli.emit_records, records, fmt)


def test_hand_built_records_equal_the_template_emitter(columnar_batches):
    """Negative, NaN and infinite floats, an int column, string constants, missing fields."""
    rows = 300
    rng = np.random.RandomState(5)
    wild = rng.randn(rows) * 10.0 ** rng.randint(-9, 16, rows)
    wild[:10] = [math.nan, math.inf, -math.inf, -0.0, 0.0, -1.5, 5e-324, 1e300, -1e-5,
                 0.9999999999995]
    column = np.linspace(-1, 1, rows)
    records = cli.Records()
    records.add({"quantity": "hand-built, 100% ünïcode", "p": 0.1, "n": 3},
                {"F": column, "value": wild})
    records.add({"quantity": "its run", "p": -2.5, "n": -7, "epsilon": math.nan},
                {"F": column, "value": -wild})
    records.add({"quantity": "an int column"}, {"F": column, "round": np.arange(rows)})
    records.add({"quantity": "a NUL\0inside", "p": 0.2}, {"F": column, "value": wild})
    records.add({"quantity": "one row", "p": 0.3, "value": 0.25})
    records.add({"theta": 1e-7, "r0": math.inf}, {"value": wild[:5], "p_succ": -wild[:5]})
    assert_same_bytes(records)
    # the first two chunks are one batch, the int column's chunk another; the NUL
    # chunk's batch is filled into its template in CSV and escaped in JSON
    assert columnar_batches == {"csv": [2 * rows, rows, rows], "json": [2 * rows, rows, rows]}


TEXT = st.text(max_size=4)  # NUL, commas, '%' and non-ASCII alike
CONSTANT_FIELDS = ["quantity", "p", "epsilon", "n", "m", "theta"]
FLOAT_COLUMNS = ["F", "value", "p_succ", "r0"]


@st.composite
def float_chunks(draw):
    """Chunks of float columns, some sharing one F column, some with an int column or
    rate lists of widths 1-3."""
    rows = draw(st.integers(1, 5))

    def floats(width=None):
        size = rows * (width or 1)
        values = np.array(draw(st.lists(st.floats(), min_size=size, max_size=size)))
        return values if width is None else values.reshape(rows, width)

    shared = floats()
    out = []
    for _ in range(draw(st.integers(1, 6))):
        names = draw(st.lists(st.sampled_from(FLOAT_COLUMNS), unique=True, min_size=1))
        columns = {f: shared if f == "F" and draw(st.booleans()) else floats() for f in names}
        if draw(st.integers(0, 4)) == 0:
            columns["draw"] = np.array(draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1),
                                                     min_size=rows, max_size=rows)))
        for name in draw(st.lists(st.sampled_from(["pA", "pB"]), unique=True, max_size=2)):
            columns[name] = floats(draw(st.integers(1, 3)))
        fields = draw(st.lists(st.sampled_from(CONSTANT_FIELDS), unique=True))
        out.append(({f: draw(st.one_of(st.floats(), st.integers(), TEXT)) for f in fields},
                    columns))
    return out


@settings(max_examples=200, deadline=None)
@given(float_chunks(), st.integers(1, 6), st.integers(1, 8))
def test_columnar_batches_of_any_size_equal_the_template_emitter(chunk_list, min_rows, cap):
    """With a small crossover and cap: runs split and merged, chunks cut into slices, in
    both formats; JSON batches are the CSV ones, the row cap binding both."""
    records = cli.Records()
    for constants, columns in chunk_list:
        records.add(constants, columns)
    batches = {"csv": [], "json": []}
    columnar_rows = cli._columnar_rows

    def spy(batch, fields, fmt, out):
        batches[fmt].append(sum(len(next(iter(columns.values()))) for _, columns in batch))
        return columnar_rows(batch, fields, fmt, out)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "COLUMNAR_MIN_ROWS", min_rows)
        mp.setattr(cli, "BATCH_ROWS", cap)
        mp.setattr(cli, "BATCH_BYTES", 2 ** 40)
        mp.setattr(cli, "_columnar_rows", spy)
        assert_same_bytes(records)
    assert batches["json"] == batches["csv"]
    assert all(rows <= cap for rows in batches["csv"])


#: Rates in [0, 1): 0.0, values below 1e-4, 12-digit ties and their neighbours among them.
RATES = st.one_of(
    st.floats(0, 1, exclude_max=True), st.just(0.0), st.floats(0, 1e-4, exclude_max=True),
    st.sampled_from([*TIES, *(math.nextafter(t, 0) for t in TIES),
                     *(math.nextafter(t, 1) for t in TIES)]))


@st.composite
def rate_chunks(draw):
    """Chunks with 2-D rate columns of widths 1-4 in one emit, some shared, many one-row."""
    pool, out = {}, []
    for _ in range(draw(st.integers(1, 6))):
        rows = draw(st.integers(1, 4))
        columns = {"F": np.array(draw(st.lists(st.floats(0, 1), min_size=rows, max_size=rows)))}
        for name in draw(st.lists(st.sampled_from(["pA", "pB"]), unique=True)):
            width = draw(st.integers(1, 4))
            if (rows, width) not in pool or draw(st.booleans()):
                pool[rows, width] = np.array(draw(st.lists(
                    RATES, min_size=rows * width, max_size=rows * width))).reshape(rows, width)
            columns[name] = pool[rows, width]
        if draw(st.booleans()):
            columns["draw"] = np.arange(rows)
        if draw(st.booleans()):
            columns["value"] = np.array(draw(st.lists(st.floats(), min_size=rows,
                                                      max_size=rows)))
        out.append(({"quantity": "mixed_fidelity_map", "epsilon": draw(RATES),
                     "n": draw(st.integers(1, 4))}, columns))
    return out


@settings(max_examples=200, deadline=None)
@given(rate_chunks(), st.integers(1, 6))
def test_rate_lists_equal_the_template_emitter(chunk_list, min_rows):
    """Rate lists formatted by the kernel, beside chunks that take the columnar path."""
    records = cli.Records()
    for constants, columns in chunk_list:
        records.add(constants, columns)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "COLUMNAR_MIN_ROWS", min_rows)
        assert_same_bytes(records)
