"""The CSV emitter's columnar path: its '%.12g' kernel, and its bytes against the templates.

``reference.emit_records`` is the emitter that filled one %-template per
chunk for every batch; the CLI's emitter must write its bytes.
"""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from entdistill import cli


def g12(values) -> list[str]:
    """The kernel's string of each value: its row of bytes without the NULs."""
    chars = cli._format_g12(np.array(values, dtype=np.float64))
    assert chars.shape == (len(values), 32)
    return [bytes(row).replace(b"\0", b"").decode() for row in chars]


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
    """The row count of each batch handed to the columnar path."""
    rows = []
    csv_rows = cli._csv_rows

    def spy(batch, fields):
        rows.append(sum(len(next(iter(columns.values()))) for _, columns in batch))
        return csv_rows(batch, fields)

    monkeypatch.setattr(cli, "_csv_rows", spy)
    return rows


MAP = ["--quantity", "mixed_fidelity_map"]
#: Sweeps, and the row counts of their columnar batches.
SWEEPS = {
    "below the crossover": (MAP + ["--p", "0.1", "--n", "1:4", "--F", "0.5,0.7,0.9,0.99"], []),
    "above the crossover": (MAP + ["--p", "0.1", "--n", "1:4", "--m", "1:2", "--F", "0.5:0.99:20"],
                            [160]),
    # 3 slabs of 4,800 rows: one run of 100-row chunks, cut at 4,096 rows
    "multi-slab grid past the batch cap": (
        MAP + ["--p", "0.05,0.1,0.2", "--epsilon", "0:0.1:3", "--n", "1:4", "--m", "1:4",
               "--F", "0.5:0.99:100"], [4000, 4000, 4000, 2400]),
    "one chunk longer than the batch cap": (MAP + ["--p", "0.1", "--F", "0:1:9000"],
                                            [4096, 4096, 808]),
    "pure_fidelity over theta": (["--quantity", "pure_fidelity", "--p", "0.02:0.3:4", "--n", "1:3",
                                  "--theta", "0.01:0.78:50"], [600]),
    # an int draw column: every chunk fills its template, its rate lists
    # formatted by the kernel, one call per width
    "het-band rate lists": (MAP + ["--het-band", "0.025", "0.175", "--n", "1:2", "--m", "2",
                                   "--F", "0.55:0.95:25", "--draws", "8", "--seed", "4"], []),
}


@pytest.mark.parametrize("argv,batches", SWEEPS.values(), ids=SWEEPS)
def test_sweep_emit_equals_the_template_emitter(argv, batches, columnar_batches):
    records = cli._sweep_records(cli.build_parser("sweep").parse_args(["sweep", *argv]))
    assert_same_bytes(records)
    assert columnar_batches == batches
    assert all(cli.COLUMNAR_MIN_ROWS <= rows <= cli.BATCH_ROWS for rows in batches[:-1])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_rate_lists_take_one_kernel_call_per_width(fmt, monkeypatch):
    """Every rate list of a het sweep, of widths 1 and 2, is formatted by two kernel calls."""
    records = cli._sweep_records(cli.build_parser("sweep").parse_args(
        ["sweep", *SWEEPS["het-band rate lists"][0]]))
    widths = []
    format_g12 = cli._format_g12

    def spy(x):
        widths.append(len(x))
        return format_g12(x)

    monkeypatch.setattr(cli, "_format_g12", spy)
    emitted(cli.emit_records, records, fmt)
    # 200 rows a cell, cells (n, m) = (1, 2) and (2, 2): width 1 is the first pA,
    # width 2 the second pA and both pB
    assert widths == [200 * 1, 3 * 200 * 2]


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
    # the first two chunks are one batch; the NUL chunk's batch is filled into its template
    assert columnar_batches == [2 * rows, rows]


TEXT = st.text(max_size=4)  # NUL, commas, '%' and non-ASCII alike
CONSTANT_FIELDS = ["quantity", "p", "epsilon", "n", "m", "theta"]
FLOAT_COLUMNS = ["F", "value", "p_succ", "r0"]


@st.composite
def float_chunks(draw):
    """Chunks of float columns, some sharing one F column, some with an int column."""
    rows = draw(st.integers(1, 5))

    def floats():
        return np.array(draw(st.lists(st.floats(), min_size=rows, max_size=rows)))

    shared = floats()
    out = []
    for _ in range(draw(st.integers(1, 6))):
        names = draw(st.lists(st.sampled_from(FLOAT_COLUMNS), unique=True, min_size=1))
        columns = {f: shared if f == "F" and draw(st.booleans()) else floats() for f in names}
        if draw(st.integers(0, 4)) == 0:
            columns["draw"] = np.arange(rows)
        fields = draw(st.lists(st.sampled_from(CONSTANT_FIELDS), unique=True))
        out.append(({f: draw(st.one_of(st.floats(), st.integers(), TEXT)) for f in fields},
                    columns))
    return out


@settings(max_examples=200, deadline=None)
@given(float_chunks(), st.integers(1, 6), st.integers(1, 8))
def test_columnar_batches_of_any_size_equal_the_template_emitter(chunk_list, min_rows, cap):
    """With a small crossover and cap: runs split and merged, chunks cut into slices."""
    records = cli.Records()
    for constants, columns in chunk_list:
        records.add(constants, columns)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "COLUMNAR_MIN_ROWS", min_rows)
        mp.setattr(cli, "BATCH_ROWS", cap)
        assert_same_bytes(records)


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
