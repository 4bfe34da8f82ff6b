"""The emitter: its '%.12g' and repr kernels, and its bytes in both designs.

``reference.emit_records`` is the emitter that fills one %-template for
every output; the CLI's emitter must write its bytes, laid out as bytes
or through its own template.
"""

import hashlib
import io
import json
import math
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from entdistill import cli


def strings(kernel, values, width: int) -> list[str]:
    """The kernel's string of each value: its row of bytes without the NULs.

    The block has a row per value and keeps only byte columns that some
    row uses: none is all NUL, and it is at most ``width`` bytes wide.
    """
    chars = kernel(np.array(values, dtype=np.float64))
    assert len(chars) == len(values) and chars.shape[1] <= width
    assert chars.any(axis=0).all()
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


@pytest.mark.parametrize("field", [*cli.FIELD_ORDER, "schema_version"])
def test_json_keys_need_no_escaping(field):
    """A JSON row's keys are written as '"' + field + '": ', which is json.dumps' key."""
    assert json.dumps(field) == '"%s"' % field


#: Constants of every kind that a JSON row prints, and the edges of each.
JSON_CONSTANTS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-05, 0.1, 1e16, -1.5e300,
                  np.float64(0.1), math.nan, math.inf, -math.inf, 0, -7, 2 ** 70, True, False,
                  None, "", 'say "hi"', "back\\slash", "tab\tnew\nline", "café θ \U0001f600",
                  "\x00\x7f"]


@pytest.mark.parametrize("value", JSON_CONSTANTS, ids=repr)
def test_json_constants_print_their_json_dumps(value):
    """Each constant's text in a JSON row is its json.dumps, whatever its kind."""
    records = cli.Records({"quantity": value})
    expected = json.dumps({"quantity": value, "schema_version": cli.SCHEMA_VERSION}) + "\n"
    assert emitted(cli.emit_records, records, "json") == expected


def emitted(emit, records: cli.Records, fmt: str) -> str:
    buf = io.StringIO()
    emit(records, fmt, buf)
    return buf.getvalue()


def assert_same_bytes(records: cli.Records) -> None:
    """The CLI's output is the template emitter's, in both formats.

    A mismatch fails with both lengths and sha256 digests and the first
    differing line, not with pytest's diff of two long strings, which can
    run for minutes on an output of thousands of rows.
    """
    for fmt in ("csv", "json"):
        got, want = (emitted(emit, records, fmt) for emit in (cli.emit_records,
                                                               reference.emit_records))
        if got == want:
            continue
        digests = [hashlib.sha256(text.encode()).hexdigest()[:16] for text in (got, want)]
        line, a, b = next((i, a, b) for i, (a, b) in enumerate(
            zip_longest(got.splitlines(True), want.splitlines(True))) if a != b)
        pytest.fail(f"{fmt}: {len(got)} against {len(want)} chars, sha256 {digests[0]} against "
                    f"{digests[1]}; first differing line {line + 1}:\n  got  {a!r}\n  want {b!r}",
                    pytrace=False)


def spy_batches(mp) -> dict[str, list[int]]:
    """The row count of each batch that the byte layout writes, per format."""
    rows, fmts = {"csv": [], "json": []}, []
    emit, write_batch = cli.emit_records, cli._write_batch

    def spy_emit(records, fmt, out):
        fmts.append(fmt)
        return emit(records, fmt, out)

    def spy(pieces, out):
        rows[fmts[-1]].append(len(pieces[0]))
        return write_batch(pieces, out)

    mp.setattr(cli, "emit_records", spy_emit)
    mp.setattr(cli, "_write_batch", spy)
    return rows


@pytest.fixture
def layout_batches(monkeypatch):
    return spy_batches(monkeypatch)


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
#: Sweeps, and the row counts of their byte-layout batches, in CSV and JSON alike.
SWEEPS = {
    "below the crossover": (MAP + ["--p", "0.1", "--n", "1:4", "--F", "0.5,0.7,0.9,0.99"], []),
    "above the crossover": (MAP + ["--p", "0.1", "--n", "1:4", "--m", "1:2", "--F", "0.5:0.99:20"],
                            [160]),
    # 3 slabs of 4,800 rows, cut into batches of the cap whatever the slabs
    "multi-slab grid past the batch cap": (
        MAP + ["--p", "0.05,0.1,0.2", "--epsilon", "0:0.1:3", "--n", "1:4", "--m", "1:4",
               "--F", "0.5:0.99:100"], [4096, 4096, 4096, 2112]),
    "one chunk longer than the batch cap": (MAP + ["--p", "0.1", "--F", "0:1:9000"],
                                            [4096, 4096, 808]),
    "pure_fidelity over theta": (["--quantity", "pure_fidelity", "--p", "0.02:0.3:4", "--n", "1:3",
                                  "--theta", "0.01:0.78:50"], [600]),
    # an int draw column and rate lists of widths 1 and 2: one batch of both cells
    "het-band rate lists": (MAP + ["--het-band", "0.025", "0.175", "--n", "1:2", "--m", "2",
                                   "--F", "0.55:0.95:25", "--draws", "8", "--seed", "4"],
                            [400]),
}


@pytest.mark.parametrize("argv,batches", SWEEPS.values(), ids=SWEEPS)
def test_sweep_emit_equals_the_template_emitter(argv, batches, layout_batches):
    records = cli._sweep_records(cli.build_parser().parse_args(["sweep", *argv]))
    assert_same_bytes(records)
    assert layout_batches == {"csv": batches, "json": batches}
    assert sum(batches) in (0, len(records))
    assert all(rows <= cli.BATCH_ROWS for rows in batches)


#: Sweeps, their batches' rows, and the most bytes a row that a batch lays out, NULs included.
LAID_WIDTHS = {
    # sweep_grid_csv's axes at one p
    "grid CSV": (MAP + ["--p", "0.1", "--epsilon", "0:0.1:5", "--n", "1:4", "--m", "1:4",
                        "--F", "0.5:0.99:100"], [4096, 3904], 100),
    # one sweep_het_json call
    "het JSON": (MAP + ["--het-band", "0.025", "0.175", "--epsilon", "0.05", "--n", "1:4",
                        "--m", "1:4", "--F", "0.55:0.95:25", "--draws", "5", "--seed", "3",
                        "--format", "json"], [2000], 340),
}


@pytest.mark.parametrize("argv,batches,most", LAID_WIDTHS.values(), ids=LAID_WIDTHS)
def test_batches_lay_out_only_the_byte_columns_they_use(argv, batches, most, monkeypatch,
                                                        capsys):
    """Each float block keeps the byte columns that its values print: the pieces of a
    batch are at most ``most`` bytes a row in all (159 and 558 if padded to the widest
    string that each kernel can print)."""
    widths, write_batch = [], cli._write_batch

    def spy(pieces, out):
        widths.append((len(pieces[0]), sum(piece.shape[1] for piece in pieces)))
        return write_batch(pieces, out)

    monkeypatch.setattr(cli, "_write_batch", spy)
    assert cli.main(["sweep", *argv]) == 0
    capsys.readouterr()
    assert [rows for rows, _ in widths] == batches
    assert all(width <= most for _, width in widths), widths


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_columnar_batch_takes_one_call_per_kernel(fmt, monkeypatch):
    """The het sweep's one batch: every rate, and in CSV every float, in one '%.12g'
    call; in JSON every float in one repr call. F, a coded axis, is its 25 values."""
    records = cli._sweep_records(cli.build_parser().parse_args(
        ["sweep", *SWEEPS["het-band rate lists"][0]]))
    g12_calls, repr_calls = spy_on(monkeypatch, "_format_g12"), spy_on(monkeypatch, "_format_repr")
    emitted(cli.emit_records, records, fmt)
    # 400 rows: 1,400 rates; F (25 values), value and p_succ (400 each)
    rates, floats = 200 * 1 + 3 * 200 * 2, 25 + 2 * 400
    assert (g12_calls, repr_calls) == (([rates + floats], []) if fmt == "csv"
                                       else ([rates], [floats]))


def test_hand_built_records_equal_the_template_emitter(layout_batches):
    """Negative, NaN and infinite floats, int columns, a coded axis, '%', non-ASCII (a lone
    surrogate among it) and non-finite constants, laid out as bytes in both formats."""
    rows = 300
    rng = np.random.RandomState(5)
    wild = rng.randn(rows) * 10.0 ** rng.randint(-9, 16, rows)
    wild[:10] = [math.nan, math.inf, -math.inf, -0.0, 0.0, -1.5, 5e-324, 1e300, -1e-5,
                 0.9999999999995]
    records = cli.Records(
        {"quantity": "hand-built, 100% ünïcode \ud800", "p": math.inf, "n": 2 ** 70},
        {"F": np.linspace(-1, 1, rows), "value": wild, "round": np.arange(-rows, rows, 2),
         "epsilon": (wild[:12], rng.randint(0, 12, rows).astype(np.uint8)),
         "m": (np.array([-7, 0, 2 ** 63 - 1]), rng.randint(0, 3, rows).astype(np.uint8))})
    assert_same_bytes(records)
    assert layout_batches == {"csv": [rows], "json": [rows]}


#: Outputs whose kernel rows are narrower than some fallback string, and their batches.
WIDE_FALLBACKS = {
    "short floats and one of each fallback": (cli.Records({"p": 0.1}, {"F": np.concatenate(
        [np.tile([0.5, 0.25], 100), [-1.2345678901e-300, -math.inf, math.nan, -0.0]])}), [204]),
    "every row a fallback": (cli.Records({"p": 0.1}, {"F": np.zeros(200)}), [200]),
    "a coded fallback only in a later batch": (cli.Records({"p": 0.1}, {
        "value": np.full(cli.BATCH_ROWS + 100, 0.5),
        "F": (np.array([0.5, 0.25, -1.2345678901e-300]),
              np.repeat(np.array([0, 1, 2], np.uint8), [cli.BATCH_ROWS // 2] * 2 + [100]))}),
        [cli.BATCH_ROWS, 100]),
}


@pytest.mark.parametrize("records,batches", WIDE_FALLBACKS.values(), ids=WIDE_FALLBACKS)
def test_fallbacks_wider_than_the_kept_columns(records, batches, layout_batches):
    """A fallback string longer than the byte columns that the accepted rows keep."""
    assert_same_bytes(records)
    assert layout_batches == {"csv": batches, "json": batches}


ROWS = np.linspace(0, 1, 150)
#: Outputs past the crossover, and the formats that lay them out; a template writes the rest.
FALLBACKS = {
    "a NUL in CSV text": (cli.Records({"quantity": "a NUL\0inside"}, {"F": ROWS}), ["json"]),
    "a column of no kind": (cli.Records({"p": 0.1}, {"F": ROWS.astype(np.float32)}), []),
}


@pytest.mark.parametrize("records,laid_out", FALLBACKS.values(), ids=FALLBACKS)
def test_template_fallbacks_equal_the_template_emitter(records, laid_out, layout_batches):
    assert_same_bytes(records)
    for fmt, batches in layout_batches.items():
        assert batches == ([len(records)] if fmt in laid_out else [])


TEXT = st.text(max_size=4)  # NUL, commas, '%' and non-ASCII alike
CONSTANT_FIELDS = ["quantity", "p", "epsilon", "n", "m", "theta"]
FLOAT_COLUMNS = ["F", "value", "p_succ", "r0"]
#: Rates in [0, 1): 0.0, values below 1e-4, 12-digit ties and their neighbours among them.
RATES = st.one_of(
    st.floats(0, 1, exclude_max=True), st.just(0.0), st.floats(0, 1e-4, exclude_max=True),
    st.sampled_from([*TIES, *(math.nextafter(t, 0) for t in TIES),
                     *(math.nextafter(t, 1) for t in TIES)]))


@st.composite
def tables(draw, rates_only=False):
    """A table of 1-12 rows: float columns, plain or coded (NaN and infinities among
    them), an int column, rate lists of widths 1-4 (NaN past each list), plain or coded,
    constants of any kind; sometimes a float32 column, which only a template formats. With
    ``rates_only`` its columns are F, rate lists and an int column."""
    rows = draw(st.integers(1, 12))

    def column(elements, width=None):
        """Plain, or a coded axis of 1-3 values (rows when ``width``), with its codes."""
        size = draw(st.sampled_from([rows, 1, 2, 3]))
        if width is None:
            values = np.array(draw(st.lists(elements, min_size=size, max_size=size)))
        else:
            lists = [draw(st.lists(elements, min_size=1, max_size=width)) for _ in range(size)]
            values = np.array([r + [math.nan] * (width - len(r)) for r in lists])
        if size == rows and draw(st.booleans()):
            return values
        codes = draw(st.lists(st.integers(0, size - 1), min_size=rows, max_size=rows))
        return values, np.array(codes, np.uint8)

    columns = {"F": column(st.floats(0, 1))} if rates_only else {
        f: column(st.floats()) for f in draw(st.lists(st.sampled_from(FLOAT_COLUMNS),
                                                     unique=True))}
    for name in draw(st.lists(st.sampled_from(["pA", "pB"]), unique=True,
                              min_size=int(rates_only))):
        columns[name] = column(RATES, draw(st.integers(1, 4)))
    if draw(st.booleans()):
        columns["draw"] = column(st.integers(-2 ** 63, 2 ** 63 - 1))
    if not rates_only and draw(st.integers(0, 9)) == 0:
        columns["theta"] = np.array(draw(st.lists(st.floats(width=32), min_size=rows,
                                                  max_size=rows)), np.float32)
    fields = [] if rates_only else draw(st.lists(st.sampled_from(CONSTANT_FIELDS), unique=True))
    return cli.Records({f: draw(st.one_of(st.floats(), st.integers(), TEXT)) for f in fields
                        if f not in columns}, columns)


def layout_with(records: cli.Records, min_rows: int, cap: int) -> dict[str, list[int]]:
    """Check the bytes with a small crossover and cap; the batches of each format."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "COLUMNAR_MIN_ROWS", min_rows)
        mp.setattr(cli, "BATCH_ROWS", cap)
        batches = spy_batches(mp)
        assert_same_bytes(records)
    for rows in batches.values():
        assert sum(rows) in (0, len(records))  # one design for the whole output
        assert all(0 < n <= cap for n in rows)
    return batches


@settings(max_examples=300, deadline=None)
@given(tables(), st.integers(1, 6), st.integers(1, 8))
def test_columnar_batches_of_any_size_equal_the_template_emitter(records, min_rows, cap):
    """Tables of any fields, with a small crossover and cap: batches of the cap, or one
    template, in both formats."""
    layout_with(records, min_rows, cap)


@settings(max_examples=200, deadline=None)
@given(tables(), st.integers(1, 6), st.integers(1, 8))
def test_chunks_of_one_field_set_take_the_byte_layout(records, min_rows, cap):
    """A table is one field set. Past the crossover it is laid out if every column has a
    kind, in CSV unless a text constant holds a NUL; else one template writes it."""
    batches = layout_with(records, min_rows, cap)
    kinded = len(records) >= min_rows and "theta" not in records.columns
    nul = any("\0" in str(c) for c in records.constants.values())
    assert bool(batches["csv"]) == (kinded and not nul)
    assert bool(batches["json"]) == kinded


@settings(max_examples=200, deadline=None)
@given(tables(rates_only=True), st.integers(1, 6))
def test_rate_lists_equal_the_template_emitter(records, min_rows):
    """Rate lists of mixed widths, plain or coded, formatted by the kernel or by a template."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "COLUMNAR_MIN_ROWS", min_rows)
        assert_same_bytes(records)
