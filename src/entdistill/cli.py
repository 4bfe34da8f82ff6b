"""Command-line front end: golden tables, parameter sweeps, verification.

Subcommands:

- ``tables``        write the five reference tables as CSV/JSON files
- ``sweep``         evaluate one quantity over a parameter grid
- ``verify``        check the analytic layer against the density-matrix oracle
- ``distill-mixed`` one (or several iterated) two-way distillation rounds
- ``distill-pure``  pure-state filtering fidelity
- ``povm-purify``   purified-measurement coefficients and fidelity

All numeric output uses 12 significant digits with '.' as the decimal
separator and Unix newlines, so identical inputs give byte-identical
output. JSON output is one record per line, each carrying a
``schema_version`` field; records re-serialize to the same bytes after a
parse/format round trip.

Exit codes: 0 success, 1 verification failure or an output that cannot be
written, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from itertools import product
from pathlib import Path

import numpy as np

from . import distill_mixed as dm
from . import distill_pure as dp
from . import noise, oracle

SCHEMA_VERSION = 1

#: Canonical column order: inputs first, outputs last.
FIELD_ORDER = [
    "quantity", "p", "pA", "pB", "epsilon", "n", "m", "F", "theta", "draw",
    "round", "r0", "r1", "value", "value_3dp", "p_succ",
]


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


class Records:
    """Output rows, held as chunks that the emitter formats in order.

    A chunk is a pair ``(constants, columns)``: the fields that all its
    rows share (numbers or strings), and one numpy array per varying
    field with one entry per row; a 2-D array holds one rate list per
    row. A chunk without columns is one row. ``len()`` is the number of
    rows.
    """

    def __init__(self):
        self.chunks: list[tuple[dict, dict[str, np.ndarray]]] = []
        self.rows = 0

    def add(self, constants: dict, columns: dict[str, np.ndarray] | None = None) -> None:
        self.chunks.append((constants, columns or {}))
        self.rows += len(next(iter(columns.values()))) if columns else 1

    def __len__(self) -> int:
        return self.rows


def _ordered_fields(records: Records) -> list[str]:
    present = set()
    for constants, columns in records.chunks:
        present.update(constants, columns)
    return [f for f in FIELD_ORDER if f in present]


def _slot(column: np.ndarray, fmt: str, seen: dict) -> tuple[str, list[list]]:
    """A column's %-template slot and the value lists that fill it.

    '%.12g' % x and '%r' % x give the bytes of f"{x:.12g}" and of
    json.dumps(x) for a finite float x. A 2-D column is a rate-list field:
    each row prints as its rates joined by ';', a string in JSON (the
    digits need no escaping). A column that several chunks share is
    formatted to strings once, at its second use; ``seen`` holds what
    earlier chunks used.
    """
    key = id(column)
    if seen.get(key):  # formatted at an earlier chunk
        return seen[key]
    kind, lists = column.dtype.kind, [column.tolist()]
    if column.ndim == 2:
        slot = _rates_template(column.shape[1])
        slot, lists = (slot if fmt == "csv" else f'"{slot}"'), column.T.tolist()
    elif kind == "f" and (fmt == "csv" or np.isfinite(column).all()):
        slot = "%.12g" if fmt == "csv" else "%r"
    elif kind in "iu":
        slot = "%d"
    elif fmt == "csv":
        slot = "%s"
    else:
        slot, lists = "%s", [list(map(json.dumps, lists[0]))]
    if key in seen:  # second use: format once, for this chunk and the later ones
        seen[key] = "%s", [[slot % row for row in zip(*lists)]]
        return seen[key]
    seen[key] = None
    return slot, lists


def _template_rows(constants: dict, columns: dict, fields: list[str], fmt: str,
                   seen: dict) -> str:
    """One chunk's rows: a %-template of its constants, with a slot per column."""
    parts, values = [], []
    for f in fields:
        if f in columns:
            slot, lists = _slot(columns[f], fmt, seen)
            values += lists
        elif f in constants:
            const = constants[f]
            slot = (json.dumps(const) if fmt == "json" else _fmt(const)).replace("%", "%%")
        else:
            slot = ""
        parts.append(slot if fmt == "csv" else f"{json.dumps(f)}: {slot}")
    template = (",".join(parts) if fmt == "csv" else "{" + ", ".join(parts) + "}") + "\n"
    return "".join(map(template.__mod__, zip(*values) if values else [()]))


#: Rows from which a CSV batch is laid out as bytes, not filled into
#: %-templates chunk by chunk. The columnar path costs about 90 us a
#: batch plus 0.4 us a row, the templates about 1.2 us a row: on
#: mixed_fidelity_map batches of one chunk or of 8-row chunks, they
#: break even between 96 and 128 rows.
COLUMNAR_MIN_ROWS = 128
#: Rows of one columnar batch at most, a longer chunk cut into slices.
#: It bounds the batch's temporaries, about 420 bytes a row. An
#: 8,000-row sweep emitted in batches of up to 2,048, 4,096 or 8,192
#: rows took 0.45, 0.37 and 0.55 of the templates' time.
BATCH_ROWS = 4096


def emit_records(records: Records, fmt: str, out) -> None:
    """Write records as CSV (fixed column order) or JSON lines, a batch at a time.

    CSV: a run of chunks whose columns are the same 1-D float fields is
    written as one batch of up to ``BATCH_ROWS`` rows. From
    ``COLUMNAR_MIN_ROWS`` rows on, its floats are formatted by one
    ``_format_g12`` call and its rows laid out as bytes (``_csv_rows``);
    every other chunk is a %-template of its constants with one slot per
    column, filled from the columns. A chunk without columns is the
    template alone, one row. In JSON every chunk is a template, and a
    one-row chunk, with or without columns, is one ``json.dumps`` of its
    row. JSON keys come in ``sort_keys`` order.
    """
    seen: dict = {}
    if fmt == "csv":
        fields = _ordered_fields(records)
        out.write(",".join(fields) + "\n")
        # Fewer rows in all than the crossover: no batch can reach it.
        batches = (_csv_batches(records.chunks) if len(records) >= COLUMNAR_MIN_ROWS
                   else [(records.chunks, False)])
        for batch, columnar in batches:
            if columnar:
                out.write(_csv_rows(batch, fields))
                continue
            for constants, columns in batch:
                out.write(_template_rows(constants, columns, fields, fmt, seen))
        return
    for constants, columns in records.chunks:
        constants = {**constants, "schema_version": SCHEMA_VERSION}
        if all(len(column) == 1 for column in columns.values()):
            row = {f: _rates_field(c[0].tolist()) if c.ndim == 2 else c[0].item()
                   for f, c in columns.items()}
            out.write(json.dumps({**constants, **row}, sort_keys=True) + "\n")
        else:
            out.write(_template_rows(constants, columns, sorted([*constants, *columns]), fmt,
                                     seen))


def _csv_batches(chunks: list[tuple[dict, dict]]):
    """The chunks in order, as (batch, columnar) pairs.

    Consecutive chunks whose columns are the same 1-D float64 fields form
    a batch of at most ``BATCH_ROWS`` rows, columnar from
    ``COLUMNAR_MIN_ROWS`` rows on. A longer chunk is cut into slices of
    ``BATCH_ROWS`` rows, each a columnar batch: a slice is a new array,
    which must not reach the template path's cache keyed by ``id``.
    Every other chunk is a template batch of its own.
    """
    batch, names, rows = [], None, 0
    for constants, columns in chunks:
        count = len(next(iter(columns.values()))) if columns else 1
        floats = bool(columns) and all(c.ndim == 1 and c.dtype == np.float64
                                       for c in columns.values())
        if batch and (not floats or tuple(columns) != names or rows + count > BATCH_ROWS):
            yield batch, names is not None and rows >= COLUMNAR_MIN_ROWS
            batch, rows = [], 0
        if floats and count > BATCH_ROWS:
            for start in range(0, count, BATCH_ROWS):
                rows_slice = slice(start, start + BATCH_ROWS)
                yield [(constants, {f: c[rows_slice] for f, c in columns.items()})], True
            continue
        batch.append((constants, columns))
        names, rows = tuple(columns) if floats else None, rows + count
    if batch:
        yield batch, names is not None and rows >= COLUMNAR_MIN_ROWS


def _csv_rows(batch: list[tuple[dict, dict]], fields: list[str]) -> str:
    """CSV rows of chunks with the same 1-D float columns, laid out as bytes.

    A row is its chunk's text up to the first column, that column's
    float, the text up to the next column, and so on; the last text ends
    in the newline. Every float of the batch is formatted by one
    ``_format_g12`` call, a column that every chunk shares once. The
    pieces, each padded with NUL bytes to a fixed width, are laid side by
    side as one (rows x bytes) block, and one pass drops the NULs. A
    batch whose text holds a NUL itself is filled into its templates.
    """
    names = [f for f in fields if f in batch[0][1]]
    texts = _texts_between_columns([constants for constants, _ in batch], names, fields)
    if any("\0" in t for segment in texts for t in segment):
        return "".join(_template_rows(*chunk, fields, "csv", {}) for chunk in batch)
    counts = [len(columns[names[0]]) for _, columns in batch]
    shared = [all(columns[f] is batch[0][1][f] for _, columns in batch) for f in names]
    values = [batch[0][1][f] if s else np.concatenate([columns[f] for _, columns in batch])
              for f, s in zip(names, shared)]
    chars = _format_g12(np.concatenate(values))
    pieces, start = [_text_piece(texts[0], counts)], 0
    for column, s, text in zip(values, shared, texts[1:]):
        piece = chars[start:start + len(column)]
        pieces += [np.concatenate([piece] * len(batch)) if s else piece, _text_piece(text, counts)]
        start += len(column)
    return np.concatenate(pieces, axis=1).tobytes().translate(None, b"\0").decode()


def _texts_between_columns(constants: list[dict], names: list[str],
                           fields: list[str]) -> list[list[str]]:
    """The CSV text before, between and after the columns ``names``, per chunk.

    Every field but the first follows a comma, and the row ends in a
    newline; a field that a chunk lacks is empty.
    """
    cuts = [-1] + [fields.index(f) for f in names] + [len(fields)]
    texts = []
    for j, (a, b) in enumerate(zip(cuts, cuts[1:])):
        group = fields[a + 1:b]
        lead = "," if group and j else ""
        trail = "\n" if j == len(names) else "," if group or j else ""
        texts.append([lead + ",".join([_fmt(c[f]) if f in c else "" for f in group]) + trail
                      for c in constants] if group else [trail] * len(constants))
    return texts


def _text_piece(texts: list[str], counts: list[int]) -> np.ndarray:
    """Each chunk's text on each of its rows, as (rows x width) bytes padded with NULs."""
    if texts.count(texts[0]) == len(texts):  # one text, such as a separator, on every row
        texts, counts = texts[:1], [sum(counts)]
    data = [t.encode() for t in texts]
    width = max(map(len, data))
    chars = np.frombuffer(b"".join([d.ljust(width, b"\0") for d in data]), np.uint8)
    return np.repeat(chars.reshape(len(data), width), counts, axis=0)


# '%.12g' of an array of floats. A float whose exponent e lies in
# [-4, 11] prints in fixed notation: its 12 significant digits d0..d11,
# rounded, then trailing zeros (and a bare '.') dropped. Such a string
# is what a mask leaves of 32 candidate bytes, and the mask depends only
# on the sign, e and the last nonzero digit. The candidates are eight
# 4-byte words: "  -0", the digits, ".000", the digits again; the
# integer digits come from the first copy and the fraction digits from
# the second.
_POW10 = np.array([float(10 ** k) for k in range(16)])  # exact: 10^15 < 2^53
_DIGITS = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_GROUP_CHARS = np.stack(np.meshgrid(*[_DIGITS] * 4, indexing="ij"), axis=-1).reshape(10_000, 4)
_GROUP_WORDS = _GROUP_CHARS.view(np.uint32).ravel()  # each 4-digit group as one word
_SIGN_ZERO, _POINT_ZEROS = np.frombuffer(b"  -0.000", np.uint32)
_GROUPS = np.arange(10_000, dtype=np.uint16)
#: The index among d0..d11 of the last nonzero digit of group j (-1 for the group 0).
_GROUP_LAST = np.where(_GROUPS > 0, 3 - (_GROUPS % 10 == 0).astype(np.int8) - (_GROUPS % 100 == 0)
                       - (_GROUPS % 1000 == 0) + np.array([[0], [4], [8]], np.int8), np.int8(-1))


def _masks() -> np.ndarray:
    """The mask words of each (e, last nonzero digit, sign): row ((e + 4) * 12 + last) * 2 + sign.

    A mask byte is 0xFF where the candidate byte is kept, 0 where not.
    """
    keep = np.zeros((16, 12, 2, 32), bool)
    for e in range(-4, 12):
        for last in range(12):
            row = keep[e + 4, last]
            row[1, 2] = True  # '-'
            if e < 0:  # "0.", -e - 1 zeros, d0..d_last
                row[:, [3, 16]] = True
                row[:, 17:16 - e] = True
                row[:, 20:21 + last] = True
            else:  # d0..d_e, then '.' and d_e+1..d_last if any
                row[:, 4:5 + e] = True
                row[:, 16] = last > e
                row[:, 21 + e:21 + last] = True
    return (keep * np.uint8(0xFF)).view(np.uint32).reshape(16 * 12 * 2, 8)


_MASKS = _masks()


def _format_g12(x: np.ndarray) -> np.ndarray:
    """``'%.12g' % v`` for each v of the float64 array ``x``, as (len(x) x 32) bytes.

    Row i, without its NUL bytes, is the string of x[i]. With e =
    floor(log10|v|) clipped to [-4, 11], the digits are d = rint(y), y =
    |v| 10^(11 - e): the power is exact, and y < 2^40, the product's
    correct rounding, is within 2^-14 of the exact product, so d is the
    exact product's correct rounding unless y lies within 2^-12 of a
    half-integer. A row is accepted only if y >= 10^11 and d < 10^12,
    which rejects |v| outside [1e-4, 1e12), where '%.12g' prints
    exponent notation, a misjudged e and a carry into 10^12 (with e
    judged one too high, y >= 10^11 only where the exact digits carry to
    10^e, the same string). Every other row is formatted by Python, one
    float at a time: near-ties, carries, +-0, non-finite values and
    floats outside that range.
    """
    mag = np.abs(x)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # e clipped to [-4, 11] (NaN to -4): a float outside the range fails the y check.
        e = np.fmin(np.fmax(np.floor(np.log10(mag)), -4), 11).astype(np.intp)
        y = mag * _POW10[11 - e]
        d = np.rint(y)
        ok = (y >= 1e11) & (d < 1e12) & (np.abs(y - d) < 0.5 - 2.0 ** -12)
    d = np.where(ok, d, 1e11)
    # Float divisions are exact here: every quotient's integer part is below 10^4.
    g0 = np.floor(d / 1e8)
    rest = d - g0 * 1e8
    g1 = np.floor(rest / 1e4)
    words = np.empty((len(x), 8), np.uint32)
    words[:, 0], words[:, 4] = _SIGN_ZERO, _POINT_ZEROS
    last = e  # max(e, the last nonzero digit): the integer digits d0..d_e all print
    for j, g in enumerate([g0, g1, rest - g1 * 1e4]):
        g = g.astype(np.intp)
        words[:, 1 + j] = words[:, 5 + j] = np.take(_GROUP_WORDS, g)
        last = np.maximum(last, np.take(_GROUP_LAST[j], g))
    words &= np.take(_MASKS, ((e + 4) * 12 + last) * 2 + (x < 0), axis=0)
    chars = words.view(np.uint8)
    for i in np.flatnonzero(~ok).tolist():
        text = b"%.12g" % x[i]
        chars[i] = 0
        chars[i, :len(text)] = list(text)
    return chars


def _write(records: Records, args) -> int:
    """Emit records to ``--out`` (stdout when absent or '-'); returns exit code 0."""
    if args.out in (None, "-"):
        emit_records(records, args.format, sys.stdout)
    else:
        with open(args.out, "w", newline="\n") as fh:
            emit_records(records, args.format, fh)
    return 0


def _rates_template(count: int) -> str:
    """The %-template of a rate list: its rates to 12 digits, joined by ';'."""
    return ";".join(["%.12g"] * count)


def _rates_field(rates) -> str:
    """A rate list as one ';'-separated field."""
    return _rates_template(len(rates)) % tuple(rates)


# ---------------------------------------------------------------------------
# argument types: each raises ArgumentTypeError, so the message names the flag

def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _float_axis(spec: str) -> list[float]:
    """Parse 'a,b,c' or 'start:stop:count' into a list of floats."""
    try:
        if ":" in spec:
            start, stop, count = spec.split(":")
            if int(count) >= 1:
                return [float(v) for v in np.linspace(float(start), float(stop), int(count))]
        else:
            vals = [float(v) for v in spec.split(",") if v != ""]
            if vals:
                return vals
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"cannot parse axis {spec!r}; use 'a,b,c' or 'start:stop:count'")


def _frac_pi_axis(spec: str) -> list[float]:
    """A float axis given in multiples of pi."""
    return [x * np.pi for x in _float_axis(spec)]


def _depth_axis(spec: str) -> list[int]:
    """Parse 'a,b,c' or 'lo:hi' (inclusive) into a list of depths >= 1."""
    try:
        if ":" in spec:
            lo, hi = (int(v) for v in spec.split(":"))
            vals = list(range(lo, hi + 1))
        else:
            vals = [int(v) for v in spec.split(",") if v != ""]
    except ValueError:
        vals = []
    if not vals:
        raise argparse.ArgumentTypeError(f"cannot parse axis {spec!r}; use 'a,b,c' or 'lo:hi'")
    if min(vals) < 1:
        raise argparse.ArgumentTypeError(f"depths must be >= 1, got {spec!r}")
    return vals


def _rates(spec: str) -> list[float]:
    """Parse a rate list 'a,b,c' into floats."""
    try:
        rates = [float(v) for v in spec.split(",") if v != ""]
    except ValueError:
        rates = []
    if not rates:
        raise argparse.ArgumentTypeError(f"cannot parse rate list {spec!r}; use 'a,b,c'")
    return rates


# ---------------------------------------------------------------------------
# the quantity table and the grid

def _pointwise(closed_form):
    """A kernel calling ``closed_form(*point, value)`` -> (value,) or (value, p_succ) per row.

    Scalar calls, not numpy arrays: Python's float ``x ** 2`` is C ``pow``,
    which an array's ``x * x`` differs from in the last bit for some x.
    """
    def kernel(points: list[tuple], column: np.ndarray) -> dict[str, np.ndarray]:
        values = column.tolist()
        outputs = np.array([[closed_form(*point, v) for v in values] for point in points])
        return dict(zip(("value", "p_succ"), np.moveaxis(outputs, -1, 0)))
    return kernel


def _povm_fidelity(p, eps, n):
    c = noise.purified_coeffs_gate_noisy(p, eps, n)
    return c.fidelity, c.acceptance


def _pure_fidelity(p, eps, n, theta):
    res = dp.pure_filter_fidelity(theta, noise.purified_coeffs_gate_noisy(p, eps, n))
    return res.fidelity_out, res.p_succ


def _prefix_weights(cells: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """r_even and r_odd of ``parity_weights([p] * n, [p] * m, eps)`` per (p, eps, n, m) cell.

    One recurrence per distinct (p, eps), up to the cells' largest depth,
    holds Alice's (r0, r1) at depth n and Bob's at m for every cell, and
    the weights are ``parity_weights``' operations on them in the same
    order: each entry equals that call's bit for bit.
    """
    index: dict[tuple, int] = {}
    k, n, m = np.array([(index.setdefault((p, eps), len(index)), n - 1, m - 1)
                        for p, eps, n, m in cells]).T
    depth = int(max(n.max(), m.max())) + 1
    prefixes = [noise.purified_coeffs_prefixes(p, eps, depth) for p, eps in index]
    r0, r1 = np.array([c.r0 for c in prefixes]), np.array([c.r1 for c in prefixes])
    a0, a1, b0, b1 = r0[k, n], r1[k, n], r0[k, m], r1[k, m]
    return a0 * b0 + a1 * b1, a0 * b1 + a1 * b0


def _map_kernel(points: list[tuple], f_column: np.ndarray) -> dict[str, np.ndarray]:
    """The fidelity map on (points x F): one ``distill_map`` on the whole array."""
    r_even, r_odd = _prefix_weights(points)
    weights = dm.ParityWeights(r_even=r_even[:, None], r_odd=r_odd[:, None])
    res = dm.distill_map(f_column, weights)
    return {"value": res.fidelity_out, "p_succ": res.p_succ}


def _lower_bound_kernel(points: list[tuple], m_column: np.ndarray) -> dict[str, np.ndarray]:
    """The threshold L on (points x m), one scalar ``lower_bound`` per cell."""
    r_even, r_odd = _prefix_weights([(*point, m) for point in points for m in m_column.tolist()])
    values = [dm.lower_bound(dm.ParityWeights(r_even=e, r_odd=o))
              for e, o in zip(r_even.tolist(), r_odd.tolist())]
    return {"value": np.reshape(values, (len(points), len(m_column)))}


#: Each quantity's axes in row order, and its kernel: ``kernel(points,
#: column)`` evaluates a list of points of every axis but the last over
#: the last axis, given as a numpy column, and returns each output as a
#: (points x column) array.
QUANTITIES = {
    "povm_fidelity": (("p", "epsilon", "n"), _pointwise(_povm_fidelity)),
    "mixed_fidelity_map": (("p", "epsilon", "n", "m", "F"), _map_kernel),
    "lower_bound": (("p", "epsilon", "n", "m"), _lower_bound_kernel),
    "lower_bound_limit": (("p", "epsilon"),
                          _pointwise(lambda p, eps: (dm.lower_bound_limit(p, eps),))),
    "pure_fidelity": (("p", "epsilon", "n", "theta"), _pointwise(_pure_fidelity)),
    "pure_fidelity_limit": (("p", "epsilon", "theta"), _pointwise(
        lambda p, eps, theta: (dp.pure_filter_fidelity_limit(theta, p, eps),))),
}


def _grid(quantity: str, *grids: dict[str, list], spec: tuple | None = None) -> Records:
    """A quantity's rows over the product of its axes, grid after grid.

    ``spec`` is the (axes, kernel) pair, ``QUANTITIES[quantity]`` by
    default. Rows come in lexicographic order, the last axis varying
    fastest: one chunk per point of every axis but the last, with that
    point's values as constants and the last axis as one column that
    every chunk shares. The kernel runs once per slab, the points that
    share one value of the first axis, and each chunk's outputs are rows
    of its slab's: the kernel's temporaries are one slab's, never the
    whole grid's. Every chunk is computed, and so every input checked,
    before the first byte is written; a slab that fails runs again point
    by point, so the error is the first failing row's.
    """
    (*outer, last), kernel = spec or QUANTITIES[quantity]
    records = Records()
    for axes in grids:
        column = np.array(axes[last])
        for head in axes[outer[0]]:
            slab = list(product([head], *(axes[a] for a in outer[1:])))
            try:
                outputs = kernel(slab, column)
            except ValueError:
                for point in slab:
                    kernel([point], column)
                raise
            for point, *rows in zip(slab, *outputs.values()):
                records.add({"quantity": quantity, **dict(zip(outer, point))},
                            {last: column, **dict(zip(outputs, rows))})
    return records


# ---------------------------------------------------------------------------
# tables

def table_records() -> list[tuple[str, Records]]:
    """The five reference tables as (name, records) pairs."""
    theta = float(np.pi / 16)
    depths = [1, 2, 3, 4]
    tables = [
        ("lower_bound_p02", _grid("lower_bound",
                                  {"p": [0.2], "epsilon": [0.0], "n": depths, "m": [1, 2, 3]})),
        ("lower_bound_p01", _grid("lower_bound",
                                  {"p": [0.1], "epsilon": [0.0], "n": depths, "m": [1, 2]})),
        ("lower_bound_gate_noise", _grid("lower_bound", *(
            {"p": [0.1], "epsilon": [0.1], "n": [n], "m": [n]} for n in depths))),
        ("pure_fidelity_noiseless", _grid("pure_fidelity",
                                          {"p": [0.1], "epsilon": [0.0], "n": depths,
                                           "theta": [theta]})),
        ("pure_fidelity_gate_noise", _grid("pure_fidelity",
                                           {"p": [0.1], "epsilon": [0.05], "n": depths,
                                            "theta": [theta]})),
    ]
    for _, records in tables:
        for _, columns in records.chunks:
            # Python's round: numpy's rint(x * 1000) / 1000 differs on near-ties.
            columns["value_3dp"] = np.array([round(v, 3) for v in columns["value"].tolist()])
    return tables


def cmd_tables(args) -> int:
    outdir = Path(args.out if args.out not in (None, "-") else ".")
    outdir.mkdir(parents=True, exist_ok=True)
    ext = "json" if args.format == "json" else "csv"
    for name, recs in table_records():
        path = outdir / f"{name}.{ext}"
        with open(path, "w", newline="\n") as fh:
            emit_records(recs, args.format, fh)
        print(f"wrote {path}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# sweep

#: The axis that each sweep flag sets.
AXIS_OF_FLAG = {"--p": "p", "--epsilon": "epsilon", "--n": "n", "--m": "m", "--F": "F",
                "--theta": "theta", "--theta-frac-pi": "theta"}
#: The values of an axis whose flag is absent; every other axis is required.
AXIS_DEFAULTS = {"epsilon": [0.0], "n": [1], "m": [1]}
#: Rate draws per grid point in --het-band mode when --draws is absent.
HET_DRAWS = 20


def _sweep_records(args) -> Records:
    q, het = args.quantity, args.het_band is not None
    names, _ = QUANTITIES[q]
    if het and q != "mixed_fidelity_map":
        raise ValueError("--het-band only applies to the mixed_fidelity_map quantity")
    # HI < 1, not <= 1: RandomState.uniform may round a draw up to HI. NaN fails too.
    if het and not 0 <= args.het_band[0] <= args.het_band[1] < 1:
        raise ValueError("--het-band needs 0 <= LO <= HI < 1, got "
                         f"{args.het_band[0]} {args.het_band[1]}")
    if het and args.p is not None:
        raise ValueError("give --p or --het-band, not both: --het-band draws the rates")
    for flag in ("draws", "seed"):
        if not het and getattr(args, flag) is not None:
            raise ValueError(f"--{flag} only applies in --het-band mode")
    if het:
        names = tuple(a for a in names if a != "p")
    axes = dict(AXIS_DEFAULTS)
    for flag, axis in AXIS_OF_FLAG.items():
        values = getattr(args, flag[2:].replace("-", "_"))
        if values is not None:
            if axis not in names:
                raise ValueError(f"quantity {q} takes no {flag} axis")
            axes[axis] = values
    for axis in names:
        if axis not in axes:
            flags = " or ".join(f for f, a in AXIS_OF_FLAG.items() if a == axis)
            raise ValueError(f"quantity {q} needs a {flags} axis")
    if not het:
        return _grid(q, axes)
    draws = args.draws if args.draws is not None else HET_DRAWS
    draw = np.tile(np.arange(draws), len(axes["F"]))
    axes["F"] = np.repeat(axes["F"], draws)
    rng = np.random.RandomState(args.seed if args.seed is not None else 0)
    return _grid(q, axes, spec=(names, _het_kernel(*args.het_band, draw, rng)))


def _het_kernel(lo: float, hi: float, draw: np.ndarray, rng: np.random.RandomState):
    """The mixed_fidelity_map kernel on rates drawn from [lo, hi), a rate matrix per cell.

    A point is an (eps, n, m) cell and the column is F, each value once
    per draw; ``draw`` numbers the draws and every chunk shares it.
    Rates are drawn per row, (F, draw) row-major within a cell: one draw
    of rows x (n + m) consumes the RandomState as per-row uniform(n) then
    uniform(m) calls would. The band lies in [0, 1), so a cell fails
    only on eps or F, whatever the draws.
    """
    def kernel(points: list[tuple], f_column: np.ndarray) -> dict[str, tuple]:
        cells = []
        for eps, n, m in points:
            rates = rng.uniform(lo, hi, len(f_column) * (n + m)).reshape(len(f_column), n + m)
            res = dm.distill_map(f_column, dm.parity_weights(rates[:, :n], rates[:, n:], eps))
            cells.append((rates[:, :n], rates[:, n:], draw, res.fidelity_out, res.p_succ))
        return dict(zip(("pA", "pB", "draw", "value", "p_succ"), zip(*cells)))
    return kernel


def cmd_sweep(args) -> int:
    return _write(_sweep_records(args), args)


# ---------------------------------------------------------------------------
# verify

VERIFY_TOL = 1e-10


def run_verification(max_n: int = 3, seed: int = 7, draws: int = 20,
                     full: bool = False) -> dict[str, float]:
    """Max |analytic - oracle| per quantity over a seeded random grid; NaN if any gap is NaN.

    Every input is drawn first, in the order of a point-by-point loop.
    Then the oracle's POVMs are evaluated as one stack per (role, eps,
    depth), the roles being Alice's rates, Bob's and the pure filter's
    homogeneous rate, and each draw's mixed register and filtered ket
    are built once for all its points. The closed forms run point by
    point, in loop order.
    """
    rng = np.random.RandomState(seed)
    eps_grid = [0.0, 0.05, 0.1]
    drawn, stacks = [], defaultdict(list)
    for _ in range(draws):
        f = float(rng.uniform(0.26, 0.99))
        theta = float(rng.uniform(0.05, np.pi / 4 - 0.01))
        points = []
        for eps in eps_grid:
            for n in range(1, max_n + 1):
                p_list = list(rng.uniform(0.02, 0.3, n))
                m = int(rng.randint(1, max_n + 1))
                q_list = list(rng.uniform(0.02, 0.3, m))
                p_hom = float(rng.uniform(0.02, 0.3))
                points.append((eps, p_list, q_list, p_hom))
                for role, rates in (("A", p_list), ("B", q_list), ("hom", [p_hom] * n)):
                    stacks[role, eps, len(rates)].append(rates)
        drawn.append((f, theta, points))
    # Each stack's POVMs, handed out in the order its rows were added.
    povms = {key: map(oracle.EffectivePovm, *oracle.oracle_effective_povms(rows, key[1]))
             for key, rows in stacks.items()}

    gaps = defaultdict(list)
    for f, theta, points in drawn:
        register, psi = oracle.mixed_register(f), oracle.filtered_ket(theta)
        for eps, p_list, q_list, p_hom in points:
            n = len(p_list)
            c = noise.purified_coeffs_general(p_list, eps)
            ep = next(povms["A", eps, n])
            gaps["povm_coeffs"] += [abs(ep.r0 - c.r0), abs(ep.r1 - c.r1)]
            gaps["povm_offdiag"] += [float(np.abs(q - np.diag(np.diag(q))).max())
                                     for q in (ep.q0, ep.q1)]

            w = dm.parity_weights(p_list, q_list, eps)
            res = dm.distill_map(f, w)
            sigma = oracle.oracle_mixed_post_state(register, ep, next(povms["B", eps, len(q_list)]))
            orc = oracle.distill_result(sigma)
            gaps["mixed_fidelity"].append(abs(res.fidelity_out - orc.fidelity_out))
            gaps["mixed_p_succ"].append(abs(res.p_succ - orc.p_succ))
            gaps["mixed_state"].append(
                float(np.abs(dm.post_state_unnormalized(f, w) - sigma).max()))

            ch = noise.purified_coeffs_gate_noisy(p_hom, eps, n)
            res_p = dp.pure_filter_fidelity(theta, ch)
            sigma_p = oracle.oracle_pure_post_state(psi, next(povms["hom", eps, n]))
            orc_p = oracle.distill_result(sigma_p)
            gaps["pure_fidelity"].append(abs(res_p.fidelity_out - orc_p.fidelity_out))
            gaps["pure_p_succ"].append(abs(res_p.p_succ - orc_p.p_succ))
            gaps["pure_state"].append(
                float(np.abs(dp.pure_post_state_unnormalized(theta, ch) - sigma_p).max()))

    if full:
        for (n, m, eps) in [(2, 2, 0.0), (2, 2, 0.1), (3, 3, 0.05)]:
            f = float(rng.uniform(0.5, 0.95))
            p_a = list(rng.uniform(0.02, 0.3, n))
            p_b = list(rng.uniform(0.02, 0.3, m))
            direct = oracle.oracle_mixed_post_state_direct(f, p_a, p_b, eps)
            w = dm.parity_weights(p_a, p_b, eps)
            gaps["direct_register"].append(
                float(np.abs(direct - dm.post_state_unnormalized(f, w)).max()))
    # np.max, not max: max(0.0, nan) is 0.0, and a NaN gap must fail.
    return {name: float(np.max(v)) for name, v in gaps.items()}


def cmd_verify(args) -> int:
    """Print each check's deviation and the verdict; exit 1 on a failed check.

    A bad ``--seed`` is a usage error. Every other ``ValueError`` comes
    from the library while the checks run, a broken invariant of a
    closed form, and so fails the verification.
    """
    if not 0 <= args.seed < 2 ** 32:
        raise ValueError("Seed must be between 0 and 2**32 - 1")  # numpy's RandomState message
    settings = (f"tolerance {VERIFY_TOL:.0e}, max_n={args.max_n}, seed={args.seed}, "
                f"draws={args.draws}")
    try:
        dev = run_verification(max_n=args.max_n, seed=args.seed, draws=args.draws, full=args.full)
    except ValueError as exc:
        print(f"verification FAILED: {exc} ({settings})")
        return 1
    ok = all(v < VERIFY_TOL for v in dev.values())
    for name in sorted(dev):
        status = "ok" if dev[name] < VERIFY_TOL else "FAIL"
        print(f"{name:<20s} max|dev| = {dev[name]:.3e}  [{status}]")
    print(f"verification {'passed' if ok else 'FAILED'} ({settings})")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# single-shot protocol commands

def cmd_distill_mixed(args) -> int:
    if args.pA or args.pB:
        if not (args.pA and args.pB):
            raise ValueError("--pA and --pB must be given together")
        if args.p is not None:
            raise ValueError("give either --p or --pA/--pB, not both")
        for flag in ("n", "m"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag} does not apply with --pA/--pB: the lists' "
                                 "lengths are the depths")
        p_a, p_b = args.pA, args.pB
    else:
        if args.p is None:
            raise ValueError("distill-mixed needs --p or --pA/--pB")
        p_a, p_b = [args.p] * (args.n or 1), [args.p] * (args.m or 1)
    rounds, f = [], args.F
    weights = dm.parity_weights(p_a, p_b, args.epsilon)
    for _ in range(args.rounds):
        res = dm.distill_map(f, weights)
        rounds.append((f, res.fidelity_out, res.p_succ))
        f = res.fidelity_out
    f_col, value, p_succ = map(np.array, zip(*rounds))
    records = Records()
    records.add({"quantity": "mixed_fidelity_map", "pA": _rates_field(p_a),
                 "pB": _rates_field(p_b), "epsilon": args.epsilon, "n": len(p_a), "m": len(p_b)},
                {"F": f_col, "round": np.arange(1, args.rounds + 1), "value": value,
                 "p_succ": p_succ})
    return _write(records, args)


def cmd_distill_pure(args) -> int:
    theta = args.theta if args.theta is not None else args.theta_frac_pi * np.pi
    return _write(_grid("pure_fidelity", {"p": [args.p], "epsilon": [args.epsilon],
                                          "n": [args.n], "theta": [theta]}), args)


def cmd_povm_purify(args) -> int:
    if args.pList is not None and args.n is not None:
        raise ValueError("--n does not apply with --pList: the list's length is the depth")
    if args.pList is not None:
        c = noise.purified_coeffs_general(args.pList, args.epsilon)
        p_field = _rates_field(args.pList)
    else:
        c = noise.purified_coeffs_gate_noisy(args.p, args.epsilon, args.n or 1)
        p_field = args.p
    records = Records()
    records.add({"quantity": "povm_fidelity", "p": p_field, "epsilon": args.epsilon, "n": c.n,
                 "r0": c.r0, "r1": c.r1, "value": c.fidelity, "p_succ": c.acceptance})
    return _write(records, args)


# ---------------------------------------------------------------------------

def _add_io_args(sub):
    sub.add_argument("--format", choices=["csv", "json"], default="csv")
    sub.add_argument("--out", default=None, metavar="PATH",
                     help="output file (default stdout); a directory for 'tables'")


def _add_tables_args(sub):
    sub.set_defaults(run=cmd_tables)
    _add_io_args(sub)


def _add_sweep_args(sub):
    sub.set_defaults(run=cmd_sweep)
    sub.add_argument("--quantity", choices=QUANTITIES, required=True)
    sub.add_argument("--p", type=_float_axis, help="axis: 'a,b,c' or 'start:stop:count'")
    sub.add_argument("--epsilon", type=_float_axis, help="axis (default 0)")
    sub.add_argument("--n", type=_depth_axis, help="axis: 'a,b,c' or 'lo:hi' (default 1)")
    sub.add_argument("--m", type=_depth_axis, help="axis (default 1)")
    sub.add_argument("--F", type=_float_axis, help="axis of input singlet fractions")
    theta = sub.add_mutually_exclusive_group()
    theta.add_argument("--theta", type=_float_axis, help="axis of Schmidt angles in radians")
    theta.add_argument("--theta-frac-pi", dest="theta_frac_pi", type=_frac_pi_axis,
                       help="axis of Schmidt angles as multiples of pi")
    sub.add_argument("--het-band", dest="het_band", nargs=2, type=float,
                     metavar=("LO", "HI"),
                     help="draw per-measurement rates uniformly from [LO, HI) with "
                          "0 <= LO <= HI < 1")
    sub.add_argument("--draws", type=_positive_int,
                     help=f"random draws per grid point in --het-band mode (default {HET_DRAWS})")
    sub.add_argument("--seed", type=int, default=None,
                     help="seed for --het-band mode")
    _add_io_args(sub)


def _add_verify_args(sub):
    sub.set_defaults(run=cmd_verify)
    sub.add_argument("--max-n", dest="max_n", type=int, default=3, choices=[1, 2, 3, 4])
    sub.add_argument("--seed", type=int, default=7)
    sub.add_argument("--draws", type=_positive_int, default=20)
    sub.add_argument("--full", action="store_true",
                     help="also run the direct full-register checks (up to 8 qubits)")


def _add_distill_mixed_args(sub):
    sub.set_defaults(run=cmd_distill_mixed)
    sub.add_argument("--F", type=float, required=True)
    sub.add_argument("--p", type=float)
    sub.add_argument("--pA", type=_rates, help="comma-separated per-measurement rates for Alice")
    sub.add_argument("--pB", type=_rates, help="comma-separated per-measurement rates for Bob")
    sub.add_argument("--n", type=_positive_int, help="Alice's depth with --p (default 1)")
    sub.add_argument("--m", type=_positive_int, help="Bob's depth with --p (default 1)")
    sub.add_argument("--epsilon", type=float, default=0.0)
    sub.add_argument("--rounds", type=_positive_int, default=1,
                     help="iterate the map with the same weights; this assumes each round's "
                          "output is twirled back to an isotropic state before the next")
    _add_io_args(sub)


def _add_distill_pure_args(sub):
    sub.set_defaults(run=cmd_distill_pure)
    theta = sub.add_mutually_exclusive_group(required=True)
    theta.add_argument("--theta", type=float)
    theta.add_argument("--theta-frac-pi", dest="theta_frac_pi", type=float)
    sub.add_argument("--p", type=float, required=True)
    sub.add_argument("--epsilon", type=float, default=0.0)
    sub.add_argument("--n", type=_positive_int, default=1)
    _add_io_args(sub)


def _add_povm_purify_args(sub):
    sub.set_defaults(run=cmd_povm_purify)
    rates = sub.add_mutually_exclusive_group(required=True)
    rates.add_argument("--p", type=float)
    rates.add_argument("--pList", type=_rates, help="comma-separated heterogeneous rates")
    sub.add_argument("--epsilon", type=float, default=0.0)
    sub.add_argument("--n", type=_positive_int, help="depth with --p (default 1)")
    _add_io_args(sub)


#: Each subcommand, in help order: the function that sets its run
#: function and adds its arguments, and the ``add_parser`` keywords of its
#: help text. The run function is looked up when the parser is built, so a
#: wrapper put on a module's ``cmd_*`` binding is the one that runs.
COMMANDS = {
    "tables": (_add_tables_args, {"help": "write the five reference tables"}),
    "sweep": (_add_sweep_args, {
        "help": "evaluate a quantity over a parameter grid",
        "epilog": "lower_bound is the threshold L: above F = 1/4, one round raises F exactly "
                  "for F in (L, 1), so L >= 1 means that window is empty."}),
    "verify": (_add_verify_args, {"help": "analytic layer vs density-matrix oracle"}),
    "distill-mixed": (_add_distill_mixed_args,
                      {"help": "two-way distillation of isotropic states"}),
    "distill-pure": (_add_distill_pure_args, {"help": "filter a Schmidt-form pure state"}),
    "povm-purify": (_add_povm_purify_args, {"help": "purified-measurement coefficients"}),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser; with ``command`` one of COMMANDS, only that subcommand's.

    Building a subparser costs far more than parsing, so ``main`` builds
    only the one that ``argv[0]`` names. The usage line names every
    command either way: ``parser.error`` prints it. The full parser keeps
    argparse's default metavar, from which the "required: command" error
    is built.
    """
    parser = argparse.ArgumentParser(
        prog="entdistill",
        description="Noisy-measurement purification and entanglement distillation.")
    names = [command] if command in COMMANDS else list(COMMANDS)
    subs = parser.add_subparsers(
        dest="command", required=True,
        metavar="{" + ",".join(COMMANDS) + "}" if len(names) == 1 else None)
    for name in names:
        add_args, help_text = COMMANDS[name]
        add_args(subs.add_parser(name, **help_text))
    return parser


def main(argv=None) -> int:
    """Run the CLI on ``argv`` (default ``sys.argv[1:]``) in-process; returns the exit code."""
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        try:
            return args.run(args)
        except ValueError as exc:
            parser.error(str(exc))
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    except SystemExit as exc:
        if isinstance(exc.code, int):
            return exc.code
        return 2 if exc.code else 0


if __name__ == "__main__":
    sys.exit(main())
