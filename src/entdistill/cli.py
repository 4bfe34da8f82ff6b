"""Command-line front end: golden tables, parameter sweeps, verification.

Subcommands:

- ``tables``        write the five reference tables as CSV/JSON files
- ``sweep``         evaluate one quantity over a parameter grid
- ``verify``        check the analytic layer against the density-matrix oracle
- ``distill-mixed`` one (or several iterated) two-way distillation rounds
- ``distill-pure``  pure-state filtering fidelity
- ``povm-purify``   purified-measurement coefficients and fidelity

Output uses '.' as the decimal separator and Unix newlines, so
identical inputs give byte-identical output. CSV numbers and rate lists
print to 12 significant digits ('%.12g'). JSON output is one record per
line, each carrying a ``schema_version`` field: its floats print as
their shortest round-trip repr (``json.dumps``), its rate lists as
strings of 12-digit rates, and a record re-serializes to the same bytes
after a parse/format round trip.

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


def _slot(column: np.ndarray, fmt: str, seen: dict, chunks: list) -> tuple[str, list[list]]:
    """A column's %-template slot and the value lists that fill it.

    '%.12g' % x and '%r' % x give the bytes of f"{x:.12g}" and of
    json.dumps(x) for a finite float x. A column that several chunks
    share is formatted to strings once, at its second use; ``seen`` holds
    what earlier chunks used. The first 2-D column met formats every
    rate list of ``chunks`` (``_rate_lists``) into ``seen``.
    """
    key = id(column)
    if seen.get(key):  # formatted at an earlier chunk
        return seen[key]
    if column.ndim == 2:
        seen.update(_rate_lists(chunks, fmt))
        return seen[key]
    kind, lists = column.dtype.kind, [column.tolist()]
    if kind == "f" and (fmt == "csv" or np.isfinite(column).all()):
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


def _rate_lists(chunks: list, fmt: str) -> dict[int, tuple[str, list[list]]]:
    """Every 2-D column of ``chunks`` as ``_slot`` gives it, keyed by ``id``.

    A 2-D column is a rate-list field: each row prints as its rates to 12
    digits joined by ';', a string in JSON (the digits need no escaping).
    The rates of every column of one width, a column that chunks share
    once, are laid out by one ``_rate_block`` call and split into the
    rows' strings.
    """
    widths: dict[int, dict[int, np.ndarray]] = defaultdict(dict)
    for _, columns in chunks:
        for column in columns.values():
            if column.ndim == 2:
                widths[column.shape[1]][id(column)] = column
    slot, out = "%s" if fmt == "csv" else '"%s"', {}
    for found in widths.values():
        rates = np.concatenate(list(found.values()), dtype=np.float64)
        block = _rate_block(_format_g12(rates.ravel()), [rates.shape])
        block[:, -1] = ord("\n")  # the NUL after each row's last rate
        strings, start = block.tobytes().translate(None, b"\0").decode().split("\n"), 0
        for key, column in found.items():
            out[key] = slot, [strings[start:start + len(column)]]
            start += len(column)
    return out


def _template_rows(constants: dict, columns: dict, fields: list[str] | None, fmt: str,
                   seen: dict, chunks: list) -> str:
    """One chunk's rows: a %-template of its constants, with a slot per column.

    CSV rows have the fields ``fields``; a JSON row has its own keys in
    sorted order, ``schema_version`` among them. A JSON chunk of one row
    is one ``json.dumps`` of its row.
    """
    if fmt == "json":
        constants = {**constants, "schema_version": SCHEMA_VERSION}
        if all(len(column) == 1 for column in columns.values()):
            row = {f: _rates_field(c[0].tolist()) if c.ndim == 2 else c[0].item()
                   for f, c in columns.items()}
            return json.dumps({**constants, **row}, sort_keys=True) + "\n"
        fields = sorted([*constants, *columns])
    parts, values = [], []
    for f in fields:
        if f in columns:
            slot, lists = _slot(columns[f], fmt, seen, chunks)
            values += lists
        elif f in constants:
            const = constants[f]
            slot = (json.dumps(const) if fmt == "json" else _fmt(const)).replace("%", "%%")
        else:
            slot = ""
        parts.append(slot if fmt == "csv" else f"{json.dumps(f)}: {slot}")
    template = (",".join(parts) if fmt == "csv" else "{" + ", ".join(parts) + "}") + "\n"
    return "".join(map(template.__mod__, zip(*values) if values else [()]))


#: Rows from which a batch is laid out as bytes, not filled into
#: %-templates chunk by chunk. The columnar path costs about 90 us a
#: batch plus 0.4 us a row, the templates about 1.2 us a row: on
#: mixed_fidelity_map batches of one chunk or of 8-row chunks, they
#: break even between 96 and 128 rows, in CSV and in JSON alike.
COLUMNAR_MIN_ROWS = 128
#: Rows of one columnar batch at most, a longer chunk cut into slices.
#: An 8,000-row CSV sweep emitted in batches of up to 2,048, 4,096 or
#: 8,192 rows took 0.45, 0.37 and 0.55 of the templates' time.
BATCH_ROWS = 4096
#: Bytes of one batch's block at most, as ``_row_bytes`` estimates a
#: row: a JSON row is about four times a CSV row's width.
BATCH_BYTES = 1 << 20


def emit_records(records: Records, fmt: str, out) -> None:
    """Write records as CSV (fixed column order) or JSON lines, a batch at a time.

    Consecutive chunks whose columns have the same names and kinds (1-D
    float64, 1-D integer, or 2-D rate lists) form a batch (``_batches``). From ``COLUMNAR_MIN_ROWS`` rows on, a batch is laid
    out as bytes (``_columnar_rows``); every other chunk is a %-template
    of its constants with one slot per column, filled from the columns
    (``_template_rows``). A chunk without columns is the template alone,
    one row. CSV floats print as '%.12g', JSON floats as their shortest
    round-trip repr, and rate lists as their rates to 12 digits joined
    by ';', a string in JSON. JSON keys come in ``sort_keys`` order.
    """
    fields = None
    if fmt == "csv":
        fields = _ordered_fields(records)
        out.write(",".join(fields) + "\n")
    seen: dict = {}
    # Fewer rows in all than the crossover: no batch can reach it.
    batches = (_batches(records.chunks, fmt) if len(records) >= COLUMNAR_MIN_ROWS
               else [(records.chunks, False)])
    for batch, columnar in batches:
        if columnar:
            _columnar_rows(batch, fields, fmt, out)
            continue
        for constants, columns in batch:
            out.write(_template_rows(constants, columns, fields, fmt, seen, batch))


def _kind(column: np.ndarray) -> str | None:
    """A column's kind in a batch: "f" (1-D float64), "i" (1-D integers), "r" (2-D,
    rate lists of any width), or None for a column that only a template formats."""
    if column.ndim == 2:
        return "r"
    if column.ndim == 1 and column.dtype.char == "d":
        return "f"
    return "i" if column.ndim == 1 and column.dtype.kind in "iu" else None


def _row_bytes(constants: dict, columns: dict, kinds: tuple, fmt: str) -> int:
    """A row's estimated width in a columnar block: its columns' bytes and 16 a field."""
    width = (16 * (len(constants) + len(kinds)) + kinds.count("i") * 21
             + kinds.count("f") * (48 if fmt == "json" else 32))
    if "r" in kinds:
        width += 33 * sum(c.shape[1] for c in columns.values() if c.ndim == 2)
    return width


def _batches(chunks: list[tuple[dict, dict]], fmt: str):
    """The chunks in order, as (batch, columnar) pairs.

    Consecutive chunks whose columns are the same names of the same
    kinds (``_kind``) form a batch of at most ``BATCH_ROWS`` rows and
    ``BATCH_BYTES`` bytes, columnar from ``COLUMNAR_MIN_ROWS`` rows on.
    A longer chunk is cut into slices of that many rows, each a columnar
    batch: a slice is a new array, which must not reach the template
    path's cache keyed by ``id``. Every other chunk is a template batch
    of its own.
    """
    batch, signature, rows, size = [], None, 0, 0
    for constants, columns in chunks:
        count = len(next(iter(columns.values()))) if columns else 1
        kinds = tuple(map(_kind, columns.values()))
        shape = (tuple(columns), kinds) if columns and count and None not in kinds else None
        width = _row_bytes(constants, columns, kinds, fmt) if shape else 0
        if batch and (shape is None or shape != signature or rows + count > BATCH_ROWS
                      or size + count * width > BATCH_BYTES):
            yield batch, signature is not None and rows >= COLUMNAR_MIN_ROWS
            batch, rows, size = [], 0, 0
        if shape and (count > BATCH_ROWS or count * width > BATCH_BYTES):
            cap = max(1, min(BATCH_ROWS, BATCH_BYTES // width))
            for start in range(0, count, cap):
                rows_slice = slice(start, start + cap)
                yield [(constants, {f: c[rows_slice] for f, c in columns.items()})], True
            continue
        batch.append((constants, columns))
        signature, rows, size = shape, rows + count, size + count * width
    if batch:
        yield batch, signature is not None and rows >= COLUMNAR_MIN_ROWS


def _columnar_rows(batch: list[tuple[dict, dict]], fields: list[str] | None, fmt: str,
                   out) -> None:
    """Write the rows of chunks whose columns are the same names and kinds, laid out as bytes.

    A row is its chunk's text up to the first column, that column's
    bytes (``_column_blocks``), the text up to the next column, and so
    on; the last text ends in the newline. A column that every chunk
    shares is formatted once. The pieces, each padded with NUL bytes to
    a fixed width, are laid side by side as (rows x bytes) blocks, and
    one pass over each drops the NULs. A batch whose text holds a NUL or a JSON marker itself
    (``_row_texts``) is filled into its templates.
    """
    first = batch[0][1]
    names = sorted(first) if fields is None else [f for f in fields if f in first]
    texts = [_row_texts(*chunk, fields, fmt) for chunk in batch]
    if any(len(t) != len(names) + 1 for t in texts):
        for chunk in batch:
            out.write(_template_rows(*chunk, fields, fmt, {}, batch))
        return
    counts = [len(columns[names[0]]) for _, columns in batch]
    shared = [all(columns[f] is first[f] for _, columns in batch) for f in names]
    arrays = [[first[f]] if s else [columns[f] for _, columns in batch]
              for f, s in zip(names, shared)]
    texts = list(zip(*texts))
    pieces = [_text_piece(texts[0], counts)]
    for block, s, text in zip(_column_blocks(arrays, fmt), shared, texts[1:]):
        pieces += [np.concatenate([block] * len(batch)) if s else block, _text_piece(text, counts)]
    rows, width = sum(counts), sum(piece.shape[1] for piece in pieces)
    # Even slices of at most a quarter of BATCH_BYTES: in-process, emitting the
    # 2,000-row het JSON batch took 10% less than in halves, and a 4,000-row
    # grid CSV batch the same, as in eighths.
    step = -(-rows // -(-rows * width // (BATCH_BYTES // 4)))
    for start in range(0, rows, step):
        block = bytearray(min(step, rows - start) * width)
        np.concatenate([piece[start:start + step] for piece in pieces], axis=1,
                       out=np.frombuffer(block, np.uint8).reshape(-1, width))
        out.write(block.translate(None, b"\0").decode())


def _row_texts(constants: dict, columns: dict, fields: list[str] | None, fmt: str) -> list[str]:
    r"""A chunk's row text before, between and after its columns.

    The row is written with a NUL in place of each column and split
    there. CSV: the fields ``fields`` joined by ',', a field that the
    chunk lacks empty. JSON: one ``json.dumps`` of the row with
    ``schema_version``, each column a marker string: "\0" for a 1-D
    column, its quotes replaced with it, and "\x01" for a rate-list
    column, its quotes kept. The row ends in a newline. A constant or
    key whose text holds a NUL or a marker gives more pieces than
    columns + 1.
    """
    if fmt == "csv":
        row = ",".join(["\0" if f in columns else _fmt(constants[f]) if f in constants else ""
                        for f in fields])
    else:
        marks = {f: "\0" if c.ndim == 1 else "\1" for f, c in columns.items()}
        row = json.dumps({**constants, "schema_version": SCHEMA_VERSION, **marks}, sort_keys=True)
        row = row.replace('"\\u0000"', "\0").replace("\\u0001", "\0")
    return (row + "\n").split("\0")


def _column_blocks(columns: list[list[np.ndarray]], fmt: str) -> list[np.ndarray]:
    """Each column, given as its arrays chunk by chunk, as a (rows x width) block of bytes.

    A 1-D float64 column prints as '%.12g' (``_format_g12``) in CSV and
    as its repr (``_format_repr``) in JSON, an integer column as its
    digits, a 2-D column as its rate lists (``_rate_block``). One call
    of each kernel formats every float of ``columns`` that it takes.
    """
    floats = _format_g12 if fmt == "csv" else _format_repr
    kernels = [{"f": floats, "r": _format_g12}.get(_kind(arrays[0])) for arrays in columns]
    chars = {kernel: kernel(np.concatenate([a.ravel() for arrays, k in zip(columns, kernels)
                                            if k is kernel for a in arrays], dtype=np.float64))
             for kernel in dict.fromkeys(kernels) if kernel is not None}
    starts, blocks = dict.fromkeys(chars, 0), []
    for arrays, kernel in zip(columns, kernels):
        if kernel is None:  # integers
            digits = np.concatenate(arrays).astype("S")[:, None].view(np.uint8)
            blocks.append(digits[:, digits.any(axis=0)])  # 21 bytes wide before
            continue
        start, size = starts[kernel], sum(a.size for a in arrays)
        block, starts[kernel] = chars[kernel][start:start + size], start + size
        blocks.append(block if arrays[0].ndim == 1
                      else _rate_block(block, [a.shape for a in arrays]))
    return blocks


def _rate_block(chars: np.ndarray, shapes: list[tuple[int, int]]) -> np.ndarray:
    """Rate lists as one (rows x bytes) block, each row's rates joined by ';'.

    ``chars`` is the ``_format_g12`` bytes of (rows x width) rate
    matrices of the given ``shapes``, raveled one after another. Each
    rate's bytes are followed by ';', a NUL after a row's last rate, and
    every row is padded with NULs to the widest row.
    """
    widths = np.repeat([width for _, width in shapes], [count for count, _ in shapes])
    rows, width, ends = len(widths), int(widths.max()), np.cumsum(widths)
    rates = np.empty((len(chars), chars.shape[1] + 1), np.uint8)
    rates[:, :-1] = chars
    rates[:, -1] = ord(";")
    rates[ends - 1, -1] = 0
    # Rate j of row r goes to slot r * width + j of the padded (rows * width) slots.
    out = np.zeros((rows * width, rates.shape[1]), np.uint8)
    out[np.arange(len(rates)) + np.repeat(np.arange(0, rows * width, width) - ends + widths,
                                          widths)] = rates
    return out.reshape(rows, -1)


def _text_piece(texts: list[str], counts: list[int]) -> np.ndarray:
    """Each chunk's text on each of its rows, as (rows x width) bytes padded with NULs."""
    if texts.count(texts[0]) == len(texts):  # one text, such as a separator, on every row
        texts, counts = texts[:1], [sum(counts)]
    data = [t.encode() for t in texts]
    width = max(map(len, data))
    chars = np.frombuffer(b"".join([d.ljust(width, b"\0") for d in data]), np.uint8)
    return np.repeat(chars.reshape(len(data), width), counts, axis=0)


# The float kernels. '%.12g' prints a float whose exponent e lies in
# [-4, 11] in fixed notation, and repr one whose e lies in [-4, 15]: its
# significant digits d0, d1, ..., rounded (12 of them for '%.12g', the
# fewest that read back as the float for repr), then trailing zeros
# dropped; '%.12g' drops a bare '.', repr keeps ".0". Such a string is
# what a mask leaves of a row of candidate bytes, and the mask depends
# only on the sign, e and the last nonzero digit. The candidates are
# 4-byte words: "  -0", the digits in 4-digit groups, ".000", the digits
# again; the integer digits come from the first copy and the fraction
# digits from the second.
_POW10 = np.array([float(10 ** k) for k in range(23)])  # exact: 5^22 < 2^53
_DIGITS = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_GROUP_CHARS = np.stack(np.meshgrid(*[_DIGITS] * 4, indexing="ij"), axis=-1).reshape(10_000, 4)
_GROUP_WORDS = _GROUP_CHARS.view(np.uint32).ravel()  # each 4-digit group as one word
_SIGN_ZERO, _POINT_ZEROS = np.frombuffer(b"  -0.000", np.uint32)
_GROUPS = np.arange(10_000, dtype=np.uint16)
#: The index among d0, d1, ... of the last nonzero digit of group j (-1 for the group 0).
_GROUP_LAST = np.where(_GROUPS > 0, 3 - (_GROUPS % 10 == 0).astype(np.int8) - (_GROUPS % 100 == 0)
                       - (_GROUPS % 1000 == 0) + np.arange(0, 20, 4, dtype=np.int8)[:, None],
                       np.int8(-1))


def _masks(digits: int, top: int, point_zero: bool) -> np.ndarray:
    """The mask words of each (e, last nonzero digit, sign): row ((e + 4) * digits + last) * 2 + sign.

    For strings of up to ``digits`` significant digits in fixed notation
    for e in [-4, ``top``], ".0" after an integer with ``point_zero``. A
    mask byte is 0xFF where the candidate byte is kept, 0 where not.
    """
    point = 4 + 4 * -(-digits // 4)  # the byte of '.'; the second copy starts at point + 4
    keep = np.zeros((top + 5, digits, 2, 2 * point), bool)
    for e in range(-4, top + 1):
        for last in range(digits):
            row = keep[e + 4, last]
            row[1, 2] = True  # '-'
            if e < 0:  # "0.", -e - 1 zeros, d0..d_last
                row[:, [3, point]] = True
                row[:, point + 1:point - e] = True
                row[:, point + 4:point + 5 + last] = True
            else:  # d0..d_e, then '.' and d_e+1..d_last if any, or ".0"
                row[:, 4:5 + e] = True
                row[:, point] = last > e or point_zero
                row[:, point + 1] = last == e and point_zero
                row[:, point + 5 + e:point + 5 + last] = True
    return (keep * np.uint8(0xFF)).view(np.uint32).reshape(-1, point // 2)


_MASKS = _masks(12, 11, False)
_REPR_MASKS = _masks(17, 15, True)


def _format_g12(x: np.ndarray) -> np.ndarray:
    """``'%.12g' % v`` for each v of the float64 array ``x``, as (len(x) x 32) bytes.

    Row i, without its NUL bytes, is the string of x[i]. With e =
    floor(log10|v|) clipped to [-4, 11], the digits are d = rint(y), y =
    |v| 10^(11 - e): the power is exact, and y < 2^40, the product's
    correct rounding, is within 2^-14 of the exact product, so d is the
    exact product's correct rounding unless y lies within 2^-12 of a
    half-integer. A row is accepted only if y >= 10^11 and d <= 10^12,
    which rejects |v| outside [1e-4, 1e12), where '%.12g' prints
    exponent notation, and a misjudged e (with e judged one too high,
    y >= 10^11 only where the exact digits carry to 10^e, the same
    string). d = 10^12 is a carry: the digit 1 at e + 1, accepted for
    e < 11. Every other row is formatted by Python: near-ties, +-0,
    non-finite values and floats outside that range.
    """
    mag = np.abs(x)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # e clipped to [-4, 11] (NaN to -4): a float outside the range fails the y check.
        e = np.fmin(np.fmax(np.floor(np.log10(mag)), -4), 11).astype(np.intp)
        y = mag * _POW10[11 - e]
        d = np.rint(y)
        carry = d == 1e12
        ok = (y >= 1e11) & (d <= 1e12) & (np.abs(y - d) < 0.5 - 2.0 ** -12) & ~(carry & (e == 11))
    d = np.where(ok & ~carry, d, 1e11)
    e = e + (ok & carry)
    # Float divisions are exact here: every quotient's integer part is below 10^4.
    g0 = np.floor(d / 1e8)
    rest = d - g0 * 1e8
    g1 = np.floor(rest / 1e4)
    return _masked_digits(x, e, [g0, g1, rest - g1 * 1e4], ok, _MASKS, 12,
                          lambda v: b"%.12g" % v)


def _format_repr(x: np.ndarray) -> np.ndarray:
    """``json.dumps(v)`` for each v of the float64 array ``x``, as (len(x) x 48) bytes.

    Row i, without its NUL bytes, is the string of x[i]: ``repr(v)``, the
    shortest string that reads back as v, for a finite v. Its digits
    come from ``_shortest_digits``; every row that it rejects is
    formatted by Python: ties in the rounding (repr rounds them to even),
    a carry past e = 15, +-0, non-finite values and floats outside
    [1e-4, 1e16), where repr prints exponent notation.
    """
    digits, e, ok = _shortest_digits(np.abs(x))
    # d0..d7 and d8..d16: each below 2^53, so float divisions split them exactly.
    top, bottom = np.divmod(digits, 10 ** 9)
    top, bottom = top.astype(np.float64), bottom.astype(np.float64) * 1000
    g0, g2 = np.floor(top / 1e4), np.floor(bottom / 1e8)
    rest = bottom - g2 * 1e8
    g3 = np.floor(rest / 1e4)
    groups = [g0, top - g0 * 1e4, g2, g3, rest - g3 * 1e4]
    return _masked_digits(x, e, groups, ok, _REPR_MASKS, 17, lambda v: json.dumps(v).encode())


def _shortest_digits(mag: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 digits d0..d16 of each shortest repr, as an int64, its e, and whether found.

    With e = floor(log10 mag) clipped to [-4, 15], P = mag 10^(16 - e)
    is computed exactly as hi + lo (Dekker's two-product; the power is
    exact), and split into an integer n and a fraction in [0, 1). A row
    is accepted only if n has 17 digits, which rejects mag outside
    [1e-4, 1e16) and a misjudged e. The candidates are P rounded to 15,
    16 and 17 digits, and each is exactly compared with half the
    float's gap above, scaled by the same power of ten: the digits are
    the first candidate that lies closer to P. A string of 15 digits or
    fewer reads back as at most one float (DBL_DIG = 15), so if any
    does, the nearest 15-digit one is it; and where the gaps on both
    sides of the float are equal, the nearest 16- or 17-digit candidate
    reads back as it whenever any string of that length does. At a
    power of two the gap below is half the gap above, but in this range
    P is then a multiple of 100 (e < 15), or a multiple of 10 at least
    20 from one (e = 15), so the first candidate that fits is P itself.
    Rejected: rows out of range, ties in the rounding, a carry past
    e = 15; their digits are 10^16 and their e is 0.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        e = np.fmin(np.fmax(np.floor(np.log10(mag)), -4), 15).astype(np.intp)
        power = _POW10[16 - e]
        hi = mag * power
        lo = _product_error(mag, power, hi)
        # mag = f 2^exponent with f in [0.5, 1): half the gap between mag and the
        # next float is 2^(exponent - 54), times 10^(16 - e) exactly.
        half_gap = np.ldexp(power, np.frexp(mag)[1] - 54)
        ok = (hi >= 1e16) & (hi <= 1e17)
    lo = np.where(ok, lo, 0.0)
    whole = np.floor(lo)
    frac = lo - whole
    n = np.where(ok, hi, 1e16).astype(np.int64) + whole.astype(np.int64)  # P = n + frac
    ok &= (n >= 10 ** 16) & (n < 10 ** 17)
    # The candidate of step s (100, 10, 1: 15, 16 and 17 digits) is n + offset, offset =
    # s - rest if P rounds up, else -rest, rest = n mod s. The offsets, rests and
    # frac are small floats, so every step below is exact.
    rest = (n - n // 100 * 100).astype(np.float64)
    offsets, ties, fits = [], [], []
    for step, remainder in zip((100, 10, 1), [rest, rest - np.floor(rest / 10) * 10, 0.0]):
        half = step / 2 - remainder
        offset = np.where(frac > half, step - remainder, -remainder)
        offsets.append(offset)
        ties.append(frac == half)
        fits.append(np.abs(offset - frac) < half_gap)  # |candidate - P| < half the gap
    offset = np.where(fits[0], offsets[0], np.where(fits[1], offsets[1], offsets[2]))
    tie = np.where(fits[0], ties[0], np.where(fits[1], ties[1], ties[2] | ~fits[2]))
    digits = n + offset.astype(np.int64)
    carry = digits >= 10 ** 17  # rounded up to 10^(e + 1): one digit, "1"
    digits, e = np.where(carry, 10 ** 16, digits), e + carry
    ok &= ~tie & (e <= 15)
    return np.where(ok, digits, 10 ** 16), np.where(ok, e, 0), ok


def _masked_digits(x: np.ndarray, e: np.ndarray, groups: list[np.ndarray], ok: np.ndarray,
                   masks: np.ndarray, digits: int, python) -> np.ndarray:
    """The kernels' bytes: the candidate words of the digit ``groups``, masked.

    Each row's mask is that of its sign, e and last nonzero digit, at
    least e (the integer digits all print). The rows not ``ok`` are
    ``python(v)`` for their float v.
    """
    words = np.empty((len(x), 2 * len(groups) + 2), np.uint32)
    words[:, 0], words[:, len(groups) + 1] = _SIGN_ZERO, _POINT_ZEROS
    last = e
    for j, g in enumerate(groups):
        g = g.astype(np.intp)
        words[:, 1 + j] = words[:, len(groups) + 2 + j] = np.take(_GROUP_WORDS, g)
        last = np.maximum(last, np.take(_GROUP_LAST[j], g))
    words &= np.take(masks, ((e + 4) * digits + last) * 2 + (x < 0), axis=0)
    chars = words.view(np.uint8)
    bad = np.flatnonzero(~ok)
    if len(bad):
        texts = np.array([python(v) for v in x[bad].tolist()], f"S{chars.shape[1]}")
        chars[bad] = texts.view(np.uint8).reshape(len(bad), -1)
    return chars


def _product_error(a: np.ndarray, b: np.ndarray, product: np.ndarray) -> np.ndarray:
    """a b - product exactly, where product is a b rounded (Dekker's two-product)."""
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    return a_lo * b_lo - (((product - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a as hi + lo exactly, each with at most 26 significant bits (Veltkamp's split)."""
    t = 134217729.0 * a  # 2^27 + 1
    hi = t - (t - a)
    return hi, a - hi


def _write(records: Records, args) -> int:
    """Emit records to ``--out`` (stdout when absent or '-'); returns exit code 0."""
    if args.out in (None, "-"):
        emit_records(records, args.format, sys.stdout)
    else:
        with open(args.out, "w", newline="\n") as fh:
            emit_records(records, args.format, fh)
    return 0


def _rates_field(rates) -> str:
    """A rate list as one ';'-separated field, each rate to 12 digits."""
    return ";".join(["%.12g"] * len(rates)) % tuple(rates)


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


def _prefix_weights(cells: list[tuple], column: bool = False) -> dm.ParityWeights:
    """``parity_weights([p] * n, [p] * m, eps)`` per (p, eps, n, m) cell, as arrays.

    One recurrence per distinct (p, eps), up to the cells' largest depth,
    holds Alice's (r0, r1) at depth n and Bob's at m for every cell, and
    ``dm.weights_from_coeffs`` forms the weights: each entry equals that
    call's bit for bit. With ``column`` the arrays are (cells x 1).
    """
    index: dict[tuple, int] = {}
    k, n, m = np.array([(index.setdefault((p, eps), len(index)), n - 1, m - 1)
                        for p, eps, n, m in cells]).T
    depth = int(max(n.max(), m.max())) + 1
    prefixes = [noise.purified_coeffs_prefixes(p, eps, depth) for p, eps in index]
    r0, r1 = np.array([c.r0 for c in prefixes]), np.array([c.r1 for c in prefixes])
    if column:
        k, n, m = k[:, None], n[:, None], m[:, None]
    return dm.weights_from_coeffs(r0[k, n], r1[k, n], r0[k, m], r1[k, m])


def _map_kernel(points: list[tuple], f_column: np.ndarray) -> dict[str, np.ndarray]:
    """The fidelity map on (points x F): one ``distill_map`` on the whole array."""
    res = dm.distill_map(f_column, _prefix_weights(points, column=True))
    return {"value": res.fidelity_out, "p_succ": res.p_succ}


def _lower_bound_kernel(points: list[tuple], m_column: np.ndarray) -> dict[str, np.ndarray]:
    """The threshold L on (points x m), one scalar ``lower_bound`` per cell."""
    weights = _prefix_weights([(*point, m) for point in points for m in m_column.tolist()])
    values = [dm.lower_bound(dm.ParityWeights(r_even=e, r_odd=o))
              for e, o in zip(weights.r_even.tolist(), weights.r_odd.tolist())]
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
    Every cell's rates are drawn first, cell after cell, one draw of rows
    x (n + m) each, (F, draw) row-major: this consumes the RandomState as
    per-row uniform(n) then uniform(m) calls would. Then one recurrence
    per (party, depth) runs on that party's rate blocks of that width,
    stacked, and one ``distill_map`` on the slab's (cells x rows) array.
    Every operation is elementwise, so each value equals the per-cell
    calls' bit for bit. The band lies in [0, 1), so a cell fails only on
    eps or F, whatever the draws.
    """
    def kernel(points: list[tuple], f_column: np.ndarray) -> dict[str, list | np.ndarray]:
        rows, eps = len(f_column), points[0][0]  # a slab's points share eps, its first axis
        rates = [rng.uniform(lo, hi, rows * (n + m)).reshape(rows, n + m) for _, n, m in points]
        p_a = [r[:, :n] for r, (_, n, _) in zip(rates, points)]
        p_b = [r[:, n:] for r, (_, n, _) in zip(rates, points)]
        res = dm.distill_map(f_column, dm.weights_from_coeffs(*_stacked_coeffs(p_a, eps),
                                                              *_stacked_coeffs(p_b, eps)))
        return {"pA": p_a, "pB": p_b, "draw": [draw] * len(points), "value": res.fidelity_out,
                "p_succ": res.p_succ}
    return kernel


def _stacked_coeffs(blocks: list[np.ndarray], eps: float) -> tuple[np.ndarray, np.ndarray]:
    """(r0, r1) of each (rows x width) rate block, as (blocks x rows) arrays.

    The blocks of one width are stacked into one rate matrix and
    evaluated by one ``purified_coeffs_general`` call.
    """
    widths = defaultdict(list)
    for i, block in enumerate(blocks):
        widths[block.shape[1]].append(i)
    r0, r1 = np.empty((2, len(blocks), len(blocks[0])))
    for index in widths.values():
        c = noise.purified_coeffs_general(np.concatenate([blocks[i] for i in index]), eps)
        r0[index], r1[index] = c.r0.reshape(len(index), -1), c.r1.reshape(len(index), -1)
    return r0, r1


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
