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
import math
import sys
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


class Records:
    """Output rows as one table: the fields that every row shares, and columns.

    ``constants`` maps a field to its value in every row, a number or a
    string. ``columns`` maps a field to a pair ``(values, codes)``: row i
    holds ``values[codes[i]]``, or ``values[i]`` where ``codes`` is None,
    so a grid axis is its values once and a compact code per row.
    ``values`` is a 1-D array, or a 2-D float array of rate lists, one a
    row, NaN past a list's last rate (rates lie in [0, 1), so no rate is
    NaN, and every list has one). A plain array is taken as ``(array,
    None)``. ``len()`` is the number of rows, 1 for a table without columns.
    """

    def __init__(self, constants: dict, columns: dict | None = None):
        self.constants = constants
        self.columns = {f: c if isinstance(c, tuple) else (c, None)
                        for f, c in (columns or {}).items()}

    def __len__(self) -> int:
        for values, codes in self.columns.values():
            return len(values if codes is None else codes)
        return 1


def _row_parts(records: Records, fields: list[str] | None, fmt: str) -> tuple[list[str], list[str]]:
    """A row as its texts before, between and after its columns, and those columns.

    A CSV row has the fields ``fields`` joined by ',', a float constant
    to 12 digits. A JSON row has its keys in sorted order,
    ``schema_version`` among them; a constant is its ``json.dumps``, and
    a rate-list column's quotes are text; a finite float, an int and a str
    are formatted as ``json.dumps`` does, without its call.
    """
    constants, columns = records.constants, records.columns
    if fmt == "json":
        constants = {**constants, "schema_version": SCHEMA_VERSION}
        fields = sorted([*constants, *columns])
    texts, names, text = [], [], "" if fmt == "csv" else "{"
    for i, f in enumerate(fields):
        if i:
            text += "," if fmt == "csv" else ", "
        if fmt == "json":  # every field is a FIELD_ORDER name or schema_version: no escapes
            text += '"' + f + '": '
        if f in columns:
            quote = '"' if fmt == "json" and columns[f][0].ndim == 2 else ""
            texts.append(text + quote)
            names.append(f)
            text = quote
        elif fmt == "csv":
            x = constants[f]
            text += f"{x:.12g}" if isinstance(x, float) else str(x)
        else:
            x = constants[f]
            text += (float.__repr__(x) if isinstance(x, float) and math.isfinite(x) else
                     int.__repr__(x) if isinstance(x, int) and not isinstance(x, bool) else
                     json.encoder.encode_basestring_ascii(x) if isinstance(x, str) else json.dumps(x))
    texts.append(text + ("\n" if fmt == "csv" else "}\n"))
    return texts, names


def _template_rows(texts: list[str], columns: list[tuple], fmt: str) -> str:
    """The rows through one template: the texts with a slot per column.

    A float column fills '%.12g' slots in CSV and '%r' slots in JSON (if
    every value is finite), an integer column '%d' slots; any other
    column is formatted to strings first, rate lists by ``_rates_field``,
    the rest by ``str`` in CSV and ``json.dumps`` in JSON, and fills '%s'
    slots. A coded column's values are formatted once, then gathered.
    """
    template, values = texts[0].replace("%", "%%"), []
    for (column, codes), text in zip(columns, texts[1:]):
        slot, strings = "%s", column.tolist()
        if column.ndim == 2:
            strings = [_rates_field([r for r in row if r == r]) for row in strings]
        elif column.dtype.kind == "f" and (fmt == "csv" or all(map(math.isfinite, strings))):
            slot = "%.12g" if fmt == "csv" else "%r"
        elif column.dtype.kind in "iu":
            slot = "%d"
        elif fmt == "json":
            strings = list(map(json.dumps, strings))
        if codes is not None:
            strings = list(map(slot.__mod__, strings))
            slot, strings = "%s", list(map(strings.__getitem__, codes.tolist()))
        template += slot + text.replace("%", "%%")
        values.append(strings)
    return "".join(map(template.__mod__, zip(*values))) if columns else texts[0]


#: Rows from which an output is laid out as bytes, not filled into one
#: template. The layout costs about 190 us an output plus 0.19 us a row
#: in CSV, 260 us plus 0.47 us in JSON, the template 0.9 and 1.8 us a row:
#: on mixed_fidelity_map sweeps of 12 to 1,000 rows they break even near
#: 170 rows in JSON and 210 in CSV; rate lists move it near 115 and 80.
COLUMNAR_MIN_ROWS = 128
#: Rows of one batch at most: an 8,000-row sweep in batches of up to 1,024,
#: 2,048, 4,096 or 8,192 rows took 0.42, 0.32, 0.29 and 0.27 of the
#: template's time in CSV, and 0.41, 0.33, 0.29 and 0.28 in JSON.
BATCH_ROWS = 4096
#: Bytes written at a time: the 2,000-row het JSON batch took 20% less
#: than in one slice, and a 4,000-row grid CSV batch the same.
SLICE_BYTES = 1 << 18


def emit_records(records: Records, fmt: str, out) -> None:
    """Write records as CSV (fixed column order) or JSON lines, in one of two designs.

    An output of ``COLUMNAR_MIN_ROWS`` rows or more is laid out as bytes
    in batches of at most ``BATCH_ROWS`` rows (``_write_batch``) if every
    column is 1-D float64, 1-D integers or 2-D rate lists, and no CSV text
    holds a NUL, the layout's padding: a block keeps the byte columns
    that some row of it prints, and its rows are NUL elsewhere. Any other
    output, one row included, fills one template (``_template_rows``):
    below 80-210 rows the layout's fixed cost, 190-260 us, outweighs what
    its kernels save.
    Each value of a coded column is formatted once. CSV floats print as
    '%.12g', JSON floats as their shortest round-trip repr, and rate
    lists as their rates to 12 digits joined by ';', a string in JSON.
    JSON keys come in ``sort_keys`` order.
    """
    fields, rows = None, len(records)
    if fmt == "csv":
        fields = [f for f in FIELD_ORDER if f in records.constants or f in records.columns]
        out.write(",".join(fields) + "\n")
    texts, names = _row_parts(records, fields, fmt)
    columns = [records.columns[f] for f in names]
    if (rows < COLUMNAR_MIN_ROWS or fmt == "csv" and any("\0" in text for text in texts)
            or not all(v.ndim == 2 or v.ndim == 1 and (v.dtype.char == "d" or v.dtype.kind in "iu")
                       for v, _ in columns)):
        out.write(_template_rows(texts, columns, fmt))
        return
    chars = [np.frombuffer(text.encode(errors="surrogatepass"), np.uint8) for text in texts]
    coded = [None] * len(columns)
    for start in range(0, rows, BATCH_ROWS):
        stop = min(start + BATCH_ROWS, rows)
        # A coded column's values are formatted once, in the first batch's kernel calls.
        blocks = iter(_column_blocks([values[start:stop] if codes is None else values
                                      for (values, codes), done in zip(columns, coded)
                                      if done is None], fmt))
        pieces = [np.broadcast_to(chars[0], (stop - start, len(chars[0])))]
        for j, ((_, codes), text) in enumerate(zip(columns, chars[1:])):
            if codes is not None and coded[j] is None:
                coded[j] = next(blocks)
            pieces += [next(blocks) if codes is None else coded[j].take(codes[start:stop], 0),
                       np.broadcast_to(text, (stop - start, len(text)))]
        _write_batch(pieces, out)


def _write_batch(pieces: list[np.ndarray], out) -> None:
    """Write a batch of rows from its pieces, (rows x bytes) blocks with NULs among them.

    The pieces are laid side by side in even slices of at most
    ``SLICE_BYTES``, and one pass over each slice drops the NULs.
    """
    rows, width = len(pieces[0]), sum(piece.shape[1] for piece in pieces)
    step = -(-rows // -(-rows * width // SLICE_BYTES))
    for start in range(0, rows, step):
        laid = bytearray(min(step, rows - start) * width)
        np.concatenate([piece[start:start + step] for piece in pieces], axis=1,
                       out=np.frombuffer(laid, np.uint8).reshape(-1, width))
        out.write(laid.translate(None, b"\0").decode(errors="surrogatepass"))


def _column_blocks(columns: list[np.ndarray], fmt: str) -> list[np.ndarray]:
    """Each column as a (rows x width) block of bytes, NULs among them.

    A 1-D float64 column prints as '%.12g' (``_format_g12``) in CSV and
    as its repr (``_format_repr``) in JSON, an integer column as its
    digits, a 2-D column as its rate lists (``_rate_block``). One call
    of each kernel formats every float of ``columns`` that it takes:
    their blocks keep the byte columns that any of them prints.
    """
    floats = _format_g12 if fmt == "csv" else _format_repr
    kernels = [_format_g12 if column.ndim == 2 else floats if column.dtype.char == "d" else None
               for column in columns]
    inputs = [column if column.ndim == 1 else column[column == column] for column in columns]
    chars = {kernel: kernel(np.concatenate([x for x, k in zip(inputs, kernels) if k is kernel],
                                           dtype=np.float64))
             for kernel in dict.fromkeys(kernels) if kernel is not None}
    starts, blocks = dict.fromkeys(chars, 0), []
    for column, x, kernel in zip(columns, inputs, kernels):
        if kernel is None:  # integers
            digits = column.astype("S")[:, None].view(np.uint8)
            blocks.append(digits[:, digits.any(axis=0)])  # 21 bytes wide before
            continue
        start = starts[kernel]
        block, starts[kernel] = chars[kernel][start:start + len(x)], start + len(x)
        blocks.append(block if column.ndim == 1 else _rate_block(block, column == column))
    return blocks


def _rate_block(chars: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Rate lists as one (rows x bytes) block, each row's rates joined by ';'.

    ``chars`` is the ``_format_g12`` bytes of the rates, row after row,
    and ``rates`` marks them in the (rows x width) rate matrix, a prefix
    of each row. Each rate's slot is its row of ``chars``, then ';' or,
    after a row's last rate, a NUL; the slots past it are NULs.
    """
    out = np.zeros((rates.size, chars.shape[1] + 1), np.uint8)
    at = np.flatnonzero(rates)  # each rate's slot, row after row
    out[at, :-1], out[at, -1] = chars, ord(";")
    out[at[np.cumsum(rates.sum(axis=1)) - 1], -1] = 0  # no ';' after a row's last rate
    return out.reshape(len(rates), -1)


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
    """``'%.12g' % v`` for each v of the float64 array ``x``, as (len(x) x w) bytes.

    Row i, without its NUL bytes, is the string of x[i]; w <= 32. With e =
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
    """``json.dumps(v)`` for each v of the float64 array ``x``, as (len(x) x w) bytes.

    Row i, without its NUL bytes, is the string of x[i]: ``repr(v)``, the
    shortest string that reads back as v, for a finite v; w <= 48. Its
    digits come from ``_shortest_digits``; every row that it rejects is
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
    least e (the integer digits all print). Only the byte columns that
    the mask of some ``ok`` row keeps are returned, in order. The rows
    not ``ok`` are ``python(v)`` for their float v, from the first
    column on, the block padded on the right if one is longer.
    """
    words = np.empty((len(x), 2 * len(groups) + 2), np.uint32)
    words[:, 0], words[:, len(groups) + 1] = _SIGN_ZERO, _POINT_ZEROS
    last = e
    for j, g in enumerate(groups):
        g = g.astype(np.intp)
        words[:, 1 + j] = words[:, len(groups) + 2 + j] = np.take(_GROUP_WORDS, g)
        last = np.maximum(last, np.take(_GROUP_LAST[j], g))
    rows = ((e + 4) * digits + last) * 2 + (x < 0)
    words &= np.take(masks, rows, axis=0)
    used = np.bitwise_or.reduce(masks[np.flatnonzero(np.bincount(rows[ok]))], axis=0)
    chars = words.view(np.uint8)[:, np.flatnonzero(used.view(np.uint8))]
    bad = np.flatnonzero(~ok)
    if len(bad):
        texts = np.array([python(v) for v in x[bad].tolist()])
        if texts.itemsize > chars.shape[1]:
            chars = np.pad(chars, ((0, 0), (0, texts.itemsize - chars.shape[1])))
        chars[bad] = texts.astype(f"S{chars.shape[1]}").view(np.uint8).reshape(len(bad), -1)
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


def _out(args) -> str | None:
    """``--out``'s path, or None when it is absent or '-'; an empty path is an error."""
    if args.out == "":
        raise ValueError("--out is empty: name a path, or '-'")
    return None if args.out == "-" else args.out


def _write(records: Records, args) -> int:
    """Emit records to ``--out`` (stdout when absent or '-'); returns exit code 0."""
    if (path := _out(args)) is None:
        emit_records(records, args.format, sys.stdout)
    else:
        with open(path, "w", newline="\n") as fh:
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
    """Parse 'a,b,c' or 'start:stop:count' (start <= stop) into a list of floats."""
    try:
        if ":" in spec:
            start, stop, count = spec.split(":")
            if float(start) > float(stop):
                raise argparse.ArgumentTypeError(f"inverted range {spec!r}: start must be <= stop")
            vals = [float(v) for v in np.linspace(float(start), float(stop), int(count))]
        else:
            vals = [float(v) for v in spec.split(",") if v != ""]
    except ValueError:  # linspace raises it too, for a negative count
        vals = []
    if vals:
        return vals
    raise argparse.ArgumentTypeError(f"cannot parse axis {spec!r}; use 'a,b,c' or 'start:stop:count'")


def _frac_pi_axis(spec: str) -> list[float]:
    """A float axis given in multiples of pi."""
    return [x * np.pi for x in _float_axis(spec)]


def _depth_axis(spec: str) -> list[int]:
    """Parse 'a,b,c' or 'lo:hi' (inclusive) into a list of depths >= 1."""
    try:
        if ":" in spec:
            lo, hi = (int(v) for v in spec.split(":"))
            if lo > hi:
                raise argparse.ArgumentTypeError(f"inverted range {spec!r}: lo must be <= hi")
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
    """A kernel calling ``closed_form(head, *point)`` -> value per row, for the two limits.

    Scalar calls, not numpy arrays: Python's float ``x ** 2`` is C ``pow``,
    which an array's ``x * x`` differs from in the last bit for some x.
    """
    def kernel(head, *axes) -> dict[str, np.ndarray]:
        return {"value": np.array([closed_form(head, *point) for point in product(*axes)])}
    return kernel


class _Gathered(noise.PurifiedCoeffs):
    def __post_init__(self):
        """No check: these are entries of coefficient arrays, each checked where it was made."""


def _prefix_coeffs(p: float, eps: list, *depths: list) -> list[np.ndarray]:
    """(r0, r1) of ``purified_coeffs_gate_noisy(p, e, d)`` on (eps x depths), per list of depths.

    One ``purified_coeffs_prefixes`` table per e, to the largest depth, stacked as one
    (r0 and r1 x eps x depth) array, and one ``take`` from it per list: bit for bit the calls.
    """
    top = max(map(max, depths))
    tables = [noise.purified_coeffs_prefixes(p, e, top) for e in eps]
    table = np.array([[c.r0 for c in tables], [c.r1 for c in tables]])
    return [table.take(np.subtract(d, 1), 2) for d in depths]


def _stacked(evaluate, keys: list) -> list[np.ndarray]:
    """Each output of ``evaluate``, run once per stack of rows that share a key, in row order.

    ``evaluate(index, key)`` runs once per distinct key, in the order the
    keys first occur, on ``index``, the list of that key's rows in order,
    and returns arrays whose first axis holds those rows. Each output
    comes back as one array of every row, its first axis in row order.
    """
    groups: dict = {}
    for row, key in enumerate(keys):
        groups.setdefault(key, []).append(row)
    outputs = [evaluate(index, key) for key, index in groups.items()]
    order = np.argsort(np.concatenate(list(groups.values())))
    return [np.concatenate(parts)[order] for parts in zip(*outputs)]


def _povm_kernel(p: float, eps: list, n: list) -> dict[str, np.ndarray]:
    """The purified element's fidelity and yield on (eps x n)."""
    c = _Gathered(*_prefix_coeffs(p, eps, n)[0], n)
    return {"value": c.fidelity, "p_succ": c.acceptance}


def _pure_kernel(p: float, eps: list, n: list, theta: list) -> dict[str, np.ndarray]:
    """The filtered fidelity on (eps x n x theta), by theta: 2 sin^2(theta) stays a scalar."""
    c = _Gathered(*_prefix_coeffs(p, eps, n)[0][..., None], n)
    res = [dp.pure_filter_fidelity(t, c) for t in theta]
    return {"value": np.concatenate([r.fidelity_out for r in res], axis=-1),
            "p_succ": np.concatenate([r.p_succ for r in res], axis=-1)}


def _map_kernel(p: float, eps: list, n: list, m: list, f: list) -> dict[str, np.ndarray]:
    """The fidelity map on (eps x n x m x F): one ``distill_map`` on the whole array."""
    a, b = _prefix_coeffs(p, eps, n, m)
    res = dm.distill_map(np.array(f), dm.weights_from_coeffs(*a[..., None, None],
                                                              *b[:, :, None, :, None]))
    return {"value": res.fidelity_out, "p_succ": res.p_succ}


def _lower_bound_kernel(p: float, eps: list, n: list, m: list) -> dict[str, np.ndarray]:
    """The threshold L on (eps x n x m): one ``lower_bound`` on the whole array."""
    a, b = _prefix_coeffs(p, eps, n, m)
    return {"value": dm.lower_bound(dm.weights_from_coeffs(*a[..., None], *b[:, :, None]))}


#: Each quantity's axes in row order, and its kernel: ``kernel(head, *axes)`` evaluates the
#: rows whose first axis is ``head``, each later axis given as its list of values, and returns
#: each output with those rows in order over the leading axes of "value" (later axes, here);
#: a rate-list output has one more axis. Each value equals its scalar closed form's bit for
#: bit: all but the two limits evaluate ``_prefix_coeffs`` arrays.
QUANTITIES = {
    "povm_fidelity": (("p", "epsilon", "n"), _povm_kernel),
    "mixed_fidelity_map": (("p", "epsilon", "n", "m", "F"), _map_kernel),
    "lower_bound": (("p", "epsilon", "n", "m"), _lower_bound_kernel),
    "lower_bound_limit": (("p", "epsilon"), _pointwise(lambda p, eps: dm.lower_bound_limit(p, eps))),
    "pure_fidelity": (("p", "epsilon", "n", "theta"), _pure_kernel),
    "pure_fidelity_limit": (("p", "epsilon", "theta"), _pointwise(
        lambda p, eps, theta: dp.pure_filter_fidelity_limit(theta, p, eps))),
}


def _grid(quantity: str, grid: dict[str, list], spec: tuple | None = None) -> Records:
    """A quantity's rows over the product of its axes, as one table.

    ``spec`` is the (axes, kernel) pair, ``QUANTITIES[quantity]`` by
    default. Rows come in lexicographic order, the last axis varying
    fastest. An axis with one value is a constant; any other is a column
    of its values with a code per row. The kernel runs once per slab, the
    rows that share one value of the first axis, on the grid's own axis
    lists, and fills the slab's rows of each output column: the kernel's
    temporaries are one slab's, never the whole grid's. Every row is
    computed, and so every input checked, before the first byte is
    written; a slab that fails runs again point by point, so the error is
    the first failing row's.
    """
    axes, kernel = spec or QUANTITIES[quantity]
    first, *later = values = [grid[a] for a in axes]
    rows = math.prod(map(len, values))
    constants, columns, inner = {"quantity": quantity}, {}, rows
    for a, axis in zip(axes, values):
        inner //= len(axis)
        if len(axis) == 1:
            constants[a] = axis[0]
        else:
            run = np.arange(len(axis), dtype=np.min_scalar_type(len(axis) - 1)).repeat(inner)
            columns[a] = (np.array(axis), run[None].repeat(rows // len(run), 0).ravel())
    per, start = rows // len(first), 0
    for head in first:
        try:
            outputs = kernel(head, *later)
        except ValueError:
            for point in product(*later[:-1]):
                kernel(head, *([v] for v in point), later[-1])
            raise
        lead = outputs["value"].ndim
        for name, output in outputs.items():
            if name not in columns:
                columns[name] = np.empty((rows, *output.shape[lead:]), output.dtype)
            columns[name][start:start + per] = output.reshape(per, *output.shape[lead:])
        start += per
    return Records(constants, columns)


# ---------------------------------------------------------------------------
# tables

def table_records() -> list[tuple[str, Records]]:
    """The five reference tables as (name, records) pairs."""
    depths = [1, 2, 3, 4]
    pure = {"p": [0.1], "n": depths, "theta": [float(np.pi / 16)]}
    gate = _grid("lower_bound", {"p": [0.1], "epsilon": [0.1], "n": depths, "m": depths})
    diagonal = gate.columns["n"][1] == gate.columns["m"][1]  # the rows at n = m
    gate.columns = {f: (v[diagonal], None) if c is None else (v, c[diagonal])
                    for f, (v, c) in gate.columns.items()}
    tables = [
        ("lower_bound_p02", _grid("lower_bound",
                                  {"p": [0.2], "epsilon": [0.0], "n": depths, "m": [1, 2, 3]})),
        ("lower_bound_p01", _grid("lower_bound",
                                  {"p": [0.1], "epsilon": [0.0], "n": depths, "m": [1, 2]})),
        ("lower_bound_gate_noise", gate),
        ("pure_fidelity_noiseless", _grid("pure_fidelity", {**pure, "epsilon": [0.0]})),
        ("pure_fidelity_gate_noise", _grid("pure_fidelity", {**pure, "epsilon": [0.05]})),
    ]
    for _, records in tables:
        value, _ = records.columns["value"]
        # Python's round: numpy's rint(x * 1000) / 1000 differs on near-ties.
        records.columns["value_3dp"] = (np.array([round(v, 3) for v in value.tolist()]), None)
    return tables


def cmd_tables(args) -> int:
    if args.out == "-":
        raise ValueError("tables writes five files: --out must name a directory, not '-'")
    outdir = Path(_out(args) or ".")
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
    axes["draw"] = list(range(args.draws if args.draws is not None else HET_DRAWS))
    rng = np.random.RandomState(args.seed if args.seed is not None else 0)
    kernel = _het_kernel(*args.het_band, rng)
    return _grid(q, axes, spec=((*names, "draw"), kernel))


def _het_kernel(lo: float, hi: float, rng: np.random.RandomState):
    """The mixed_fidelity_map kernel on rates drawn from [lo, hi), a rate matrix per cell.

    A slab's cells are its (n, m) pairs, and each cell's rows are its F
    and draw pairs, row-major; the slab shares eps, its first axis. Every
    cell's rates are drawn first, cell after cell, one draw of rows x
    (n + m) each: this consumes the RandomState as per-row uniform(n)
    then uniform(m) calls would. Each party's rates are one (cells x rows
    x widest) array, NaN past a cell's depth. Then ``_stacked`` runs one
    recurrence per (party, depth) on that party's cells of that depth,
    and one ``distill_map`` runs on the slab's (cells x rows) array. Every
    operation is elementwise, so each value equals the per-cell calls'
    bit for bit. The band lies in [0, 1), so a cell fails only on eps or
    F, whatever the draws.
    """
    def kernel(eps: float, n: list, m: list, fs: list, draws: list) -> dict[str, np.ndarray]:
        cells, rows = list(product(n, m)), len(fs) * len(draws)
        p_a, p_b = (np.full((len(cells), rows, max(depths)), np.nan) for depths in (n, m))
        for i, (a, b) in enumerate(cells):
            rates = rng.uniform(lo, hi, rows * (a + b)).reshape(rows, a + b)
            p_a[i, :, :a], p_b[i, :, :b] = rates[:, :a], rates[:, a:]

        def coeffs(rates, k):  # (r0, r1) of the cells' first cell[k] rates, (cells x rows)
            def evaluate(index, depth):
                c = noise.purified_coeffs_general(rates[index, :, :depth].reshape(-1, depth), eps)
                return c.r0.reshape(len(index), -1), c.r1.reshape(len(index), -1)
            return _stacked(evaluate, [cell[k] for cell in cells])
        res = dm.distill_map(np.repeat(fs, len(draws)),
                             dm.weights_from_coeffs(*coeffs(p_a, 0), *coeffs(p_b, 1)))
        return {"pA": p_a, "pB": p_b, "value": res.fidelity_out, "p_succ": res.p_succ}
    return kernel


def cmd_sweep(args) -> int:
    return _write(_sweep_records(args), args)


# ---------------------------------------------------------------------------
# verify

VERIFY_TOL = 1e-10


def run_verification(max_n: int = 3, seed: int = 7, draws: int = 20,
                     full: bool = False) -> dict[str, float]:
    """Max |analytic - oracle| per quantity over a seeded random grid; NaN if any gap is NaN.

    Every input is drawn first, in the order of a point-by-point loop,
    each point's gadgets in turn: Alice's, Bob's and the filter's rates.
    ``_stacked`` runs the closed-form coefficients once per (eps, depth)
    stack, in drawn order, and the oracle's gadgets once per depth, with
    eps a column. The oracle's post-states run as one stack over all
    points, the closed forms once per draw with its f and theta as floats.
    """
    rng = np.random.RandomState(seed)
    eps_grid = [0.0, 0.05, 0.1]
    inputs, gadgets = [], []  # gadgets: (rates, eps) pairs
    for _ in range(draws):
        inputs.append((float(rng.uniform(0.26, 0.99)), float(rng.uniform(0.05, np.pi / 4 - 0.01))))
        for eps in eps_grid:
            for n in range(1, max_n + 1):
                p_list = rng.uniform(0.02, 0.3, n).tolist()
                m = int(rng.randint(1, max_n + 1))
                q_list = rng.uniform(0.02, 0.3, m).tolist()
                p_hom = float(rng.uniform(0.02, 0.3))
                gadgets += [(rates, eps) for rates in (p_list, q_list, [p_hom] * n)]

    def closed_form(index, key):
        c = noise.purified_coeffs_general(np.array([gadgets[i][0] for i in index]), key[0])
        return c.r0, c.r1
    r0, r1 = _stacked(closed_form, [(eps, len(rates)) for rates, eps in gadgets])
    q0, q1 = _stacked(lambda index, _: oracle.oracle_effective_povms(
        *map(np.array, zip(*(gadgets[i] for i in index)))), [len(rates) for rates, _ in gadgets])
    alice, bob, hom = (oracle.EffectivePovm(q0[k::3], q1[k::3]) for k in range(3))
    (a0, a1), (b0, b1), (h0, h1) = ((r0[k::3], r1[k::3]) for k in range(3))
    depths = np.tile(np.arange(1, max_n + 1), len(eps_grid))  # of one draw's points
    draw = np.repeat(np.arange(draws), len(depths))
    sigma = oracle.oracle_mixed_post_state(
        oracle.mixed_register(np.array([f for f, _ in inputs]))[draw], alice, bob)
    sigma_p = oracle.oracle_pure_post_state(
        np.array([oracle.filtered_ket(theta) for _, theta in inputs])[draw], hom)
    orc, orc_p = oracle.distill_result(sigma), oracle.distill_result(sigma_p)

    closed = []
    for k, (f, theta) in enumerate(inputs):
        at = slice(k * len(depths), (k + 1) * len(depths))
        w = dm.weights_from_coeffs(a0[at], a1[at], b0[at], b1[at])
        h = _Gathered(h0[at], h1[at], depths)
        res, res_p = dm.distill_map(f, w), dp.pure_filter_fidelity(theta, h)
        closed.append((res.fidelity_out, res.p_succ, dm.post_state_unnormalized(f, w),
                       res_p.fidelity_out, res_p.p_succ, dp.pure_post_state_unnormalized(theta, h)))
    oracle_values = {"povm_coeffs": np.diagonal(alice.q0, axis1=1, axis2=2).real,
                     "mixed_fidelity": orc.fidelity_out, "mixed_p_succ": orc.p_succ,
                     "mixed_state": sigma, "pure_fidelity": orc_p.fidelity_out,
                     "pure_p_succ": orc_p.p_succ, "pure_state": sigma_p}
    # Column k of the closed forms, in the order appended above, against the k-th oracle stack.
    gaps = {name: column - value for (name, value), column in
            zip(oracle_values.items(), [np.stack([a0, a1], 1), *map(np.concatenate, zip(*closed))])}
    # The gadgets' elements are diagonal: each off-diagonal entry of a stack is a gap.
    gaps["povm_offdiag"] = np.stack([q0, q1])[..., [0, 1], [1, 0]]

    if full:
        direct = gaps["direct_register"] = []
        for (n, m, eps) in [(2, 2, 0.0), (2, 2, 0.1), (3, 3, 0.05)]:
            f = float(rng.uniform(0.5, 0.95))
            p_a = list(rng.uniform(0.02, 0.3, n))
            p_b = list(rng.uniform(0.02, 0.3, m))
            direct.append(oracle.oracle_mixed_post_state_direct(f, p_a, p_b, eps)
                          - dm.post_state_unnormalized(f, dm.parity_weights(p_a, p_b, eps)))
    # ndarray.max propagates NaN (Python's max(0.0, nan) is 0.0), and a NaN gap must fail.
    return {name: float(np.abs(np.asarray(gap)).max()) for name, gap in gaps.items()}


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
    return _write(Records({"quantity": "mixed_fidelity_map", "pA": _rates_field(p_a),
                           "pB": _rates_field(p_b), "epsilon": args.epsilon, "n": len(p_a),
                           "m": len(p_b)},
                          {"F": f_col, "round": np.arange(1, args.rounds + 1), "value": value,
                           "p_succ": p_succ}), args)


def cmd_distill_pure(args) -> int:
    theta = args.theta if args.theta is not None else args.theta_frac_pi * np.pi
    return _write(_grid("pure_fidelity", {"p": [args.p], "epsilon": [args.epsilon],
                                          "n": [args.n], "theta": [theta]}), args)


def cmd_povm_purify(args) -> int:
    if args.pList is not None and args.n is not None:
        raise ValueError("--n does not apply with --pList: the list's length is the depth")
    c = noise.purified_coeffs_general(args.pList or [args.p] * (args.n or 1), args.epsilon)
    p_field = args.p if args.pList is None else _rates_field(args.pList)
    return _write(Records({"quantity": "povm_fidelity", "p": p_field, "epsilon": args.epsilon,
                           "n": c.n, "r0": c.r0, "r1": c.r1, "value": c.fidelity,
                           "p_succ": c.acceptance}), args)


# ---------------------------------------------------------------------------
# the argument table

#: ``--format`` and ``--out``, which every command but ``verify`` takes last.
_IO_ARGS = [("--format", dict(choices=["csv", "json"], default="csv")),
            ("--out", dict(default=None, metavar="PATH",
                           help="output file (default stdout); a directory for 'tables'"))]

#: Each subcommand, in help order: its line in the command list, the name of its
#: ``cmd_*`` function, its epilog, and its arguments in help order. An argument is
#: (flag, ``add_argument`` keywords), its dest the flag's name; a mutually exclusive
#: group is (required, its arguments). ``build_parser`` builds argparse from it, and
#: ``_parse_table`` parses a well-formed argv from it alone, through FLAGS and GROUPS.
COMMANDS = {
    "tables": ("write the five reference tables", "cmd_tables", None, _IO_ARGS),
    "sweep": ("evaluate a quantity over a parameter grid", "cmd_sweep",
              "lower_bound is the threshold L: above F = 1/4, one round raises F exactly "
              "for F in (L, 1), so L >= 1 means that window is empty.", [
        ("--quantity", dict(choices=QUANTITIES, required=True)),
        ("--p", dict(type=_float_axis,
                     help="axis: 'a,b,c' or 'start:stop:count' with start <= stop")),
        ("--epsilon", dict(type=_float_axis, help="axis (default 0)")),
        ("--n", dict(type=_depth_axis, help="axis: 'a,b,c' or 'lo:hi', lo <= hi (default 1)")),
        ("--m", dict(type=_depth_axis, help="axis (default 1)")),
        ("--F", dict(type=_float_axis, help="axis of input singlet fractions")),
        (False, [("--theta", dict(type=_float_axis, help="axis of Schmidt angles in radians")),
                 ("--theta-frac-pi", dict(type=_frac_pi_axis,
                                          help="axis of Schmidt angles as multiples of pi"))]),
        ("--het-band", dict(nargs=2, type=float, metavar=("LO", "HI"),
                            help="draw per-measurement rates uniformly from [LO, HI) with "
                                 "0 <= LO <= HI < 1")),
        ("--draws", dict(type=_positive_int, help="random draws per grid point in --het-band "
                                                  f"mode (default {HET_DRAWS})")),
        ("--seed", dict(type=int, default=None, help="seed for --het-band mode")),
        *_IO_ARGS]),
    "verify": ("analytic layer vs density-matrix oracle", "cmd_verify", None, [
        ("--max-n", dict(type=int, default=3, choices=[1, 2, 3, 4])),
        ("--seed", dict(type=int, default=7)),
        ("--draws", dict(type=_positive_int, default=20)),
        ("--full", dict(action="store_true",
                        help="also run the direct full-register checks (up to 8 qubits)"))]),
    "distill-mixed": ("two-way distillation of isotropic states", "cmd_distill_mixed", None, [
        ("--F", dict(type=float, required=True)),
        ("--p", dict(type=float)),
        ("--pA", dict(type=_rates, help="comma-separated per-measurement rates for Alice")),
        ("--pB", dict(type=_rates, help="comma-separated per-measurement rates for Bob")),
        ("--n", dict(type=_positive_int, help="Alice's depth with --p (default 1)")),
        ("--m", dict(type=_positive_int, help="Bob's depth with --p (default 1)")),
        ("--epsilon", dict(type=float, default=0.0)),
        ("--rounds", dict(type=_positive_int, default=1,
                          help="iterate the map with the same weights; this assumes each round's "
                               "output is twirled back to an isotropic state before the next")),
        *_IO_ARGS]),
    "distill-pure": ("filter a Schmidt-form pure state", "cmd_distill_pure", None, [
        (True, [("--theta", dict(type=float)), ("--theta-frac-pi", dict(type=float))]),
        ("--p", dict(type=float, required=True)),
        ("--epsilon", dict(type=float, default=0.0)),
        ("--n", dict(type=_positive_int, default=1)),
        *_IO_ARGS]),
    "povm-purify": ("purified-measurement coefficients", "cmd_povm_purify", None, [
        (True, [("--p", dict(type=float)),
                ("--pList", dict(type=_rates, help="comma-separated heterogeneous rates"))]),
        ("--epsilon", dict(type=float, default=0.0)),
        ("--n", dict(type=_positive_int, help="depth with --p (default 1)")),
        *_IO_ARGS]),
}

#: Each command's flags, in help order, and their ``add_argument`` keywords, from COMMANDS.
FLAGS = {command: {flag: keywords for item in arguments
                   for flag, keywords in (item[1] if isinstance(item[0], bool) else [item])}
         for command, (*_, arguments) in COMMANDS.items()}
#: Each command's mutually exclusive groups, as (required, their flags), from COMMANDS.
GROUPS = {command: [(item[0], [flag for flag, _ in item[1]])
                    for item in arguments if isinstance(item[0], bool)]
          for command, (*_, arguments) in COMMANDS.items()}


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argparse parser, built from COMMANDS.

    ``main`` builds it only for an argv that ``_parse_table`` does not take, and to
    report a command's ``ValueError``. argparse reads the terminal width for each help
    formatter, so help and usage follow ``COLUMNS`` and the terminal. The run function
    is looked up when the parser is built, so a wrapper put on a module's ``cmd_*``
    binding is the one that runs.
    """
    parser = argparse.ArgumentParser(
        prog="entdistill",
        description="Noisy-measurement purification and entanglement distillation.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, run, epilog, arguments) in COMMANDS.items():
        sub = subs.add_parser(name, help=help_text, epilog=epilog)
        sub.set_defaults(run=globals()[run])
        for item in arguments:
            if isinstance(item[0], bool):
                group = sub.add_mutually_exclusive_group(required=item[0])
                for flag, keywords in item[1]:
                    group.add_argument(flag, **keywords)
            else:
                sub.add_argument(item[0], **item[1])
    return parser


def _parse_table(argv) -> argparse.Namespace | None:
    """``build_parser().parse_args(argv)``'s Namespace for a well-formed argv, from COMMANDS.

    Well-formed: a command, then exact long flags of it, each at most once and followed
    by its ``nargs`` values (one by default, none for ``store_true``), none of them
    starting with '-' but a lone '-'. Each value passes the flag's ``type``, then its
    ``choices``; every required flag is given, and an exclusive group holds at most one
    flag, exactly one if required. Defaults fill the rest, a string default through
    ``type`` as argparse does. Anything else is None and goes to argparse: help,
    abbreviations, '--flag=value', repeated or conflicting flags, option-like values,
    a rejected value. The run function is looked up at each call, as in ``build_parser``.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    flags = FLAGS[argv[0]]
    given, at = {}, 1
    try:
        while at < len(argv):
            flag = argv[at]
            if flag not in flags or flag in given:
                return None
            keywords = flags[flag]
            count = 0 if keywords.get("action") == "store_true" else keywords.get("nargs", 1)
            texts = argv[at + 1:at + 1 + count]
            if len(texts) < count or any(t.startswith("-") and t != "-" for t in texts):
                return None
            values = [keywords.get("type", str)(text) for text in texts]
            if "choices" in keywords and any(v not in keywords["choices"] for v in values):
                return None
            given[flag] = True if not count else values if "nargs" in keywords else values[0]
            at += 1 + count
        # A group's count of given flags lies in [required, 1].
        if any(not required <= sum(f in given for f in group) <= 1
               for required, group in GROUPS[argv[0]]):
            return None
        namespace = argparse.Namespace(command=argv[0], run=globals()[COMMANDS[argv[0]][1]])
        for flag, keywords in flags.items():
            if flag not in given:
                if keywords.get("required"):
                    return None
                given[flag] = keywords.get("default", False if "action" in keywords else None)
                if isinstance(given[flag], str):
                    given[flag] = keywords.get("type", str)(given[flag])
            setattr(namespace, flag[2:].replace("-", "_"), given[flag])
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return None
    return namespace


def main(argv=None) -> int:
    """Run the CLI on ``argv`` (default ``sys.argv[1:]``) in-process; returns the exit code.

    A well-formed argv is parsed from COMMANDS alone (``_parse_table``): no parser is
    built and no terminal width read. Any other argv goes to the argparse parser
    (``build_parser``), which prints help and reports usage errors. A command's
    ``ValueError`` is a usage error, reported by the parser that parsed the argv or a new one.
    """
    argv = sys.argv[1:] if argv is None else argv
    parser = None
    try:
        args = _parse_table(argv) or (parser := build_parser()).parse_args(argv)
        try:
            return args.run(args)
        except ValueError as exc:
            (parser or build_parser()).error(str(exc))
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    except SystemExit as exc:
        if isinstance(exc.code, int):
            return exc.code
        return 2 if exc.code else 0


if __name__ == "__main__":
    sys.exit(main())
