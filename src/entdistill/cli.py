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
    """Output rows, held as chunks that are formatted and written one at a time.

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


def emit_records(records: Records, fmt: str, out) -> None:
    """Write records as CSV (fixed column order) or JSON lines, a chunk at a time.

    A chunk's constants are formatted once into a %-template with one
    slot per column, and its rows are that template filled from the
    columns; a chunk without columns is the template alone, one row.
    JSON keys come in ``sort_keys`` order.
    """
    if fmt == "csv":
        fields = _ordered_fields(records)
        out.write(",".join(fields) + "\n")
    seen: dict = {}
    for constants, columns in records.chunks:
        if fmt == "json":
            constants = {**constants, "schema_version": SCHEMA_VERSION}
            fields = sorted([*constants, *columns])
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
        out.write("".join(map(template.__mod__, zip(*values) if values else [()])))


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
    value = int(text)
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
    """A kernel calling ``closed_form(*axis values)`` -> (value,) or (value, p_succ) per row.

    Scalar calls, not numpy arrays: Python's float ``x ** 2`` is C ``pow``,
    which an array's ``x * x`` differs from in the last bit for some x.
    """
    def kernel(point: tuple, column: np.ndarray) -> dict[str, np.ndarray]:
        outputs = [closed_form(*point, v) for v in column.tolist()]
        return dict(zip(("value", "p_succ"), map(np.array, zip(*outputs))))
    return kernel


def _povm_fidelity(p, eps, n):
    c = noise.purified_coeffs_gate_noisy(p, eps, n)
    return c.fidelity, c.acceptance


def _lower_bound(p, eps, n, m):
    return (dm.lower_bound(dm.parity_weights([p] * n, [p] * m, eps)),)


def _pure_fidelity(p, eps, n, theta):
    res = dp.pure_filter_fidelity(theta, noise.purified_coeffs_gate_noisy(p, eps, n))
    return res.fidelity_out, res.p_succ


def _map_kernel(point: tuple, f_column: np.ndarray) -> dict[str, np.ndarray]:
    """The fidelity map on the whole F column, with the cell's weights."""
    p, eps, n, m = point
    res = dm.distill_map(f_column, dm.parity_weights([p] * n, [p] * m, eps))
    return {"value": res.fidelity_out, "p_succ": res.p_succ}


#: Each quantity's axes in row order, and its kernel: ``kernel(point,
#: column)`` evaluates one point of every axis but the last over the
#: last axis, given as a numpy column, and returns the output columns.
QUANTITIES = {
    "povm_fidelity": (("p", "epsilon", "n"), _pointwise(_povm_fidelity)),
    "mixed_fidelity_map": (("p", "epsilon", "n", "m", "F"), _map_kernel),
    "lower_bound": (("p", "epsilon", "n", "m"), _pointwise(_lower_bound)),
    "lower_bound_limit": (("p", "epsilon"),
                          _pointwise(lambda p, eps: (dm.lower_bound_limit(p, eps),))),
    "pure_fidelity": (("p", "epsilon", "n", "theta"), _pointwise(_pure_fidelity)),
    "pure_fidelity_limit": (("p", "epsilon", "theta"), _pointwise(
        lambda p, eps, theta: (dp.pure_filter_fidelity_limit(theta, p, eps),))),
}


def _grid(quantity: str, *grids: dict[str, list]) -> Records:
    """A quantity's rows over the product of its axes, grid after grid.

    Rows come in lexicographic order, the last axis varying fastest:
    one chunk per point of every axis but the last, with that point's
    values as constants and the last axis as one column that every
    chunk shares. Every chunk is computed, and so every input checked,
    before the first byte is written.
    """
    (*outer, last), kernel = QUANTITIES[quantity]
    records = Records()
    for axes in grids:
        column = np.array(axes[last])
        for point in product(*(axes[a] for a in outer)):
            records.add({"quantity": quantity, **dict(zip(outer, point))},
                        {last: column, **kernel(point, column)})
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
    if het and args.het_band[0] > args.het_band[1]:
        raise ValueError(f"--het-band needs LO <= HI, got {args.het_band[0]} {args.het_band[1]}")
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
    return _het_records(args, axes) if het else _grid(q, axes)


def _het_records(args, axes) -> Records:
    """mixed_fidelity_map rows with drawn rates: one chunk per (eps, n, m) cell.

    Rates are drawn per row, (F, draw) row-major within a cell. One draw
    of rows x (n + m) consumes the RandomState as per-row uniform(n) then
    uniform(m) calls would.
    """
    records = Records()
    lo, hi = args.het_band
    draws = args.draws if args.draws is not None else HET_DRAWS
    rng = np.random.RandomState(args.seed if args.seed is not None else 0)
    f_col = np.repeat(axes["F"], draws)
    draw_col = np.tile(np.arange(draws), len(axes["F"]))
    for eps, n, m in product(axes["epsilon"], axes["n"], axes["m"]):
        rates = rng.uniform(lo, hi, len(f_col) * (n + m)).reshape(len(f_col), n + m)
        p_a, p_b = rates[:, :n], rates[:, n:]
        try:
            res = dm.distill_map(f_col, dm.parity_weights(p_a, p_b, eps))
        except ValueError:
            # Name the first failing row's error, as a row-by-row evaluation does.
            for f, pa, pb in zip(f_col, p_a, p_b):
                dm.distill_map(f, dm.parity_weights(pa, pb, eps))
            raise
        records.add({"quantity": "mixed_fidelity_map", "epsilon": eps, "n": n, "m": m},
                    {"pA": p_a, "pB": p_b, "F": f_col,
                     "draw": draw_col, "value": res.fidelity_out, "p_succ": res.p_succ})
    return records


def cmd_sweep(args) -> int:
    return _write(_sweep_records(args), args)


# ---------------------------------------------------------------------------
# verify

VERIFY_TOL = 1e-10


def run_verification(max_n: int = 3, seed: int = 7, draws: int = 20,
                     full: bool = False) -> dict[str, float]:
    """Max |analytic - oracle| per quantity over a seeded random grid; NaN if any gap is NaN."""
    rng = np.random.RandomState(seed)
    eps_grid = [0.0, 0.05, 0.1]
    gaps = defaultdict(list)

    for _ in range(draws):
        f = float(rng.uniform(0.26, 0.99))
        theta = float(rng.uniform(0.05, np.pi / 4 - 0.01))
        for eps in eps_grid:
            for n in range(1, max_n + 1):
                p_list = list(rng.uniform(0.02, 0.3, n))
                c = noise.purified_coeffs_general(p_list, eps)
                ep = oracle.oracle_effective_povm(p_list, eps, n)
                gaps["povm_coeffs"] += [abs(ep.r0 - c.r0), abs(ep.r1 - c.r1)]
                gaps["povm_offdiag"] += [float(np.abs(q - np.diag(np.diag(q))).max())
                                         for q in (ep.q0, ep.q1)]

                m = int(rng.randint(1, max_n + 1))
                q_list = list(rng.uniform(0.02, 0.3, m))
                w = dm.parity_weights(p_list, q_list, eps)
                res = dm.distill_map(f, w)
                sigma = oracle.oracle_mixed_post_state(
                    f, ep, oracle.oracle_effective_povm(q_list, eps, m))
                orc = oracle.distill_result(sigma)
                gaps["mixed_fidelity"].append(abs(res.fidelity_out - orc.fidelity_out))
                gaps["mixed_p_succ"].append(abs(res.p_succ - orc.p_succ))
                gaps["mixed_state"].append(
                    float(np.abs(dm.post_state_unnormalized(f, w) - sigma).max()))

                p_hom = float(rng.uniform(0.02, 0.3))
                ch = noise.purified_coeffs_gate_noisy(p_hom, eps, n)
                res_p = dp.pure_filter_fidelity(theta, ch)
                sigma_p = oracle.oracle_pure_post_state(
                    theta, oracle.oracle_effective_povm([p_hom] * n, eps, n))
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
    dev = run_verification(max_n=args.max_n, seed=args.seed, draws=args.draws, full=args.full)
    ok = all(v < VERIFY_TOL for v in dev.values())
    for name in sorted(dev):
        status = "ok" if dev[name] < VERIFY_TOL else "FAIL"
        print(f"{name:<20s} max|dev| = {dev[name]:.3e}  [{status}]")
    print(f"verification {'passed' if ok else 'FAILED'} "
          f"(tolerance {VERIFY_TOL:.0e}, max_n={args.max_n}, seed={args.seed}, draws={args.draws})")
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entdistill",
        description="Noisy-measurement purification and entanglement distillation.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("tables", help="write the five reference tables")
    sub.set_defaults(run=cmd_tables)
    _add_io_args(sub)

    sub = subs.add_parser("sweep", help="evaluate a quantity over a parameter grid",
                          epilog="lower_bound is the threshold L: above F = 1/4, one round "
                                 "raises F exactly for F in (L, 1), so L >= 1 means that "
                                 "window is empty.")
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
                     help="draw per-measurement rates uniformly from (LO, HI)")
    sub.add_argument("--draws", type=_positive_int,
                     help=f"random draws per grid point in --het-band mode (default {HET_DRAWS})")
    sub.add_argument("--seed", type=int, default=None,
                     help="seed for --het-band mode")
    _add_io_args(sub)

    sub = subs.add_parser("verify", help="analytic layer vs density-matrix oracle")
    sub.set_defaults(run=cmd_verify)
    sub.add_argument("--max-n", dest="max_n", type=int, default=3, choices=[1, 2, 3, 4])
    sub.add_argument("--seed", type=int, default=7)
    sub.add_argument("--draws", type=_positive_int, default=20)
    sub.add_argument("--full", action="store_true",
                     help="also run the direct full-register checks (up to 8 qubits)")

    sub = subs.add_parser("distill-mixed", help="two-way distillation of isotropic states")
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

    sub = subs.add_parser("distill-pure", help="filter a Schmidt-form pure state")
    sub.set_defaults(run=cmd_distill_pure)
    theta = sub.add_mutually_exclusive_group(required=True)
    theta.add_argument("--theta", type=float)
    theta.add_argument("--theta-frac-pi", dest="theta_frac_pi", type=float)
    sub.add_argument("--p", type=float, required=True)
    sub.add_argument("--epsilon", type=float, default=0.0)
    sub.add_argument("--n", type=_positive_int, default=1)
    _add_io_args(sub)

    sub = subs.add_parser("povm-purify", help="purified-measurement coefficients")
    sub.set_defaults(run=cmd_povm_purify)
    rates = sub.add_mutually_exclusive_group(required=True)
    rates.add_argument("--p", type=float)
    rates.add_argument("--pList", type=_rates, help="comma-separated heterogeneous rates")
    sub.add_argument("--epsilon", type=float, default=0.0)
    sub.add_argument("--n", type=_positive_int, help="depth with --p (default 1)")
    _add_io_args(sub)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
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
