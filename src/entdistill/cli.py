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

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
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

    @classmethod
    def from_rows(cls, rows: list[dict]) -> Records:
        """One one-row chunk per row."""
        records = cls()
        for row in rows:
            records.add(row)
        return records

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
    columns. JSON keys come in ``sort_keys`` order. A one-row chunk of
    constants is formatted as its own line.
    """
    if fmt == "csv":
        fields = _ordered_fields(records)
        out.write(",".join(fields) + "\n")
    seen: dict = {}
    for constants, columns in records.chunks:
        if fmt == "json":
            constants = {**constants, "schema_version": SCHEMA_VERSION}
            fields = sorted([*constants, *columns])
        if not columns:
            out.write((json.dumps(constants, sort_keys=True) if fmt == "json" else
                       ",".join(_fmt(constants[f]) if f in constants else "" for f in fields))
                      + "\n")
            continue
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
        out.write("".join(map(template.__mod__, zip(*values))))


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


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parse_float_axis(spec: str, name: str, parser) -> list[float]:
    """Parse 'a,b,c' or 'start:stop:count' into a list of floats."""
    try:
        if ":" in spec:
            parts = spec.split(":")
            if len(parts) != 3:
                raise ValueError
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
            if count < 1:
                raise ValueError
            return [float(v) for v in np.linspace(start, stop, count)]
        vals = [float(v) for v in spec.split(",") if v != ""]
        if not vals:
            raise ValueError
        return vals
    except ValueError:
        parser.error(f"cannot parse {name} axis {spec!r}; use 'a,b,c' or 'start:stop:count'")


def _parse_int_axis(spec: str, name: str, parser) -> list[int]:
    """Parse 'a,b,c' or 'lo:hi' (inclusive) into a list of ints."""
    try:
        if ":" in spec:
            lo, hi = (int(v) for v in spec.split(":"))
            if hi < lo:
                raise ValueError
            vals = list(range(lo, hi + 1))
        else:
            vals = [int(v) for v in spec.split(",") if v != ""]
        if not vals:
            raise ValueError
    except ValueError:
        parser.error(f"cannot parse {name} axis {spec!r}; use 'a,b,c' or 'lo:hi'")
    if min(vals) < 1:
        parser.error(f"--{name} depths must be >= 1, got {spec!r}")
    return vals


def _parse_rates(spec: str, parser) -> list[float]:
    try:
        rates = [float(v) for v in spec.split(",") if v != ""]
        if not rates:
            raise ValueError
        return rates
    except ValueError:
        parser.error(f"cannot parse rate list {spec!r}")


# ---------------------------------------------------------------------------
# tables

def _lower_bound_record(p: float, eps: float, n: int, m: int) -> dict:
    val = dm.lower_bound(dm.parity_weights([p] * n, [p] * m, eps))
    return {"quantity": "lower_bound", "p": p, "epsilon": eps, "n": n, "m": m, "value": val}


def _pure_record(p: float, eps: float, n: int, theta: float) -> dict:
    res = dp.pure_filter_fidelity(theta, noise.purified_coeffs_gate_noisy(p, eps, n))
    return {"quantity": "pure_fidelity", "p": p, "epsilon": eps, "n": n, "theta": theta,
            "value": res.fidelity_out, "p_succ": res.p_succ}


def _with_3dp(records: list[dict]) -> Records:
    for rec in records:
        rec["value_3dp"] = round(rec["value"], 3)
    return Records.from_rows(records)


def table_records() -> list[tuple[str, Records]]:
    """The five reference tables as (name, records) pairs."""
    theta = float(np.pi / 16)
    return [
        ("lower_bound_p02", _with_3dp([_lower_bound_record(0.2, 0.0, n, m)
                                       for n, m in product([1, 2, 3, 4], [1, 2, 3])])),
        ("lower_bound_p01", _with_3dp([_lower_bound_record(0.1, 0.0, n, m)
                                       for n, m in product([1, 2, 3, 4], [1, 2])])),
        ("lower_bound_gate_noise", _with_3dp([_lower_bound_record(0.1, 0.1, n, n)
                                              for n in [1, 2, 3, 4]])),
        ("pure_fidelity_noiseless", _with_3dp([_pure_record(0.1, 0.0, n, theta)
                                               for n in [1, 2, 3, 4]])),
        ("pure_fidelity_gate_noise", _with_3dp([_pure_record(0.1, 0.05, n, theta)
                                                for n in [1, 2, 3, 4]])),
    ]


def cmd_tables(args, parser) -> int:
    outdir = Path(args.out if args.out not in (None, "-") else ".")
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        ext = "json" if args.format == "json" else "csv"
        for name, recs in table_records():
            path = outdir / f"{name}.{ext}"
            with open(path, "w", newline="\n") as fh:
                emit_records(recs, args.format, fh)
            print(f"wrote {path}", file=sys.stderr)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# sweep

QUANTITIES = [
    "povm_fidelity", "mixed_fidelity_map", "lower_bound",
    "lower_bound_limit", "pure_fidelity", "pure_fidelity_limit",
]


def _sweep_records(args, parser) -> Records:
    q = args.quantity
    p_axis = _parse_float_axis(args.p, "p", parser) if args.p else None
    eps_axis = _parse_float_axis(args.epsilon, "epsilon", parser) if args.epsilon else [0.0]
    n_axis = _parse_int_axis(args.n, "n", parser) if args.n else [1]
    m_axis = _parse_int_axis(args.m, "m", parser) if args.m else [1]
    f_axis = _parse_float_axis(args.F, "F", parser) if args.F else None
    if args.theta and args.theta_frac_pi:
        parser.error("give --theta or --theta-frac-pi, not both")
    theta_axis = None
    if args.theta:
        theta_axis = _parse_float_axis(args.theta, "theta", parser)
    elif args.theta_frac_pi:
        theta_axis = [x * np.pi for x in _parse_float_axis(args.theta_frac_pi, "theta-frac-pi", parser)]

    het = args.het_band is not None
    if (het or args.seed is not None) and q != "mixed_fidelity_map":
        parser.error("--het-band/--seed only apply to the mixed_fidelity_map quantity")
    if het and args.het_band[0] > args.het_band[1]:
        parser.error(f"--het-band needs LO <= HI, got {args.het_band[0]} {args.het_band[1]}")
    if het and p_axis is not None:
        parser.error("give --p or --het-band, not both: --het-band draws the rates")
    if not het and p_axis is None:
        parser.error(f"quantity {q} needs a --p axis")
    if q == "mixed_fidelity_map" and f_axis is None:
        parser.error("mixed_fidelity_map needs an --F axis")
    if q in ("pure_fidelity", "pure_fidelity_limit") and theta_axis is None:
        parser.error(f"{q} needs a --theta or --theta-frac-pi axis")

    try:
        if q == "mixed_fidelity_map":
            return _map_records(args, p_axis, eps_axis, n_axis, m_axis, f_axis)
        # The other quantities loop over scalar points, one row per chunk.
        rows: list[dict] = []
        if q == "povm_fidelity":
            for p, eps, n in product(p_axis, eps_axis, n_axis):
                c = noise.purified_coeffs_gate_noisy(p, eps, n)
                rows.append({"quantity": q, "p": p, "epsilon": eps, "n": n,
                             "value": c.fidelity, "p_succ": c.acceptance})
        elif q == "lower_bound":
            rows = [_lower_bound_record(*point)
                    for point in product(p_axis, eps_axis, n_axis, m_axis)]
        elif q == "lower_bound_limit":
            for p, eps in product(p_axis, eps_axis):
                rows.append({"quantity": q, "p": p, "epsilon": eps,
                             "value": dm.lower_bound_limit(p, eps)})
        elif q == "pure_fidelity":
            rows = [_pure_record(*point)
                    for point in product(p_axis, eps_axis, n_axis, theta_axis)]
        else:  # pure_fidelity_limit
            for p, eps, theta in product(p_axis, eps_axis, theta_axis):
                rows.append({"quantity": q, "p": p, "epsilon": eps, "theta": theta,
                             "value": dp.pure_filter_fidelity_limit(theta, p, eps)})
        return Records.from_rows(rows)
    except ValueError as exc:
        parser.error(str(exc))


def _map_records(args, p_axis, eps_axis, n_axis, m_axis, f_axis) -> Records:
    """mixed_fidelity_map rows: one chunk per (p, eps, n, m) or (eps, n, m) cell.

    The map runs on the F axis as a column, so every row of a cell is one
    array operation. Every chunk is computed, and so every input checked,
    before the first byte is written.
    """
    q = "mixed_fidelity_map"
    records = Records()
    if args.het_band is None:  # weights once per (p, eps, n, m) cell
        f_col = np.array(f_axis)
        for p, eps, n, m in product(p_axis, eps_axis, n_axis, m_axis):
            res = dm.distill_map(f_col, dm.parity_weights([p] * n, [p] * m, eps))
            records.add({"quantity": q, "p": p, "epsilon": eps, "n": n, "m": m},
                        {"F": f_col, "value": res.fidelity_out, "p_succ": res.p_succ})
        return records
    # Rates drawn per row, (F, draw) row-major within an (eps, n, m) cell. One
    # draw of rows x (n + m) consumes the RandomState as per-row uniform(n)
    # then uniform(m) calls would.
    lo, hi = args.het_band
    rng = np.random.RandomState(args.seed if args.seed is not None else 0)
    f_col = np.repeat(f_axis, args.draws)
    draw_col = np.tile(np.arange(args.draws), len(f_axis))
    for eps, n, m in product(eps_axis, n_axis, m_axis):
        rates = rng.uniform(lo, hi, len(f_col) * (n + m)).reshape(len(f_col), n + m)
        p_a, p_b = rates[:, :n], rates[:, n:]
        try:
            res = dm.distill_map(f_col, dm.parity_weights(p_a, p_b, eps))
        except ValueError:
            # Name the first failing row's error, as a row-by-row evaluation does.
            for f, pa, pb in zip(f_col, p_a, p_b):
                dm.distill_map(f, dm.parity_weights(pa, pb, eps))
            raise
        records.add({"quantity": q, "epsilon": eps, "n": n, "m": m},
                    {"pA": p_a, "pB": p_b, "F": f_col,
                     "draw": draw_col, "value": res.fidelity_out, "p_succ": res.p_succ})
    return records


def cmd_sweep(args, parser) -> int:
    return _write(_sweep_records(args, parser), args)


# ---------------------------------------------------------------------------
# verify

VERIFY_TOL = 1e-10


def run_verification(max_n: int = 3, seed: int = 7, draws: int = 20,
                     full: bool = False, corrupt: float = 0.0) -> dict[str, float]:
    """Max |analytic - oracle| per quantity over a seeded random grid.

    ``corrupt`` adds a bias to one analytic value; it exists so the
    failure path of the CLI can be exercised deterministically.
    """
    rng = np.random.RandomState(seed)
    eps_grid = [0.0, 0.05, 0.1]
    dev = {k: 0.0 for k in [
        "povm_coeffs", "povm_offdiag",
        "mixed_fidelity", "mixed_p_succ", "mixed_state",
        "pure_fidelity", "pure_p_succ", "pure_state",
    ]}

    for _ in range(draws):
        f = float(rng.uniform(0.26, 0.99))
        theta = float(rng.uniform(0.05, np.pi / 4 - 0.01))
        for eps in eps_grid:
            for n in range(1, max_n + 1):
                p_list = list(rng.uniform(0.02, 0.3, n))
                c = noise.purified_coeffs_general(p_list, eps)
                ep = oracle.oracle_effective_povm(p_list, eps, n)
                dev["povm_coeffs"] = max(dev["povm_coeffs"],
                                         abs(ep.r0 - c.r0), abs(ep.r1 - c.r1))
                dev["povm_offdiag"] = max(dev["povm_offdiag"],
                                          float(np.abs(ep.q0 - np.diag(np.diag(ep.q0))).max()),
                                          float(np.abs(ep.q1 - np.diag(np.diag(ep.q1))).max()))

                m = int(rng.randint(1, max_n + 1))
                q_list = list(rng.uniform(0.02, 0.3, m))
                w = dm.parity_weights(p_list, q_list, eps)
                res = dm.distill_map(f, w)
                orc = oracle.oracle_distill_mixed(f, p_list, q_list, eps)
                dev["mixed_fidelity"] = max(
                    dev["mixed_fidelity"],
                    abs(res.fidelity_out + corrupt - orc.fidelity_out))
                dev["mixed_p_succ"] = max(dev["mixed_p_succ"], abs(res.p_succ - orc.p_succ))
                dev["mixed_state"] = max(
                    dev["mixed_state"],
                    float(np.abs(dm.post_state_unnormalized(f, w)
                                 - oracle.oracle_mixed_post_state(f, p_list, q_list, eps)).max()))

                p_hom = float(rng.uniform(0.02, 0.3))
                ch = noise.purified_coeffs_gate_noisy(p_hom, eps, n)
                res_p = dp.pure_filter_fidelity(theta, ch)
                orc_p = oracle.oracle_distill_pure(theta, p_hom, eps, n)
                dev["pure_fidelity"] = max(dev["pure_fidelity"],
                                           abs(res_p.fidelity_out - orc_p.fidelity_out))
                dev["pure_p_succ"] = max(dev["pure_p_succ"], abs(res_p.p_succ - orc_p.p_succ))
                dev["pure_state"] = max(
                    dev["pure_state"],
                    float(np.abs(dp.pure_post_state_unnormalized(theta, ch)
                                 - oracle.oracle_pure_post_state(theta, p_hom, eps, n)).max()))

    if full:
        dev["direct_register"] = 0.0
        for (n, m, eps) in [(2, 2, 0.0), (2, 2, 0.1), (3, 3, 0.05)]:
            f = float(rng.uniform(0.5, 0.95))
            p_a = list(rng.uniform(0.02, 0.3, n))
            p_b = list(rng.uniform(0.02, 0.3, m))
            direct = oracle.oracle_mixed_post_state_direct(f, p_a, p_b, eps)
            w = dm.parity_weights(p_a, p_b, eps)
            dev["direct_register"] = max(
                dev["direct_register"],
                float(np.abs(direct - dm.post_state_unnormalized(f, w)).max()))
    return dev


def cmd_verify(args, parser) -> int:
    dev = run_verification(max_n=args.max_n, seed=args.seed, draws=args.draws,
                           full=args.full, corrupt=1e-6 if args.self_test_corrupt else 0.0)
    ok = True
    for name in sorted(dev):
        status = "ok" if dev[name] < VERIFY_TOL else "FAIL"
        if dev[name] >= VERIFY_TOL:
            ok = False
        print(f"{name:<20s} max|dev| = {dev[name]:.3e}  [{status}]")
    print(f"verification {'passed' if ok else 'FAILED'} "
          f"(tolerance {VERIFY_TOL:.0e}, max_n={args.max_n}, seed={args.seed}, draws={args.draws})")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# single-shot protocol commands

def cmd_distill_mixed(args, parser) -> int:
    if args.pA or args.pB:
        if not (args.pA and args.pB):
            parser.error("--pA and --pB must be given together")
        if args.p is not None:
            parser.error("give either --p or --pA/--pB, not both")
        p_a, p_b = _parse_rates(args.pA, parser), _parse_rates(args.pB, parser)
    else:
        if args.p is None:
            parser.error("distill-mixed needs --p or --pA/--pB")
        p_a, p_b = [args.p] * args.n, [args.p] * args.m
    try:
        weights = dm.parity_weights(p_a, p_b, args.epsilon)
    except ValueError as exc:
        parser.error(str(exc))
    rows = []
    f = args.F
    for rnd in range(1, args.rounds + 1):
        res = dm.distill_map(f, weights)
        rows.append({
            "quantity": "mixed_fidelity_map", "pA": _rates_field(p_a), "pB": _rates_field(p_b),
            "epsilon": args.epsilon, "n": len(p_a), "m": len(p_b),
            "F": f, "round": rnd, "value": res.fidelity_out, "p_succ": res.p_succ,
        })
        f = res.fidelity_out
    return _write(Records.from_rows(rows), args)


def _resolve_theta(args, parser) -> float:
    if (args.theta is None) == (args.theta_frac_pi is None):
        parser.error("give exactly one of --theta or --theta-frac-pi")
    return args.theta if args.theta is not None else args.theta_frac_pi * np.pi


def cmd_distill_pure(args, parser) -> int:
    theta = _resolve_theta(args, parser)
    try:
        record = _pure_record(args.p, args.epsilon, args.n, theta)
    except ValueError as exc:
        parser.error(str(exc))
    return _write(Records.from_rows([record]), args)


def cmd_povm_purify(args, parser) -> int:
    if (args.pList is None) == (args.p is None):
        parser.error("give exactly one of --p or --pList")
    try:
        if args.pList is not None:
            p_list = _parse_rates(args.pList, parser)
            c = noise.purified_coeffs_general(p_list, args.epsilon)
            p_field = _rates_field(p_list)
        else:
            c = noise.purified_coeffs_gate_noisy(args.p, args.epsilon, args.n)
            p_field = args.p
    except ValueError as exc:
        parser.error(str(exc))
    return _write(Records.from_rows([{
        "quantity": "povm_fidelity", "p": p_field, "epsilon": args.epsilon, "n": c.n,
        "r0": c.r0, "r1": c.r1, "value": c.fidelity, "p_succ": c.acceptance,
    }]), args)


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

    sub = subs.add_parser("sweep", help="evaluate a quantity over a parameter grid")
    sub.set_defaults(run=cmd_sweep)
    sub.add_argument("--quantity", choices=QUANTITIES, required=True)
    sub.add_argument("--p", help="axis: 'a,b,c' or 'start:stop:count'")
    sub.add_argument("--epsilon", help="axis (default 0)")
    sub.add_argument("--n", help="axis: 'a,b,c' or 'lo:hi' (default 1)")
    sub.add_argument("--m", help="axis (default 1)")
    sub.add_argument("--F", help="axis of input singlet fractions")
    sub.add_argument("--theta", help="axis of Schmidt angles in radians")
    sub.add_argument("--theta-frac-pi", dest="theta_frac_pi",
                     help="axis of Schmidt angles as multiples of pi")
    sub.add_argument("--het-band", dest="het_band", nargs=2, type=float,
                     metavar=("LO", "HI"),
                     help="draw per-measurement rates uniformly from (LO, HI)")
    sub.add_argument("--draws", type=_positive_int, default=20,
                     help="random draws per grid point in --het-band mode")
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
    sub.add_argument("--self-test-corrupt", dest="self_test_corrupt",
                     action="store_true", help=argparse.SUPPRESS)

    sub = subs.add_parser("distill-mixed", help="two-way distillation of isotropic states")
    sub.set_defaults(run=cmd_distill_mixed)
    sub.add_argument("--F", type=float, required=True)
    sub.add_argument("--p", type=float)
    sub.add_argument("--pA", help="comma-separated per-measurement rates for Alice")
    sub.add_argument("--pB", help="comma-separated per-measurement rates for Bob")
    sub.add_argument("--n", type=_positive_int, default=1)
    sub.add_argument("--m", type=_positive_int, default=1)
    sub.add_argument("--epsilon", type=float, default=0.0)
    sub.add_argument("--rounds", type=_positive_int, default=1,
                     help="iterate the map with the same weights; this assumes each round's "
                          "output is twirled back to an isotropic state before the next")
    _add_io_args(sub)

    sub = subs.add_parser("distill-pure", help="filter a Schmidt-form pure state")
    sub.set_defaults(run=cmd_distill_pure)
    sub.add_argument("--theta", type=float)
    sub.add_argument("--theta-frac-pi", dest="theta_frac_pi", type=float)
    sub.add_argument("--p", type=float, required=True)
    sub.add_argument("--epsilon", type=float, default=0.0)
    sub.add_argument("--n", type=_positive_int, default=1)
    _add_io_args(sub)

    sub = subs.add_parser("povm-purify", help="purified-measurement coefficients")
    sub.set_defaults(run=cmd_povm_purify)
    sub.add_argument("--p", type=float)
    sub.add_argument("--pList", help="comma-separated heterogeneous rates")
    sub.add_argument("--epsilon", type=float, default=0.0)
    sub.add_argument("--n", type=_positive_int, default=1)
    _add_io_args(sub)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args, parser)
    except SystemExit as exc:
        if isinstance(exc.code, int):
            return exc.code
        return 2 if exc.code else 0


if __name__ == "__main__":
    sys.exit(main())
