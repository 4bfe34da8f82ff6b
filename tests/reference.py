"""Dense reference operations, a per-point ``verify``, a per-cell ``--het-band``
sweep and a per-chunk emitter, that only the tests use.

The library applies its channels on qubit axes and never needs these;
the tests use them to build the same results the slow, obvious way.
"""

from __future__ import annotations

import json
from collections import defaultdict
from collections.abc import Iterable, Sequence
from itertools import product

import numpy as np

from entdistill import distill_mixed as dm
from entdistill import distill_pure as dp
from entdistill import cli, noise, oracle
from entdistill.qmat import I2, P0, P1, tensor

# Validation tolerances for density matrices and unitaries.
HERMITIAN_TOL = 1e-9
TRACE_TOL = 1e-9
EIGENVALUE_TOL = 1e-9
UNITARY_TOL = 1e-9

X = np.array([[0, 1], [1, 0]], dtype=complex)


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def _qubit_dims(mat: np.ndarray, dims: Sequence[int] | None) -> list[int]:
    d = mat.shape[0]
    if dims is not None:
        dims = list(dims)
        if int(np.prod(dims)) != d:
            raise ValueError(f"dims {dims} do not multiply to matrix dimension {d}")
        return dims
    n = d.bit_length() - 1
    if 2 ** n != d:
        raise ValueError(f"matrix dimension {d} is not a power of two; pass dims explicitly")
    return [2] * n


def partial_trace(
    rho: np.ndarray,
    keep: Iterable[int],
    dims: Sequence[int] | None = None,
) -> np.ndarray:
    """Trace out all subsystems not listed in ``keep``.

    Kept subsystems stay in their original relative order. ``dims``
    defaults to an all-qubit factorization of the matrix dimension.
    """
    rho = np.asarray(rho, dtype=complex)
    dims = _qubit_dims(rho, dims)
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("keep must contain at least one subsystem index")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep indices {keep} out of range for {n} subsystems")
    t = rho.reshape(dims + dims)
    remaining = list(dims)
    for idx in reversed(range(n)):
        if idx in keep:
            continue
        t = np.trace(t, axis1=idx, axis2=idx + len(remaining))
        del remaining[idx]
    d = int(np.prod(remaining))
    return t.reshape(d, d)


def is_unitary(u: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    return bool(np.abs(u @ dag(u) - np.eye(u.shape[0])).max() <= tol)


def conjugate(u: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """u rho u^dagger for unitary u; preserves trace and spectrum."""
    u = np.asarray(u, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if u.shape != rho.shape:
        raise ValueError(f"dimension mismatch: u is {u.shape}, rho is {rho.shape}")
    if not is_unitary(u):
        raise ValueError("u is not unitary within tolerance")
    return u @ rho @ dag(u)


def validate_density_matrix(rho: np.ndarray, dims: Sequence[int] | None = None) -> None:
    """Raise ValueError unless rho is Hermitian, unit-trace and PSD.

    Tolerances: max entry deviation 1e-9 for Hermiticity, 1e-9 on the
    trace, eigenvalues allowed down to -1e-9.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    _qubit_dims(rho, dims)
    if np.abs(rho - dag(rho)).max() > HERMITIAN_TOL:
        raise ValueError("density matrix is not Hermitian within 1e-9")
    if abs(np.trace(rho).real - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix trace {np.trace(rho).real} is not 1 within 1e-9")
    if np.linalg.eigvalsh(rho).min() < -EIGENVALUE_TOL:
        raise ValueError("density matrix has an eigenvalue below -1e-9")


def collective_cnot(n: int) -> np.ndarray:
    """Fan-out gate |0><0| x I^(n-1) + |1><1| x X^(n-1); identity for n=1."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return I2.copy()
    xs = tensor(*([X] * (n - 1)))
    eye = np.eye(2 ** (n - 1), dtype=complex)
    return np.kron(P0, eye) + np.kron(P1, xs)


def run_verification(max_n: int = 3, seed: int = 7, draws: int = 20,
                     full: bool = False) -> dict[str, float]:
    """``cli.run_verification`` point by point: one oracle gadget per role and point.

    The loop that the CLI ran before it drew every input first and
    evaluated the oracle on stacks; its dict is the CLI's, float for
    float.
    """
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
                    oracle.mixed_register(f), ep, oracle.oracle_effective_povm(q_list, eps, m))
                orc = oracle.distill_result(sigma)
                gaps["mixed_fidelity"].append(abs(res.fidelity_out - orc.fidelity_out))
                gaps["mixed_p_succ"].append(abs(res.p_succ - orc.p_succ))
                gaps["mixed_state"].append(
                    float(np.abs(dm.post_state_unnormalized(f, w) - sigma).max()))

                p_hom = float(rng.uniform(0.02, 0.3))
                ch = noise.purified_coeffs_gate_noisy(p_hom, eps, n)
                res_p = dp.pure_filter_fidelity(theta, ch)
                sigma_p = oracle.oracle_pure_post_state(
                    oracle.filtered_ket(theta), oracle.oracle_effective_povm([p_hom] * n, eps, n))
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
    return {name: float(np.max(v)) for name, v in gaps.items()}


def het_records(args, axes) -> cli.Records:
    """``sweep --het-band`` rows cell by cell: one chunk per (eps, n, m) cell.

    The loop that the CLI ran before het mode became a kernel of
    ``cli._grid``; its records are the CLI's, byte for byte once
    emitted. Rates are drawn per row, (F, draw) row-major within a cell.
    One draw of rows x (n + m) consumes the RandomState as per-row
    uniform(n) then uniform(m) calls would. Its row-by-row replay of a
    failing cell is left out: the tests give it valid bands only.
    """
    records = cli.Records()
    lo, hi = args.het_band
    draws = args.draws if args.draws is not None else cli.HET_DRAWS
    rng = np.random.RandomState(args.seed if args.seed is not None else 0)
    f_col = np.repeat(axes["F"], draws)
    draw_col = np.tile(np.arange(draws), len(axes["F"]))
    for eps, n, m in product(axes["epsilon"], axes["n"], axes["m"]):
        rates = rng.uniform(lo, hi, len(f_col) * (n + m)).reshape(len(f_col), n + m)
        p_a, p_b = rates[:, :n], rates[:, n:]
        res = dm.distill_map(f_col, dm.parity_weights(p_a, p_b, eps))
        records.add({"quantity": "mixed_fidelity_map", "epsilon": eps, "n": n, "m": m},
                    {"pA": p_a, "pB": p_b, "F": f_col,
                     "draw": draw_col, "value": res.fidelity_out, "p_succ": res.p_succ})
    return records


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
        slot = ";".join(["%.12g"] * column.shape[1])
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


def emit_records(records: cli.Records, fmt: str, out) -> None:
    """``cli.emit_records`` one %-template per chunk, CSV and JSON alike.

    The emitter that the CLI ran before CSV batches were formatted as
    columns; its bytes are the CLI's, for every input.
    """
    if fmt == "csv":
        fields = [f for f in cli.FIELD_ORDER
                  if any(f in constants or f in columns for constants, columns in records.chunks)]
        out.write(",".join(fields) + "\n")
    seen: dict = {}
    for constants, columns in records.chunks:
        if fmt == "json":
            constants = {**constants, "schema_version": cli.SCHEMA_VERSION}
            if all(len(column) == 1 for column in columns.values()):
                row = {f: ";".join(["%.12g"] * c.shape[1]) % tuple(c[0].tolist()) if c.ndim == 2
                       else c[0].item() for f, c in columns.items()}
                out.write(json.dumps({**constants, **row}, sort_keys=True) + "\n")
                continue
            fields = sorted([*constants, *columns])
        parts, values = [], []
        for f in fields:
            if f in columns:
                slot, lists = _slot(columns[f], fmt, seen)
                values += lists
            elif f in constants:
                const = constants[f]
                text = f"{const:.12g}" if isinstance(const, float) else str(const)
                slot = (json.dumps(const) if fmt == "json" else text).replace("%", "%%")
            else:
                slot = ""
            parts.append(slot if fmt == "csv" else f"{json.dumps(f)}: {slot}")
        template = (",".join(parts) if fmt == "csv" else "{" + ", ".join(parts) + "}") + "\n"
        out.write("".join(map(template.__mod__, zip(*values) if values else [()])))
