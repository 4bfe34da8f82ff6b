"""Dense reference operations, the depolarized CNOT by fancy index
(``depolarized_cnot_apply``) and its fan-out by new registers
(``apply_depolarized_cnot_chain``), the full registers built by kron products
and that fan-out, never the library's channel (``oracle_mixed_post_state_direct``,
``oracle_pure_post_state_direct``),
a per-point ``verify``, a per-cell ``--het-band`` sweep and a template
emitter, that only the tests use.

The library applies its channels on qubit axes and never needs these;
the tests use them to build the same results the slow, obvious way. The
fancy-index channel takes a register of any size, so it also builds the
registers past the library channel's cap of ``noise.MAX_QUBITS`` qubits.
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
from entdistill.qmat import I2, KET0, projector, tensor
from entdistill.states import pure_theta

# Validation tolerances for density matrices and unitaries.
HERMITIAN_TOL = 1e-9
TRACE_TOL = 1e-9
EIGENVALUE_TOL = 1e-9
UNITARY_TOL = 1e-9

X = np.array([[0, 1], [1, 0]], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
P0 = np.outer(KET0, KET0)
P1 = np.outer(KET1, KET1)


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


def depolarized_cnot_apply(rho: np.ndarray, control: int, target: int,
                           epsilon: float) -> np.ndarray:
    """``noise.depolarized_cnot_apply`` as the library ran it before its flat ``take``.

    V is a 2-D fancy index of the permutation, and the (c, t) marginal
    is the sum of four diagonal blocks of the (2,)*2n tensor, each
    picked by a key over every qubit axis. ``epsilon`` is a float only.
    Unlike the library's channel, it takes a register of any size.
    """
    rho = np.asarray(rho, dtype=complex)
    epsilon = noise._check_fraction(epsilon, "epsilon")
    d = rho.shape[-1] if rho.ndim else 0
    nq = d.bit_length() - 1
    if rho.ndim < 2 or rho.shape[-2] != d or 2 ** nq != d:
        raise ValueError(f"state shape {rho.shape} is not a square power of two")
    if control == target:
        raise ValueError("control and target must differ")
    if not (0 <= control < nq and 0 <= target < nq):
        raise ValueError(f"invalid control/target ({control}, {target}) for {nq} qubits")
    index = np.arange(d)
    cbit, tbit = 1 << (nq - 1 - control), 1 << (nq - 1 - target)
    perm = np.where(index & cbit, index ^ tbit, index)
    out = rho[..., perm[:, None], perm]
    if epsilon > 0.0:
        out *= 1.0 - epsilon
        blocks = []
        for c, t in ((0, 0), (0, 1), (1, 0), (1, 1)):
            key = [Ellipsis] + [slice(None)] * (2 * nq)
            key[1 + control] = key[1 + nq + control] = c
            key[1 + target] = key[1 + nq + target] = t
            blocks.append(tuple(key))
        axes = rho.shape[:-2] + (2,) * (2 * nq)
        tensor_in, tensor_out = rho.reshape(axes), out.reshape(axes)
        marginal = sum(tensor_in[key] for key in blocks)
        for key in blocks:
            tensor_out[key] += epsilon / 4.0 * marginal
        out = tensor_out.reshape(rho.shape)
    return out


def apply_depolarized_cnot_chain(rho: np.ndarray, targets: Sequence[int], control: int,
                                 epsilon: float) -> np.ndarray:
    """Schroedinger-picture fan-out: this module's depolarized CNOTs from control to each
    target in order, each returning a new register, so no fault of the library's channel
    reaches the registers built from it."""
    for t in targets:
        rho = depolarized_cnot_apply(rho, control, t, epsilon)
    return rho


def oracle_mixed_post_state_direct(f: float, p_a: Sequence[float], p_b: Sequence[float],
                                   epsilon: float = 0.0) -> np.ndarray:
    """``oracle.oracle_mixed_post_state_direct`` with its register built by kron products.

    ``mixed_register(f)`` beside a |0><0| projector per ancilla, every
    fan-out CNOT applied to the whole register and every qubit measured
    at the end, where the library measures each ancilla right after its
    CNOT on two 5-qubit registers, one per unanimous outcome. The
    measurement is this function's own contraction,
    tr_rest[rho (I_4 x element)], not the library's.
    """
    n, m = len(p_a), len(p_b)
    nq = 4 + (n - 1) + (m - 1)
    rho = tensor(oracle.mixed_register(f), *([projector(KET0)] * (nq - 4)))
    rho = apply_depolarized_cnot_chain(rho, list(range(4, 4 + n - 1)), control=2, epsilon=epsilon)
    rho = apply_depolarized_cnot_chain(rho, list(range(4 + n - 1, nq)), control=3, epsilon=epsilon)
    rates = [p_a[0], p_b[0], *p_a[1:], *p_b[1:]]
    element = sum(tensor(*[noise.noisy_povm_element(outcome, p) for p in rates])
                  for outcome in (0, 1))
    d = element.shape[-1]
    return np.einsum("aybz,zy->ab", rho.reshape(4, d, 4, d), element)


def oracle_pure_post_state_direct(theta: float, p: float, epsilon: float, n: int) -> np.ndarray:
    """The filtering circuit with the gadget's n - 1 ancillas simulated explicitly.

    Register order A B E, then E's ancillas: U on (B, E), the fan-out of
    depolarized CNOTs from E, then E and every ancilla measured with the
    noisy element of outcome 0 and traced out. Certifies the
    effective-POVM reduction of ``oracle.oracle_pure_post_state``.
    """
    u = np.kron(I2, np.kron(dp.filter_ops(theta).u, np.eye(2 ** (n - 1))))
    rho = apply_depolarized_cnot_chain(projector(u @ tensor(pure_theta(theta), *[KET0] * n)),
                                       list(range(3, n + 2)), control=2, epsilon=epsilon)
    element = tensor(*[noise.noisy_povm_element(0, p)] * n)
    return partial_trace(rho @ np.kron(np.eye(4), element), keep=[0, 1])


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
    """``sweep --het-band`` rows cell by cell, one (eps, n, m) cell after another.

    The loop that the CLI ran before het mode became a kernel of
    ``cli._grid``; its records, one table of a column per field, are the
    CLI's, byte for byte once emitted. Rates are drawn per row, (F, draw)
    row-major within a cell. One draw of rows x (n + m) consumes the
    RandomState as per-row uniform(n) then uniform(m) calls would. Its
    row-by-row replay of a failing cell is left out: the tests give it
    valid bands only.
    """
    lo, hi = args.het_band
    draws = args.draws if args.draws is not None else cli.HET_DRAWS
    rng = np.random.RandomState(args.seed if args.seed is not None else 0)
    f_col = np.repeat(axes["F"], draws)
    draw_col = np.tile(np.arange(draws), len(axes["F"]))
    cells = []
    for eps, n, m in product(axes["epsilon"], axes["n"], axes["m"]):
        rates = rng.uniform(lo, hi, len(f_col) * (n + m)).reshape(len(f_col), n + m)
        p_a, p_b = rates[:, :n], rates[:, n:]
        res = dm.distill_map(f_col, dm.parity_weights(p_a, p_b, eps))
        pad = [(0, 0), (0, max(axes["n"]) - n)], [(0, 0), (0, max(axes["m"]) - m)]
        cells.append([np.full(len(f_col), eps), np.full(len(f_col), n), np.full(len(f_col), m),
                      np.pad(p_a, pad[0], constant_values=np.nan),
                      np.pad(p_b, pad[1], constant_values=np.nan),
                      f_col, draw_col, res.fidelity_out, res.p_succ])
    fields = ("epsilon", "n", "m", "pA", "pB", "F", "draw", "value", "p_succ")
    return cli.Records({"quantity": "mixed_fidelity_map"},
                       {f: np.concatenate(column) for f, column in zip(fields, zip(*cells))})


def _slot(column: np.ndarray, fmt: str) -> tuple[str, list]:
    """A column's %-template slot and the values that fill it, one a row.

    '%.12g' % x and '%r' % x give the bytes of f"{x:.12g}" and of
    json.dumps(x) for a finite float x. A 2-D column is a rate-list field:
    each row prints as its rates before the NaN padding joined by ';', a
    string in JSON (the digits need no escaping).
    """
    kind, values = column.dtype.kind, column.tolist()
    if column.ndim == 2:
        slot = "%s" if fmt == "csv" else '"%s"'
        return slot, [";".join("%.12g" % r for r in row if not np.isnan(r)) for row in values]
    if kind == "f" and (fmt == "csv" or np.isfinite(column).all()):
        return ("%.12g" if fmt == "csv" else "%r"), values
    if kind in "iu":
        return "%d", values
    return "%s", values if fmt == "csv" else list(map(json.dumps, values))


def emit_records(records: cli.Records, fmt: str, out) -> None:
    """``cli.emit_records`` through one %-template for every output, CSV and JSON alike.

    Each coded column is expanded to its value per row first. The emitter
    that the CLI ran before outputs were laid out as bytes, restated for
    one table; its bytes are the CLI's, for every input.
    """
    constants = records.constants
    columns = {f: values if codes is None else values[codes]
               for f, (values, codes) in records.columns.items()}
    if fmt == "csv":
        fields = [f for f in cli.FIELD_ORDER if f in constants or f in columns]
        out.write(",".join(fields) + "\n")
    else:
        constants = {**constants, "schema_version": cli.SCHEMA_VERSION}
        fields = sorted([*constants, *columns])
    parts, values = [], []
    for f in fields:
        if f in columns:
            slot, column = _slot(columns[f], fmt)
            values.append(column)
        else:
            const = constants[f]
            text = f"{const:.12g}" if isinstance(const, float) else str(const)
            slot = (json.dumps(const) if fmt == "json" else text).replace("%", "%%")
        parts.append(slot if fmt == "csv" else f"{json.dumps(f)}: {slot}")
    template = (",".join(parts) if fmt == "csv" else "{" + ", ".join(parts) + "}") + "\n"
    out.write("".join(map(template.__mod__, zip(*values) if values else [()])))
