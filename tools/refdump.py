"""Reference dump: every output of the transform stack over a fixed corpus, saved
so that two versions of the package can be compared bit for bit.

    python3 tools/refdump.py write OUT.npz       # run from the repository root
    python3 tools/refdump.py compare A.npz B.npz

``write`` imports the package from ``src/`` next to this file and, for
q in {1/2, aligned_q(2), 0.7, 0.9}, alpha in {0, 0.5, 1.5} and seeded
random bumps on supports from one point to 61x61 (pad 1), saves under a
stable name: forward and inverse samples, windows, tail bounds and edge
ratios on automatic and fixed windows, and, on the small supports, the
``identity_suite`` report, the ``bandwidth_estimate`` sequences (with the
reconstructed and with the given preimage), ``pw_m_sup`` and the three
derivative bound checks at the ``verify --suite bounds`` orders (lhs, rhs
and the ``detail`` entries the tests read); for each (q, alpha),
``normalization_K``, ``Kernel(...).sup_bound()`` and ``orthogonality_check``
at a diagonal and an off-diagonal pair of lattice points; and for each q,
``sonine_identity_check`` at the ``verify --suite sonine`` arguments.  A
call that raises is saved as its exception's type and message.  Only the
public API is used.

``compare`` lists the entries present in one dump only, the entries whose
values differ and those that differ only in the sign of a zero (or a NaN
payload), and the largest relative difference; it exits 1 unless the two
dumps are bit-identical.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qweinstein import (Kernel, LatticeWindow, PWmParams, QParams,  # noqa: E402
                        auto_lambda_window, bandwidth_estimate, forward, identity_suite,
                        inverse, monomial_derivative_bound_check, normalization_K,
                        orthogonality_check, pw_m_sup, radial_power_bound_check,
                        sonine_identity_check, weinstein_sup_bound_check)
from qweinstein.cli import random_even_bump  # noqa: E402
from qweinstein.qcore import aligned_q  # noqa: E402

QS = {"half": 0.5, "aligned2": aligned_q(2), "0.7": 0.7, "0.9": 0.9}
ALPHAS = (0.0, 0.5, 1.5)
# name -> support (n1_min, n1_max, n2_min, n2_max); only the small ones run
# identity_suite, bandwidth_estimate and pw_m_sup
SUPPORTS = {"1x1": (0, 0, 0, 0), "4x4": (-1, 2, -1, 2), "7x7": (-2, 4, -2, 4),
            "61x61": (-20, 40, -20, 40)}
SMALL = ("1x1", "4x4", "7x7")
BANDWIDTH_N = 12
# (sign1, n1, n2) pairs for orthogonality_check: one diagonal, two off it
ORTHO_PAIRS = {"diag": ((1, 1, 0), (1, 1, 0)), "offdiag": ((1, 1, 0), (1, 3, 2)),
               "sign": ((1, 1, 0), (-1, 1, 0))}
# the verify suites' arguments: bound checks (name -> call on f, the detail
# keys the tests read) and the Sonine (alpha, p) pairs with their exponents
BOUNDS = {"monomial": (lambda f: monomial_derivative_bound_check(f, 3, 3, 1, 1, 2),
                       ("support_radius_out", "support_radius_bound")),
          "radial": (lambda f: radial_power_bound_check(f, 3, 1, 1, 1), ()),
          "weinstein_sup": (lambda f: weinstein_sup_bound_check(f, 2),
                            ("C_k", "max_derivative_sup"))}
SONINE = ((0.0, 1), (0.5, 2))
SONINE_Y = list(range(-2, 5))


def _window(w: LatticeWindow) -> np.ndarray:
    return np.array([w.n1_min, w.n1_max, w.n2_min, w.n2_max])


def _transform(res) -> dict:
    return {"samples": res.grid.samples, "window": _window(res.grid.window),
            "tail_bound": np.float64(res.tail_bound),
            "edge_ratio": np.float64(res.diagnostics["input_edge_mass_ratio"])}


def _identities(rep) -> dict:
    keys = sorted(rep.discrepancies)
    return {"keys": np.array(keys), "values": np.array([rep.discrepancies[k] for k in keys]),
            "skipped": np.array([str(s) for s in rep.skipped_orders], dtype=str),
            "window": _window(rep.lambda_window)}


def _bandwidth(rep) -> dict:
    return {"a_seq": np.array(rep.a_seq), "a_seq_literal": np.array(rep.a_seq_literal),
            "core_fractions": np.array(rep.core_fractions),
            "scalars": np.array([rep.estimate, rep.oracle_radius, rep.route_max_rel_dev]),
            "core_last_n": np.array(rep.core_last_n)}


def _orthogonality(res) -> dict:
    return {"value": np.complex128(res.value),
            "scalars": np.array([res.predicted_diagonal, res.fluctuation]),
            "shells_used": np.array(res.shells_used)}


def _scalar(value) -> dict:
    return {"value": np.float64(value)}


def _pw_m(result) -> dict:
    sup, per_n = result
    return {"sup": np.float64(sup), "per_n": np.array(per_n)}


def _bound(keys):
    def flatten(result) -> dict:
        lhs, rhs, detail = result
        return {"lhs_rhs": np.array([lhs, rhs]),
                "detail": np.array([detail[k] for k in keys], dtype=np.float64)}
    return flatten


def write(out: str) -> None:
    start = time.perf_counter()
    entries = {}

    def record(name, thunk, flatten):
        """thunk()'s result, its named arrays saved under name; None if it raises."""
        try:
            result = thunk()
            fields = flatten(result)
        except (ArithmeticError, ValueError) as exc:
            result, fields = None, {"raises": np.array(f"{type(exc).__name__}: {exc}")}
        for key, value in fields.items():
            entries[f"{name}:{key}"] = np.asarray(value)
        return result

    for qname, q in QS.items():
        for alpha, order in SONINE:
            record(f"q={qname}:sonine[alpha={alpha},p={order}]",
                   lambda: sonine_identity_check(alpha, order, SONINE_Y, QParams(q=q, alpha=0.0)),
                   _scalar)
        for ai, alpha in enumerate(ALPHAS):
            p = QParams(q=q, alpha=alpha)
            name = f"q={qname}:alpha={alpha}"
            record(f"{name}:normalization_K", lambda: normalization_K(p), _scalar)
            record(f"{name}:kernel_sup_bound", lambda: Kernel(p, (1.0, 1.0)).sup_bound(),
                   _scalar)
            for pname, (x, y) in ORTHO_PAIRS.items():
                record(f"{name}:orthogonality_{pname}", lambda: orthogonality_check(x, y, p),
                       _orthogonality)
            for si, (sname, sup) in enumerate(SUPPORTS.items()):
                if sname == "61x61" and alpha == 0.5:
                    continue    # the two other alphas cover the large contraction
                name = f"q={qname}:alpha={alpha}:support={sname}"
                f = random_even_bump(p, LatticeWindow(*sup), 1000 + 10 * ai + si, pad=1)
                w = f.window
                fixed = LatticeWindow(w.n1_min - 6, w.n1_max + 2, w.n2_min - 6, w.n2_max + 2)
                res = record(f"{name}:forward", lambda: forward(f), _transform)
                record(f"{name}:forward_fixed", lambda: forward(f, lambda_window=fixed),
                       _transform)
                record(f"{name}:auto_lambda_window", lambda: auto_lambda_window(f),
                       lambda win: {"window": _window(win)})
                if res is None:
                    continue
                G = res.grid
                record(f"{name}:inverse", lambda: inverse(G), _transform)
                record(f"{name}:inverse_fixed", lambda: inverse(G, x_window=w), _transform)
                if sname not in SMALL:
                    continue
                record(f"{name}:identity_suite", lambda: identity_suite(f), _identities)
                record(f"{name}:bandwidth", lambda: bandwidth_estimate(G, BANDWIDTH_N),
                       _bandwidth)
                record(f"{name}:bandwidth_f_hat",
                       lambda: bandwidth_estimate(G, BANDWIDTH_N, f_hat=f), _bandwidth)
                m = int(alpha + 1.5) + 1     # the least m > alpha + 3/2
                record(f"{name}:pw_m_sup",
                       lambda: pw_m_sup(G, PWmParams(m=m, a=2.0, N=m + 4), f_hat=f), _pw_m)
                for bname, (check, keys) in BOUNDS.items():
                    record(f"{name}:{bname}_bound", lambda: check(f), _bound(keys))
    np.savez(out, **entries)
    print(f"wrote {len(entries)} entries to {out} in {time.perf_counter() - start:.1f} s")


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint8)


def compare(path_a: str, path_b: str) -> int:
    A, B = np.load(path_a), np.load(path_b)
    only = sorted(set(A.files) ^ set(B.files))
    differ, zero_signs = [], []
    worst, worst_key = 0.0, None
    for key in sorted(set(A.files) & set(B.files)):
        a, b = A[key], B[key]
        if a.dtype != b.dtype or a.shape != b.shape:
            differ.append(key)
            continue
        if np.array_equal(_bits(a), _bits(b)):
            continue
        numeric = a.dtype.kind in "iufc"
        if numeric and np.array_equal(a, b, equal_nan=True):
            zero_signs.append(key)
            continue
        differ.append(key)
        if numeric:
            with np.errstate(invalid="ignore"):
                rel = float(np.nanmax(np.abs(a - b))) / max(float(np.nanmax(np.abs(a))), 1e-300)
            if rel > worst:
                worst, worst_key = rel, key
    for title, keys in (("in one dump only", only), ("values differ", differ),
                        ("only the sign of a zero differs", zero_signs)):
        print(f"{title}: {len(keys)}")
        for key in keys:
            print(f"  {key}")
    print(f"{len(set(A.files) & set(B.files))} entries in both; largest relative difference "
          f"{worst:.3e}" + (f" ({worst_key})" if worst_key else ""))
    return 1 if only or differ or zero_signs else 0


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "write":
        write(argv[1])
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
