"""Reference dump: every output of the transform stack over a fixed corpus, saved
so that two versions of the package can be compared bit for bit.

    python3 tools/refdump.py write OUT.npz       # run from the repository root
    python3 tools/refdump.py compare A.npz B.npz
    python3 tools/refdump.py check [REV]         # REV defaults to HEAD

``write`` imports the package from ``src/`` next to this file and, for
q in {1/2, aligned_q(2), 0.7, 0.9}, alpha in {0, 0.5, 1.5} and seeded
random bumps on supports from one point to 61x61 (pad 1), saves under a
stable name: forward and inverse samples, windows, tail bounds and edge
ratios on automatic and fixed windows, and, on the small supports, the
``identity_suite`` report (pairing f with its reversal, and with a seeded
bump g on the support, as ``verify --suite identities`` does), ``integrate_mu``
of f and of its transform (value and edge-shell tail, which no other entry
shows), the
``bandwidth_estimate`` sequences (with the reconstructed and with the
given preimage) at N = 12, ``pw_m_sup`` at
N = m + 4, both again at N = 50 (the engine's late steps), the
``bandwidth_estimate`` sequences once more at N = 130 (steps past 64 and
128, and eta underflowing from n = 90 on the 7x7 box at q = 1/2), the three
derivative bound checks at the ``verify --suite bounds`` orders (lhs, rhs
and the ``detail`` entries the tests read); for each (q, alpha),
``normalization_K``, ``Kernel(...).sup_bound()``, ``orthogonality_check``
at a diagonal and an off-diagonal pair of lattice points, and
``bessel_j_exponent_family`` over one range from the family's frontier - 2 and
one from its matching point k_s - 1, both past the memo's last shell K; for
each q, ``qtrig_exponent_families`` over the same two ranges (its families do
not read alpha), so that a change to the family bits shows directly, not only
through the Sonine entries, and ``sonine_identity_check`` at the ``verify
--suite sonine`` arguments and at each of their y alone, and at q = 1/2 and
aligned_q(2) both once more after that q's transforms and bandwidth runs
(``sonine_after_transforms``, equal to its twin unless a memo makes the
check's bits depend on the order of the calls).  At
the edges of the parameter range it also saves ``sonine_identity_check`` at
q in {0.95, 0.99, 0.999} (the suite's arguments), ``orthogonality_check`` at
alpha in {15, 30} (q = 1/2, the ``verify --suite orthogonality`` point
pairs), ``qgamma`` at base q in {0.998, 0.9999} for x in {0.5, 1.5, 2}, and
``forward`` of the README bump (q = 1/2, seed 7, pad 1) onto a window past the
kernel frontier, which holds none of the transform (zero samples, infinite tail).  A
call that raises is saved as its exception's type and message.  Only the
public API is used.

``compare`` lists the entries present in one dump only, the entries whose
values differ and those that differ only in the sign of a zero (or a NaN
payload), then one line per field name (a key's last component) with its
count of differing entries and their largest relative difference, and the
largest relative difference overall; it exits 1 unless the two dumps are
bit-identical.

``check`` extracts REV's ``src/`` with ``git archive`` into a temporary tree,
copies this file there so that both sides dump the same corpus, dumps that
tree and the ``src/`` next to this file (uncommitted edits included), and
compares the two dumps, exiting as ``compare`` does.
"""

from __future__ import annotations

import math
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qweinstein import (Kernel, LatticeWindow, PWmParams, QParams,  # noqa: E402
                        auto_lambda_window, bandwidth_estimate, forward, identity_suite,
                        integrate_mu, inverse, monomial_derivative_bound_check, normalization_K,
                        orthogonality_check, pw_m_sup, qgamma, radial_power_bound_check,
                        sonine_identity_check, weinstein_sup_bound_check)
from qweinstein.cli import random_even_bump  # noqa: E402
from qweinstein.qcore import aligned_q  # noqa: E402
from qweinstein.qspecial import (bessel_j_exponent_family, effective_floor_exponent,  # noqa: E402
                                 qtrig_exponent_families)

QS = {"half": 0.5, "aligned2": aligned_q(2), "0.7": 0.7, "0.9": 0.9}
ALPHAS = (0.0, 0.5, 1.5)
# name -> support (n1_min, n1_max, n2_min, n2_max); only the small ones run
# identity_suite, bandwidth_estimate and pw_m_sup
SUPPORTS = {"1x1": (0, 0, 0, 0), "4x4": (-1, 2, -1, 2), "7x7": (-2, 4, -2, 4),
            "61x61": (-20, 40, -20, 40)}
SMALL = ("1x1", "4x4", "7x7")
BANDWIDTH_N = 12
# and again at the README flow's N, where the engine's core has settled and eta
# spans 2^600 (q = 1/2, 7x7): the late steps that the N = 12 entries never reach
LATE_N = 50
# and far past the late steps: N = 130 crosses steps 64 and 128, and on the 7x7 box
# at q = 1/2 eta underflows from n = 90
DEEP_N = 130
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
# the upper end of the family ranges: past the memo's last shell K at every corpus
# q and alpha (K is at most 174, at q = 0.9 and alpha = -1/2)
FAMILY_K_MAX = 200
SONINE_Y = list(range(-2, 5))
# the q whose Sonine entries are saved again after their transforms and bandwidth runs:
# a family memo whose bits depended on the order of its requests would tell them apart
SONINE_AGAIN = ("half", "aligned2")
# the edges: Sonine near q = 1, orthogonality at high alpha (q = 1/2, with the
# verify suite's diag and offdiag pairs) and q-Gamma near base 1
EDGE_SONINE_QS = (0.95, 0.99, 0.999)
EDGE_ORTHO_ALPHAS = (15.0, 30.0)
EDGE_GAMMA_BASES, EDGE_GAMMA_XS = (0.998, 0.9999), (0.5, 1.5, 2.0)
# and a window past the kernel frontier at q = 1/2
PAST_FRONTIER = LatticeWindow(-40, -30, -40, -30)


def _window(w: LatticeWindow) -> np.ndarray:
    return np.array([w.n1_min, w.n1_max, w.n2_min, w.n2_max])


def _transform(res) -> dict:
    return {"samples": res.grid.samples, "window": _window(res.grid.window),
            "tail_bound": np.float64(res.tail_bound),
            "edge_ratio": np.float64(res.diagnostics["input_edge_mass_ratio"])}


def _identities(rep) -> dict:
    keys = sorted(rep.discrepancies)
    # a check with no data reads None, saved as NaN so that the dump loads without pickle
    values = [np.nan if rep.discrepancies[k] is None else rep.discrepancies[k] for k in keys]
    return {"keys": np.array(keys), "values": np.array(values, dtype=np.float64),
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


def _integral(res) -> dict:
    return {"value": np.complex128(res.value), "tail": np.float64(res.tail)}


def _scalar(value) -> dict:
    return {"value": np.float64(value)}


def _sonine(errors) -> dict:
    # the max over the suite's y, and each y's error alone, whose last bits the max can hide
    return {"value": np.float64(errors[0]), "per_y": np.array(errors[1:])}


def _family_ranges(q: float) -> dict:
    """name -> (k_min, FAMILY_K_MAX): from the frontier - 2 and from the matching point
    k_s - 1, where k_s is the deepest k with (1-q) q^k <= 1."""
    k_s = -int(math.floor(math.log(1.0 - q) / math.log(q) + 1e-9))
    return {"from_frontier-2": (effective_floor_exponent(q) - 2, FAMILY_K_MAX),
            "from_k_s-1": (k_s - 1, FAMILY_K_MAX)}


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

    def sonine(qname, q, entry="sonine"):
        p = QParams(q=q, alpha=0.0)
        for alpha, order in SONINE:
            record(f"q={qname}:{entry}[alpha={alpha},p={order}]",
                   lambda: [sonine_identity_check(alpha, order, ys, p)
                            for ys in [SONINE_Y] + [[y] for y in SONINE_Y]], _sonine)

    for qname, q in QS.items():
        for rname, (k_min, k_max) in _family_ranges(q).items():
            record(f"q={qname}:qtrig_exponent_families_{rname}",
                   lambda: qtrig_exponent_families(QParams(q=q, alpha=0.0), k_min, k_max),
                   lambda cs: {"cos": cs[0], "sin": cs[1]})
        sonine(qname, q)
        for ai, alpha in enumerate(ALPHAS):
            p = QParams(q=q, alpha=alpha)
            name = f"q={qname}:alpha={alpha}"
            for rname, (k_min, k_max) in _family_ranges(q).items():
                record(f"{name}:bessel_j_exponent_family_{rname}",
                       lambda: bessel_j_exponent_family(alpha, p, k_min, k_max),
                       lambda values: {"values": values})
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
                record(f"{name}:integrate_mu", lambda: integrate_mu(f), _integral)
                record(f"{name}:integrate_mu_G", lambda: integrate_mu(G), _integral)
                record(f"{name}:identity_suite", lambda: identity_suite(f), _identities)
                g = random_even_bump(p, LatticeWindow(*sup), 2000 + 10 * ai + si)
                record(f"{name}:identity_suite_g", lambda: identity_suite(f, g), _identities)
                record(f"{name}:bandwidth", lambda: bandwidth_estimate(G, BANDWIDTH_N),
                       _bandwidth)
                record(f"{name}:bandwidth_f_hat",
                       lambda: bandwidth_estimate(G, BANDWIDTH_N, f_hat=f), _bandwidth)
                record(f"{name}:bandwidth_N{LATE_N}", lambda: bandwidth_estimate(G, LATE_N),
                       _bandwidth)
                record(f"{name}:bandwidth_f_hat_N{LATE_N}",
                       lambda: bandwidth_estimate(G, LATE_N, f_hat=f), _bandwidth)
                record(f"{name}:bandwidth_N{DEEP_N}", lambda: bandwidth_estimate(G, DEEP_N),
                       _bandwidth)
                record(f"{name}:bandwidth_f_hat_N{DEEP_N}",
                       lambda: bandwidth_estimate(G, DEEP_N, f_hat=f), _bandwidth)
                m = int(alpha + 1.5) + 1     # the least m > alpha + 3/2
                record(f"{name}:pw_m_sup",
                       lambda: pw_m_sup(G, PWmParams(m=m, a=2.0, N=m + 4), f_hat=f), _pw_m)
                record(f"{name}:pw_m_sup_N{LATE_N}",
                       lambda: pw_m_sup(G, PWmParams(m=m, a=2.0, N=LATE_N), f_hat=f), _pw_m)
                for bname, (check, keys) in BOUNDS.items():
                    record(f"{name}:{bname}_bound", lambda: check(f), _bound(keys))
        if qname in SONINE_AGAIN:
            sonine(qname, q, "sonine_after_transforms")
    for q in EDGE_SONINE_QS:
        for alpha, order in SONINE:
            record(f"q={q}:sonine[alpha={alpha},p={order}]",
                   lambda: sonine_identity_check(alpha, order, SONINE_Y, QParams(q=q, alpha=0.0)),
                   _scalar)
    for alpha in EDGE_ORTHO_ALPHAS:
        p = QParams(q=0.5, alpha=alpha)
        for pname in ("diag", "offdiag"):
            x, y = ORTHO_PAIRS[pname]
            record(f"q=half:alpha={alpha}:orthogonality_{pname}",
                   lambda: orthogonality_check(x, y, p), _orthogonality)
    for base in EDGE_GAMMA_BASES:
        for x in EDGE_GAMMA_XS:
            record(f"base={base}:qgamma({x})", lambda: qgamma(x, QParams(q=base, alpha=0.0)),
                   _scalar)
    f = random_even_bump(QParams(q=0.5, alpha=0.0), LatticeWindow(*SUPPORTS["7x7"]), 7, pad=1)
    record("q=half:alpha=0.0:readme_bump:forward_past_frontier",
           lambda: forward(f, lambda_window=PAST_FRONTIER), _transform)
    np.savez(out, **entries)
    print(f"wrote {len(entries)} entries to {out} in {time.perf_counter() - start:.1f} s")


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint8)


def compare(path_a: str, path_b: str) -> int:
    A, B = np.load(path_a), np.load(path_b)
    only = sorted(set(A.files) ^ set(B.files))
    differ, zero_signs = [], []
    rels = {}   # key -> relative difference, for the numeric entries whose values differ
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
                rels[key] = (float(np.nanmax(np.abs(a - b)))
                             / max(float(np.nanmax(np.abs(a))), 1e-300))
    for title, keys in (("in one dump only", only), ("values differ", differ),
                        ("only the sign of a zero differs", zero_signs)):
        print(f"{title}: {len(keys)}")
        for key in keys:
            print(f"  {key}")
    fields = {}   # field name -> (entries that differ, their largest relative difference)
    for key in differ:
        field = key.rsplit(":", 1)[-1]
        count, rel = fields.get(field, (0, 0.0))
        fields[field] = (count + 1, max(rel, rels.get(key, 0.0)))
    for field, (count, rel) in sorted(fields.items()):
        print(f"field {field}: {count} differ, largest relative difference {rel:.3e}")
    worst, worst_key = max(((r, k) for k, r in rels.items() if r > 0.0), default=(0.0, None))
    print(f"{len(set(A.files) & set(B.files))} entries in both; largest relative difference "
          f"{worst:.3e}" + (f" ({worst_key})" if worst_key else ""))
    return 1 if only or differ or zero_signs else 0


def check(rev: str) -> int:
    root = Path(__file__).resolve().parent.parent
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        (base / "tools").mkdir(parents=True)
        archive = subprocess.run(["git", "-C", str(root), "archive", rev, "src"],
                                 stdout=subprocess.PIPE)
        if archive.returncode:
            return 2    # git has said why
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive.stdout, check=True)
        (base / "tools" / "refdump.py").write_bytes(Path(__file__).read_bytes())
        dumps = [str(Path(tmp) / f"{side}.npz") for side in ("rev", "tree")]
        for tree, label, out in zip((base, root), (rev, "working tree"), dumps):
            print(f"{label}: ", end="", flush=True)
            subprocess.run([sys.executable, str(tree / "tools" / "refdump.py"), "write", out],
                           check=True)
        return compare(*dumps)


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "write":
        write(argv[1])
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    if 1 <= len(argv) <= 2 and argv[0] == "check":
        return check(argv[1] if len(argv) == 2 else "HEAD")
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
