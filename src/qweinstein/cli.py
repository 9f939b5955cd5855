"""Command-line front end: dataset I/O, fixture generation, transform
execution and theorem-level verification suites.

Exit codes: 0 ok, 1 usage or parse error, 2 numerical diagnostics
(divergence, taint exhaustion, float64 overflow), 3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .qcore import DivergenceError, QDomainError, QParams, TaintError
from .qops import EVEN, GridFunction, LatticeWindow
from .qintegrate import lp_norm
from .qspecial import alignment_regime, decay_floor_exponent
from .transform import (
    AUTO_EDGE_CAP,
    embed_zeros,
    forward,
    identity_suite,
    inverse,
    orthogonality_check,
)
from .paleywiener import (
    PWmParams,
    bandwidth_estimate,
    monomial_derivative_bound_check,
    radial_power_bound_check,
    pw_m_sup,
    sonine_identity_check,
    support_radius,
    weinstein_sup_bound_check,
)

FORMAT_VERSION = 1
FORMATS = ("csv", "json")
# a window from outside the program (a grid file's header, --support, --window,
# the n1_/n2_ config keys) has exponents in [decay_floor_exponent(q) - 501, 500],
# which holds every automatic window of forward or inverse on such an input: from
# effective_floor_exponent(q) minus the input's largest exponent (at most
# AUTO_EDGE_CAP + 1 after transform's one-shell pad) up to AUTO_EDGE_CAP.  It has
# at most MAX_WINDOW_CELLS cells (both signs of x1), 16 bytes each to the reader,
# so 2 GiB; the range's 2 (1002 - decay_floor_exponent(q))^2 fit for q <= 0.99998
MAX_WINDOW_CELLS = 2**27


def _checked_window(bounds, q: float, what: str) -> LatticeWindow:
    """The window with bounds n1_min, n1_max, n2_min, n2_max from outside the
    program; QDomainError, naming it as what, unless it keeps the limits above."""
    what = f"{what} n1=[{bounds[0]},{bounds[1]}] n2=[{bounds[2]},{bounds[3]}]"
    lo, hi = decay_floor_exponent(q) - AUTO_EDGE_CAP - 1, AUTO_EDGE_CAP
    if not all(lo <= n <= hi for n in bounds):
        raise QDomainError(f"{what}: exponents must lie in [{lo}, {hi}] at q={q}")
    window = LatticeWindow(*bounds)
    cells = math.prod(window.shape)
    if cells > MAX_WINDOW_CELLS:
        raise QDomainError(f"{what} spans {cells} cells, more than {MAX_WINDOW_CELLS}")
    return window


class FileFormatError(ValueError):
    """Malformed grid-function file; message carries the line number."""


def _read_text(path: str) -> str:
    """The file's contents as UTF-8 text; FileFormatError naming the line of a
    byte sequence that is not UTF-8."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise FileFormatError(f"{path}:{lineno}: not UTF-8 text ({exc.reason} at byte "
                              f"{exc.start})") from exc


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class JobConfig:
    q: float = 0.5
    alpha: float = 0.0
    seed: int = 1
    tol: float = 1e-6
    n1_min: int | None = None
    n1_max: int | None = None
    n2_min: int | None = None
    n2_max: int | None = None
    fmt: str = "csv"
    N: int = 20

    def params(self) -> QParams:
        return QParams(q=self.q, alpha=self.alpha)

    def window(self) -> LatticeWindow | None:
        vals = (self.n1_min, self.n1_max, self.n2_min, self.n2_max)
        if all(v is None for v in vals):
            return None
        if any(v is None for v in vals):
            raise QDomainError("window needs all four bounds")
        return _checked_window(vals, self.params().q, "window")

    @staticmethod
    def from_file(path: str) -> "JobConfig":
        cfg = JobConfig()
        for lineno, raw in enumerate(_read_text(path).splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise FileFormatError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, val = line.split("=", 1)
            key = key.strip()
            val = val.strip()
            if key not in {f.name for f in fields(cfg)}:
                raise FileFormatError(f"{path}:{lineno}: unknown key {key!r}")
            if key == "fmt":
                if val not in FORMATS:
                    raise FileFormatError(f"{path}:{lineno}: unknown format {val!r}")
                convert = str
            elif key in ("seed", "N") or key.startswith(("n1_", "n2_")):
                convert = int
            else:
                convert = float
            try:
                setattr(cfg, key, convert(val))
            except ValueError as exc:
                raise FileFormatError(f"{path}:{lineno}: bad {key} value {val!r}") from exc
        return cfg


# ---------------------------------------------------------------------------
# grid-function files
# ---------------------------------------------------------------------------

def _check_out_name(path: str, fmt: str) -> None:
    if (fmt == "json") != path.endswith(".json"):   # read_gridfunction goes by the name
        raise FileFormatError(f"{path}: format {fmt!r} disagrees with the file name; names "
                              "ending in .json are read as JSON, all others as CSV")


def write_gridfunction(f: GridFunction, path: str, fmt: str = "csv"):
    """Sparse on-disk form: only nonzero points, absent points are zero."""
    _check_out_name(path, fmt)
    w = f.window
    s_idx, i1, i2 = np.nonzero(f.samples)   # C order: sign, then n1, then n2
    v = f.samples[s_idx, i1, i2]
    cols = ((1 - 2 * s_idx).tolist(), (i1 + w.n1_min).tolist(), (i2 + w.n2_min).tolist(),
            v.real.tolist(), v.imag.tolist())
    if fmt == "csv":
        with open(path, "w") as fh:
            fh.write(f"# qweinstein v{FORMAT_VERSION} q={f.params.q} alpha={f.params.alpha} "
                     f"parity={f.parity_y} n1=[{w.n1_min},{w.n1_max}] n2=[{w.n2_min},{w.n2_max}]\n")
            fh.write("sign,n1,n2,re,im\n")
            fh.write("".join(map("{},{},{},{!r},{!r}\n".format, *cols)))
    elif fmt == "json":
        doc = {
            "format": "qweinstein",
            "version": FORMAT_VERSION,
            "q": f.params.q,
            "alpha": f.params.alpha,
            "parity": f.parity_y,
            "n1": [w.n1_min, w.n1_max],
            "n2": [w.n2_min, w.n2_max],
            "points": list(zip(*cols)),   # orjson writes tuples as arrays
        }
        import orjson   # here, in _read_json and _cmd_bandwidth only: other runs skip its import
        with open(path, "wb") as fh:   # compact, and floats in shortest round-trip form
            # OPT_SERIALIZE_NUMPY: np.float64 params too, as floats
            fh.write(orjson.dumps(doc, option=orjson.OPT_SERIALIZE_NUMPY))
    else:
        raise FileFormatError(f"unknown format {fmt!r}")


_HEADER_KEYS = ("q", "alpha", "parity", "n1", "n2")


def _parse_header(line: str, path: str) -> dict:
    if not line.startswith("# qweinstein"):
        raise FileFormatError(f"{path}:1: missing '# qweinstein' header")
    toks = line[1:].split()
    out = {}
    if len(toks) < 2 or not toks[1].startswith("v"):
        raise FileFormatError(f"{path}:1: missing format version")
    try:
        out["version"] = int(toks[1][1:])
    except ValueError as exc:
        raise FileFormatError(f"{path}:1: bad version {toks[1]!r}") from exc
    for tok in toks[2:]:
        if "=" not in tok:
            raise FileFormatError(f"{path}:1: bad header token {tok!r}")
        k, v = tok.split("=", 1)
        if k not in _HEADER_KEYS:
            raise FileFormatError(f"{path}:1: unknown header key {k!r}")
        try:
            if k in ("q", "alpha"):
                out[k] = float(v)
            elif k == "parity":
                out[k] = v
            else:
                lo, hi = v.strip("[]").split(",")
                out[k] = (int(lo), int(hi))
        except ValueError as exc:
            raise FileFormatError(f"{path}:1: bad header value {tok!r}") from exc
    for need in _HEADER_KEYS:
        if need not in out:
            raise FileFormatError(f"{path}:1: header missing {need!r}")
    return out


# per field: converter, dtype and the types a value may have; CSV fields are strings
# to parse, while JSON fields are numbers already, and no strings or booleans
_CSV_FIELDS = [(int, np.int64, None)] * 3 + [(float, np.float64, None)] * 2
_JSON_FIELDS = [(int, np.int64, {int})] * 3 + [(float, np.float64, {int, float})] * 2


def _column(values, convert, dtype, types) -> np.ndarray:
    """The values converted to dtype, cut short at the first that does not convert
    or, with types given, whose type is not one of them."""
    if types is not None and not set(map(type, values)) <= types:
        values = values[:next(i for i, v in enumerate(values) if type(v) not in types)]
    try:
        if types is not None:
            return np.array(values, dtype)
        return np.fromiter(map(convert, values), dtype, len(values))
    except (TypeError, ValueError, OverflowError):
        out = []
        for v in values:
            try:
                out.append(dtype(convert(v)))
            except (TypeError, ValueError, OverflowError):
                break
        return np.array(out, dtype)


def _grid_from_rows(hdr: dict, rows, where, path: str, fields) -> GridFunction:
    """Build a grid function from a parsed header and field rows, checking every row.

    ``hdr`` holds version, q, alpha, parity, n1 and n2; a value out of range is
    an error on line 1.  Each row is sign, n1, n2, re, im; the values must be
    finite, the sign +-1, the exponents integers inside the window, and no
    point may repeat.  ``where(i)`` names row i's place in the file, and
    ``fields`` says how each field converts (_CSV_FIELDS or _JSON_FIELDS).  The
    checks run a column at a time, and the error names the first bad row in
    file order with the first check it fails.
    """
    try:
        params = QParams(q=hdr["q"], alpha=hdr["alpha"])
        window = _checked_window((*hdr["n1"], *hdr["n2"]), params.q, "window")
        if type(hdr["version"]) is not int or hdr["version"] != FORMAT_VERSION:   # True == 1
            raise FileFormatError(f"{path}:1: unsupported format version {hdr['version']!r}, "
                                  f"expected {FORMAT_VERSION}")
        n = next((i for i, r in enumerate(rows) if not isinstance(r, list) or len(r) != 5),
                 len(rows))
        error = f"expected 5 fields, got {rows[n]!r}" if n < len(rows) else None
        cols = list(zip(*rows[:n])) or [()] * 5
        for k, field_spec in enumerate(fields):
            cols[k] = _column(cols[k][:n], *field_spec)
            if len(cols[k]) < n:
                n = len(cols[k])
                error = f"unparsable row: {rows[n]!r}"
        sgn, n1, n2, re, im = (c[:n] for c in cols)
        # a bad sign or exponent is clipped to some lattice index; a repeat that
        # fakes falls on that row or a later one, where the row's own check wins
        flat = np.ravel_multi_index(((sgn == -1).astype(np.intp), n1 - window.n1_min,
                                     n2 - window.n2_min), window.shape, mode="clip")
        repeat = np.ones(n, dtype=bool)
        repeat[np.unique(flat, return_index=True)[1]] = False
        checks = np.array([~(np.isfinite(re) & np.isfinite(im)), (sgn != 1) & (sgn != -1),
                           (n1 < window.n1_min) | (n1 > window.n1_max)
                           | (n2 < window.n2_min) | (n2 > window.n2_max), repeat])
        bad = np.flatnonzero(checks.any(axis=0))
        if bad.size:
            n = int(bad[0])
            point = (int(sgn[n]), int(n1[n]), int(n2[n]))
            messages = ("non-finite value: {row!r}", "sign must be 1 or -1",
                        "point ({0},{1},{2}) outside window", "duplicate point {point}")
            error = messages[checks[:, n].argmax()].format(*point, point=point, row=rows[n])
        if error is not None:
            raise FileFormatError(f"{where(n)}: {error}")
        arr = np.zeros(window.shape, dtype=np.complex128)
        arr.reshape(-1).real[flat] = re
        arr.reshape(-1).imag[flat] = im
        return GridFunction(params, window, hdr["parity"], arr)
    except QDomainError as exc:   # q, alpha, window or parity out of range
        raise FileFormatError(f"{path}:1: {exc}") from exc


def read_gridfunction(path: str) -> GridFunction:
    if path.endswith(".json"):
        return _read_json(path)
    lines = _read_text(path).splitlines()
    if not lines:
        raise FileFormatError(f"{path}:1: empty file")
    hdr = _parse_header(lines[0], path)
    start = 1
    if len(lines) > 1 and lines[1].replace(" ", "") == "sign,n1,n2,re,im":
        start = 2
    numbered = [(lineno, line.split(",")) for lineno, line in enumerate(lines[start:], start + 1)
                if line.strip() and not line.startswith("#")]
    linenos, rows = zip(*numbered) if numbered else ((), ())
    return _grid_from_rows(hdr, rows, lambda i: f"{path}:{linenos[i]}", path, _CSV_FIELDS)


def _read_json(path: str) -> GridFunction:
    import orjson   # see write_gridfunction
    try:
        doc = orjson.loads(_read_text(path))
    except orjson.JSONDecodeError as exc:
        raise FileFormatError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    try:   # repr of deeply nested rows in the messages recurses once per level
        return _grid_from_json(doc, path)
    except RecursionError as exc:
        raise FileFormatError(f"{path}:1: JSON nested too deeply") from exc


def _grid_from_json(doc, path: str) -> GridFunction:
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}:1: expected a JSON object")
    for need in ("format", "version", "q", "alpha", "parity", "n1", "n2", "points"):
        if need not in doc:
            raise FileFormatError(f"{path}:1: JSON missing field {need!r}")

    def check(key: str, ok: bool, kind: str):
        if not ok:
            raise FileFormatError(f"{path}:1: JSON field {key!r} must be {kind}, got {doc[key]!r}")

    check("format", doc["format"] == "qweinstein", "'qweinstein'")
    for key in ("q", "alpha"):
        check(key, type(doc[key]) in (int, float), "a number")
    for key in ("n1", "n2"):
        v = doc[key]
        check(key, isinstance(v, list) and len(v) == 2 and all(type(x) is int for x in v),
              "two integers")
    check("points", isinstance(doc["points"], list), "a list")
    return _grid_from_rows(doc, doc["points"], lambda i: f"{path}: point {i}", path, _JSON_FIELDS)


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def random_even_bump(params: QParams, support: LatticeWindow, seed: int,
                     pad: int = 0) -> GridFunction:
    """Seeded random compactly supported even grid function.

    Values are standard complex gaussians on the support window; the pad
    embeds the support in a larger window of exact zeros.
    """
    rng = np.random.default_rng(seed)
    re = rng.standard_normal(support.shape)
    f = GridFunction(params, support, EVEN, re + 1j * rng.standard_normal(support.shape))
    if pad:
        f = embed_zeros(f, pad, pad)
    return f


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_gen(args, cfg: JobConfig) -> int:
    params = cfg.params()
    sup = _checked_window(_parse_window(args.support, "--support"), params.q, "--support")
    f = random_even_bump(params, sup, cfg.seed)
    write_gridfunction(f, args.out, cfg.fmt)
    print(f"wrote {args.out} (support {sup.n1_min}..{sup.n1_max} x {sup.n2_min}..{sup.n2_max}, "
          f"seed {cfg.seed})")
    return 0


def _cmd_transform(args, cfg: JobConfig) -> int:
    # stored windows are supports: absent points are zeros, so the input is
    # embedded in a zero margin before transforming
    f = embed_zeros(read_gridfunction(args.input), 1, 1)
    window = cfg.window()
    if args.direction == "forward":
        res = forward(f, lambda_window=window, auto_tol=cfg.tol * 1e-4)
    else:
        res = inverse(f, x_window=window, auto_tol=cfg.tol * 1e-4)
    write_gridfunction(res.grid, args.out, cfg.fmt)
    regime = alignment_regime(f.params.q)
    label = "tail_bound" if regime == "aligned" else f"tail_diagnostic({regime})"
    print(f"{label}={res.tail_bound:.3e}", file=sys.stderr)
    return 0


def _cmd_bandwidth(args, cfg: JobConfig) -> int:
    if args.out is not None:
        _check_out_name(args.out, cfg.fmt)
    rep = bandwidth_estimate(read_gridfunction(args.input), cfg.N)
    print(f"estimate={rep.estimate:.8g}")
    print(f"oracle_radius={rep.oracle_radius:.8g}")
    print(f"n_used={rep.n_used}")
    print(f"route_max_rel_dev={rep.route_max_rel_dev:.3e}")
    print(f"core_last_n={rep.core_last_n}")
    print(f"exponent_normalization={rep.exponent_normalization}")
    if args.out is not None:
        if cfg.fmt == "json":
            import orjson   # see write_gridfunction
            with open(args.out, "wb") as fh:
                fh.write(orjson.dumps({"n": list(range(1, rep.n_used + 1)),
                                       "a_n_literal": rep.a_seq_literal,
                                       "a_n_spectral": rep.a_seq,
                                       "estimate": rep.estimate,
                                       "oracle_radius": rep.oracle_radius},
                                      option=orjson.OPT_SERIALIZE_NUMPY))
        else:
            with open(args.out, "w") as fh:
                fh.write("n,a_n_literal,a_n_spectral\n")
                for i in range(rep.n_used):
                    fh.write(f"{i + 1},{rep.a_seq_literal[i]!r},{rep.a_seq[i]!r}\n")
    return 0


def _suite_plancherel(cfg: JobConfig) -> list[tuple[str, float, float]]:
    params = cfg.params()
    lam_win = cfg.window()
    # the tail bounds the truncation error only at aligned q
    regime = alignment_regime(params.q)
    tail = "tail" if regime == "aligned" else f"tail({regime})"
    out = []
    for i in range(4):
        f = random_even_bump(params, LatticeWindow(-2, 4, -2, 4), cfg.seed + i, pad=1)
        F = forward(f, lambda_window=lam_win)
        ratio = lp_norm(F.grid, 2.0) / lp_norm(f, 2.0)
        out.append((f"plancherel[seed={cfg.seed + i},{tail}={F.tail_bound:.1e}]",
                    abs(ratio - 1.0), cfg.tol))
        back = inverse(F.grid, x_window=f.window, edge_tol=math.inf)
        diff = f.with_samples(back.grid.samples - f.samples)
        out.append((f"inversion[seed={cfg.seed + i}]",
                    lp_norm(diff, 2.0) / lp_norm(f, 2.0), cfg.tol))
    return out


def _suite_identities(cfg: JobConfig) -> list[tuple[str, float | None, float]]:
    params = cfg.params()
    f = random_even_bump(params, LatticeWindow(-2, 3, -2, 3), cfg.seed)
    g = random_even_bump(params, LatticeWindow(-2, 3, -2, 3), cfg.seed + 1000)
    rep = identity_suite(f, g)
    tol = max(cfg.tol, 1e-7)
    # a skipped check's error is None; (a) and (b) can skip the same order
    rows = [(k, v, tol) for k, v in rep.discrepancies.items()]
    orders = ", ".join(str(o) for o in dict.fromkeys(rep.skipped_orders))
    return rows + ([(f"identity orders (n, p) = {orders}", None, tol)] if orders else [])


def _suite_orthogonality(cfg: JobConfig) -> list[tuple[str, float, float]]:
    params = cfg.params()
    x = (1, 1, 0)
    res_d = orthogonality_check(x, x, params)
    rel = abs(res_d.value / res_d.predicted_diagonal - 1.0)
    out = [("orthogonality-diagonal", rel, max(cfg.tol, 1e-3))]
    y = (1, 3, 2)
    res_o = orthogonality_check(x, y, params)
    out.append(("orthogonality-offdiag(rel to diagonal)",
                abs(res_o.value) / res_d.predicted_diagonal, max(cfg.tol, 1e-3)))
    return out


def _suite_sonine(cfg: JobConfig) -> list[tuple[str, float, float]]:
    params = cfg.params()
    out = []
    for alpha, p in ((0.0, 1), (0.5, 2)):
        err = sonine_identity_check(alpha, p, list(range(-2, 5)), params)
        out.append((f"sonine[alpha={alpha},p={p}]", err, max(cfg.tol, 1e-8)))
    return out


def _suite_bounds(cfg: JobConfig) -> list[tuple[str, float, float]]:
    params = cfg.params()
    out = []
    for i in range(3):
        f = random_even_bump(params, LatticeWindow(0, 3, 0, 3), cfg.seed + i, pad=2)
        for name, (lhs, rhs, _) in (
                ("monomial-bound", monomial_derivative_bound_check(f, 3, 3, 1, 1, 2)),
                ("radial-bound", radial_power_bound_check(f, 3, 1, 1, 1)),
                ("weinstein-sup-bound", weinstein_sup_bound_check(f, 2))):
            out.append((f"{name}[seed={cfg.seed + i}]", lhs / rhs, 1.0))
    return out


def _suite_pw_m(cfg: JobConfig) -> list[tuple[str, float, float]]:
    params = cfg.params()
    f = random_even_bump(params, LatticeWindow(-1, 3, -1, 3), cfg.seed, pad=1)
    R = support_radius(f)
    m = int(math.ceil(params.alpha + 1.5)) + 1
    a = R / params.q ** (4 * m)
    F = forward(f)
    pw = PWmParams(m=m, a=a, N=2 * m + 10)
    sup, per_n = pw_m_sup(F.grid, pw, f_hat=f)
    finite = 0.0 if (math.isfinite(sup) and sup < 1e12) else 1.0
    out = [("pw-m-finite", finite, 0.5)]
    run = np.maximum.accumulate(per_n)
    incs = np.diff(run)
    nonmono = float(np.any(incs[1:] > incs[:-1] + 1e-12 * max(1.0, run[-1])))
    out.append(("pw-m-increments-nonincreasing", nonmono, 0.5))
    return out


_SUITES = {
    "plancherel": _suite_plancherel,
    "identities": _suite_identities,
    "orthogonality": _suite_orthogonality,
    "sonine": _suite_sonine,
    "bounds": _suite_bounds,
    "pw-m": _suite_pw_m,
}


def _cmd_verify(args, cfg: JobConfig) -> int:
    suite = _SUITES[args.suite]
    rows = suite(cfg)
    failed = []
    for name, err, tol in rows:
        if err is None:   # a check the suite had no data for
            print(f"{name}: skipped")
            continue
        ok = err <= tol   # False for a NaN error or tolerance: the row fails
        print(f"{name}: max_rel_err={err:.3e} tol={tol:.1e} [{'ok' if ok else 'FAIL'}]")
        if not ok:
            failed.append(name)
    if failed:
        print(f"verification failed: {', '.join(failed)}", file=sys.stderr)
        return 3
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "transform": _cmd_transform,
    "bandwidth": _cmd_bandwidth,
    "verify": _cmd_verify,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args keeps no state between calls.
    # The shared flags are accepted both before and after the subcommand;
    # SUPPRESS defaults keep an unset later occurrence from clobbering an
    # earlier one
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", default=argparse.SUPPRESS,
                        help="key=value config file; flags override it")
    shared.add_argument("--q", type=float, default=argparse.SUPPRESS)
    shared.add_argument("--alpha", type=float, default=argparse.SUPPRESS)
    shared.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    shared.add_argument("--tol", type=float, default=argparse.SUPPRESS)
    shared.add_argument("--window", default=argparse.SUPPRESS,
                        help="n1_min,n1_max,n2_min,n2_max (use --window=... for negatives)")
    shared.add_argument("--format", dest="fmt", choices=FORMATS,
                        default=argparse.SUPPRESS)

    ap = argparse.ArgumentParser(prog="qweinstein", parents=[shared],
                                 description="q-Weinstein transform toolkit on the q-lattice")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", parents=[shared],
                       help="generate a seeded random compactly supported function")
    g.add_argument("--support", required=True, help="n1_min,n1_max,n2_min,n2_max")
    g.add_argument("--out", required=True)

    t = sub.add_parser("transform", parents=[shared],
                       help="apply the forward or inverse transform")
    t.add_argument("--input", required=True)
    t.add_argument("--direction", choices=("forward", "inverse"), default="forward")
    t.add_argument("--out", required=True)

    b = sub.add_parser("bandwidth", parents=[shared],
                       help="estimate the preimage support radius")
    b.add_argument("--input", required=True)
    b.add_argument("--N", type=int, default=argparse.SUPPRESS)
    b.add_argument("--out")

    v = sub.add_parser("verify", parents=[shared], help="run a named verification suite")
    v.add_argument("--suite", required=True, choices=sorted(_SUITES))
    return ap


def _parse_window(text: str, flag: str) -> list[int]:
    """n1_min,n1_max,n2_min,n2_max from a command-line flag value."""
    try:
        parts = [int(v) for v in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) != 4:
        raise FileFormatError(f"{flag} needs four comma-separated integers, got {text!r}")
    return parts


def _merge_config(args) -> JobConfig:
    config_path = getattr(args, "config", None)
    cfg = JobConfig.from_file(config_path) if config_path is not None else JobConfig()
    for key in ("q", "alpha", "seed", "tol", "fmt", "N"):
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    window = getattr(args, "window", None)
    if window is not None:
        cfg.n1_min, cfg.n1_max, cfg.n2_min, cfg.n2_max = _parse_window(window, "--window")
    # a window that the command would ignore is an error, not a silent no-op
    what = args.command + (f" --suite {args.suite}" if args.command == "verify" else "")
    if cfg.window() is not None and what not in ("transform", "verify --suite plancherel"):
        raise QDomainError(f"{what} takes no --window (nor n1_/n2_ config keys); only "
                           "transform and verify --suite plancherel read one")
    if cfg.seed < 0:
        raise QDomainError(f"seed must be >= 0, got {cfg.seed}")
    if not (math.isfinite(cfg.tol) and cfg.tol > 0):
        raise QDomainError(f"tol must be finite and > 0, got {cfg.tol}")
    if cfg.N < 1:
        raise QDomainError(f"N must be >= 1, got {cfg.N}")
    return cfg


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return _COMMANDS[args.command](args, _merge_config(args))
    except (FileFormatError, QDomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DivergenceError, TaintError, ArithmeticError) as exc:
        print(f"numerical diagnostic: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
