"""The q-Weinstein transform on the lattice ℝ_q x ℝ_{q,+}.

Domain convention (the single likeliest implementation error, stated here
prominently): the first variable ranges over the SIGNED lattice {±q^n},
the second over the positive lattice {q^n}.  Every integral below sums
over both signs of x1 and one sign of x2, against the measure
x2^(2*alpha+1) d_q x1 d_q x2.

The kernel e(-i l1 x1; q^2) j_alpha(l2 x2; q^2) separates into 1-D kernel
families indexed by the exponent sum of argument products.  Split by the
sign of x1, the cosine family sees only the even part of the data and the
sine family only the odd part, so a transform is two matrix products with
real kernel matrices (_transform_array), the left ones real GEMMs on the
interleaved data; the summation noise floor is the cosine product on the
kernel moduli.  The automatic window weighs each cell once.  Families come from
qspecial and stay accurate (or cleanly underflow to exact zero) arbitrarily
deep into the lattice.

The gathered kernel matrices (the 16 most recent window pairs) and the
measure-weight tables (qintegrate.mu_table, the 8 most recent windows) are
memoized and read-only, so transforms that revisit a window skip the gather
and the exp.  An entry holds 3 (M, N) float arrays, or one (N1, N2) table;
for a 61x61 support on its automatic window that is about 0.2 MB a kernel
and 0.1 MB a table, 4 MB with both memos full.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .qcore import DivergenceError, QDomainError, QParams, qgamma_base, qshifted
from .qintegrate import edge_shell_mass, integrate_mu, mu_table
from .qops import EVEN, GridFunction, LatticeWindow, bessel_op, dq_ladder, weinstein_op
from .qspecial import (
    bessel_j,
    bessel_j_exponent_family,
    effective_floor_exponent,
    qexp,
    qtrig_exponent_families,
)

# ---------------------------------------------------------------------------
# kernel scalars and tables
# ---------------------------------------------------------------------------

_FAMILY_CACHE: dict = {}


def _families(params: QParams, k_min: int,
              k_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """(cos, sin, j_alpha) families over a cached exponent range covering [k_min, k_max].

    A cache miss widens the cached range to cover both requests.
    """
    lo, hi = min(k_min, -8), max(k_max, 8)
    hit = _FAMILY_CACHE.get(params)
    if hit is not None:
        if hit[0] <= k_min and hit[1] >= k_max:
            return hit[2], hit[3], hit[4], hit[0]
        lo, hi = min(lo, hit[0]), max(hi, hit[1])
    cos_v, sin_v = qtrig_exponent_families(params, lo, hi)
    j_v = bessel_j_exponent_family(params.alpha, params, lo, hi)
    _FAMILY_CACHE[params] = (lo, hi, cos_v, sin_v, j_v)
    return cos_v, sin_v, j_v, lo


def normalization_K(params: QParams) -> float:
    """Transform normalization (1+q)^(1/2-alpha) / (2 G_{q^2}(1/2) G_{q^2}(alpha+1))."""
    q = params.q
    q2 = q * q
    return (1.0 + q) ** (0.5 - params.alpha) / (
        2.0 * qgamma_base(0.5, q2) * qgamma_base(params.alpha + 1.0, q2)
    )


def kernel_eval(lam: tuple[complex, complex], x: tuple[float, float],
                params: QParams) -> complex:
    """Kernel value e(-i l1 x1; q^2) * j_alpha(l2 x2; q^2) for general arguments.

    Series-based; intended for moderate |l * x|.  Lattice-deep products are
    served by the family tables inside forward/inverse instead.
    """
    l1, l2 = lam
    x1, x2 = x
    e_part = qexp(-1j * complex(l1) * x1, params)
    j_part = bessel_j(params.alpha, complex(l2) * x2, params).value
    return e_part * j_part


@dataclass(frozen=True)
class Kernel:
    """The two-variable product kernel at a fixed spectral point."""

    params: QParams
    lam: tuple[complex, complex]

    def sup_bound(self) -> float:
        """4 / (q; q)_inf^2, valid for real spectral points on the lattice."""
        qq = qshifted(self.params.q, math.inf, self.params)
        return 4.0 / (qq.real * qq.real)


def dirac_weight(x1_exp: int, x2_exp: int, sign1: int, params: QParams) -> float:
    """Weight of the lattice Dirac measure: 1 / ((1-q)^2 |x1| x2^(2a+2))."""
    q = params.q
    x1 = q ** float(x1_exp)
    x2 = q ** float(x2_exp)
    return 1.0 / ((1.0 - q) ** 2 * x1 * x2 ** (2.0 * params.alpha + 2.0))


# ---------------------------------------------------------------------------
# forward / inverse
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransformResult:
    """Transform values on the output window plus a certified-ish tail report."""

    grid: GridFunction
    tail_bound: float
    diagnostics: dict = field(default_factory=dict)


def _transform_array(data: np.ndarray, in_window: LatticeWindow, out_window: LatticeWindow,
                     params: QParams, conj: bool) -> np.ndarray:
    """Core contraction: out(l) = K * sum_x data(x) e(∓i l1 x1) j(l2 x2) dmu(x).

    The kernel e(-i l1 x1) = cos - i sign(l1 x1) sin splits the data by the
    sign of x1: the cosine part sees d+ + d-, the sine part d+ - d-, so the
    products a = C (d+ + d-) Jw^T and b = S (d+ - d-) Jw^T with real kernel
    matrices give both signs of l1 as a -+ i kappa b.  Values past the
    float64 range come out as inf or nan, without a warning; _scaled_abs
    raises OverflowError on them.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _contract(_kernel_matrices(in_window, out_window, params), data, conj)


_KERNEL_CACHE: dict = {}    # the 16 most recent _kernel_matrices, oldest first


def _kernel_matrices(in_window: LatticeWindow, out_window: LatticeWindow,
                     params: QParams) -> tuple:
    """(C, S, Jw, x1w) of _transform_array: the gathered family matrices, with
    K (1-q)^2 and the x2 measure weight folded into Jw, and the d_q x1 weight.

    Memoized, read-only, on the two windows' extents (not their taint) and
    params.  The families are looked up on every call; their values do not
    depend on the cached exponent range, so a widened range gathers the
    same kernel.
    """
    q = params.q
    w, v = in_window, out_window
    cos_v, sin_v, j_v, lo = _families(params, min(v.n1_min + w.n1_min, v.n2_min + w.n2_min),
                                      max(v.n1_max + w.n1_max, v.n2_max + w.n2_max))
    key = ((w.n1_min, w.n1_max, w.n2_min, w.n2_max), (v.n1_min, v.n1_max, v.n2_min, v.n2_max),
           params)
    kernel = _KERNEL_CACHE.pop(key, None)
    if kernel is None:
        n1, n2 = w.n1_exponents(), w.n2_exponents()
        k1 = np.add.outer(v.n1_exponents(), n1) - lo
        k2 = np.add.outer(v.n2_exponents(), n2) - lo
        C, S, J = cos_v[k1], sin_v[k1], j_v[k2]                  # (M1, N1), (M2, N2)
        Jw = (normalization_K(params) * (1.0 - q) ** 2
              * J * q ** ((2.0 * params.alpha + 2.0) * n2.astype(float)))
        kernel = C, S, Jw, q ** n1.astype(float)[None, :, None]
        for a in kernel:
            a.flags.writeable = False
        if len(_KERNEL_CACHE) >= 16:
            del _KERNEL_CACHE[next(iter(_KERNEL_CACHE))]
    _KERNEL_CACHE[key] = kernel
    return kernel


def _contract(kernel: tuple, data: np.ndarray, conj: bool) -> np.ndarray:
    """The sign-split product of _transform_array with prebuilt kernel matrices."""
    C, S, Jw, x1w = kernel
    d = data * x1w                                            # d_q x1 weight (per sign)
    a = _real_left(C, d[0] + d[1]) @ Jw.T
    ib = _real_left(S, d[0] - d[1]) @ Jw.T * (-1j if conj else 1j)
    out = np.empty((2,) + a.shape, dtype=np.complex128)   # no output-sized temporaries
    np.subtract(a, ib, out=out[0])
    np.add(a, ib, out=out[1])
    return out


def _real_left(M: np.ndarray, z: np.ndarray) -> np.ndarray:
    """M @ z for real M and C-contiguous complex128 z, as one real GEMM on z's (re, im) pairs."""
    return (M @ z.view(np.float64)).view(np.complex128)


def _scaled_abs(z: np.ndarray) -> np.ndarray:
    """|z| for complex z, scaled when its largest modulus lies outside
    [2^-64, 2^64) by the power of two that brings it near 1; OverflowError
    if z is not finite.

    Masses built from it (|z|^2 times measure weights) and their sums then
    stay far from overflow, and from underflowing as a whole; the scaling
    is exact away from subnormals, so ratios of masses keep their bits.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.abs(z)
    top = float(a.max()) if a.size else 0.0
    if not top < math.inf:          # z is not finite, or only |z| overflowed
        parts = z.view(np.float64)
        if not np.all(np.isfinite(parts)):
            raise OverflowError("the transform overflows float64; scale the input samples down")
        e = math.frexp(max(float(parts.max()), -float(parts.min())))[1]
        return np.abs(np.ldexp(parts, -e).view(np.complex128))
    e = math.frexp(top)[1]
    return a if -64 < e <= 64 else np.ldexp(a, -e, out=a)


def _input_edge_ratio(samples: np.ndarray, weights: np.ndarray, edge_tol: float = 0.02) -> float:
    """Share of the L2 mass |samples|^2 weights on the outermost shells, where weights
    is the window's (N1, N2) table of measure weights; DivergenceError above edge_tol."""
    mass = _scaled_abs(samples) ** 2 * weights
    total = float(mass.sum())
    edge_ratio = sum(edge_shell_mass(mass)) / total if total else 0.0
    if edge_ratio > edge_tol:
        raise DivergenceError(
            f"input mass touches the window edge (edge share {edge_ratio:.2e}); "
            "the function is not compactly supported inside its window"
        )
    return edge_ratio


def _tail_report(abs_samples: np.ndarray, weights: np.ndarray) -> float:
    """Estimated relative L2 mass beyond the window, from edge-shell decay of
    |samples|^2 weights, where abs_samples is _scaled_abs(samples) or a slice of it
    and weights is the window's (N1, N2) weight table."""
    mass = abs_samples ** 2 * weights
    total = float(mass.sum())
    if total == 0.0:
        return 0.0
    edges, nexts = edge_shell_mass(mass), edge_shell_mass(mass, 1)
    tails = 0.0
    for edge, nxt in zip(edges, nexts):
        r = edge / nxt if nxt > edge else 0.9
        r = min(r, 0.95)
        tails += edge * r / (1.0 - r)
    return tails / total


def forward(f: GridFunction, lambda_window: LatticeWindow | None = None, *,
            auto_tol: float = 1e-12, edge_tol: float = 0.02, _conj: bool = False) -> TransformResult:
    """q-Weinstein transform of an even grid function.

    With lambda_window=None the spectral window is grown automatically
    until the reported relative tail falls below auto_tol (or the kernel
    underflow frontier is reached, beyond which shells are exactly zero).
    """
    if f.parity_y != EVEN:
        raise QDomainError("forward requires even parity in the second variable")
    edge_ratio = _input_edge_ratio(f.samples, mu_table(f.window, f.params), edge_tol)
    if lambda_window is None:
        grid, tail = _auto_window_transform(f, auto_tol, _conj)
    else:
        out = _transform_array(f.samples, f.window, lambda_window, f.params, conj=_conj)
        tail = _tail_report(_scaled_abs(out), mu_table(lambda_window, f.params))
        grid = GridFunction(f.params, lambda_window, EVEN, out)
    return TransformResult(grid=grid, tail_bound=tail,
                           diagnostics={"input_edge_mass_ratio": edge_ratio})


def inverse(F: GridFunction, x_window: LatticeWindow | None = None, *,
            auto_tol: float = 1e-12, edge_tol: float = 0.02) -> TransformResult:
    """Inverse transform: forward with the sign-flipped first kernel argument."""
    return forward(F, lambda_window=x_window, auto_tol=auto_tol, edge_tol=edge_tol, _conj=True)


def auto_lambda_window(f: GridFunction, tol: float = 1e-12) -> LatticeWindow:
    """Select a spectral window with relative edge tails below tol (see _auto_window_transform)."""
    return _auto_window_transform(f, tol)[0].window


def _auto_window_transform(f: GridFunction, tol: float,
                           conj: bool = False) -> tuple[GridFunction, float]:
    """The transform of f on an automatically selected spectral window, and its tail report.

    The transform is evaluated once on a generous window (outer edges at
    the kernel truncation frontier, where deeper shells are exact zeros;
    inner edges where the measure weight has decayed past tol), then the
    window is trimmed from each edge while the cumulative trimmed mass
    stays below tol/8 of the total, and the trimmed slice is returned.
    One |out| and one weight table of the generous window serve both the
    trim and the tail report.  Conjugation only swaps the two signs of l1,
    so it leaves the window unchanged.
    """
    if not 0.0 < tol < 1.0:
        raise QDomainError(f"the automatic window's tolerance must lie in (0, 1), got {tol!r}")
    q = f.params.q
    alpha = f.params.alpha
    w = f.window
    L = math.log(1.0 / q)
    floor_k = effective_floor_exponent(q)
    m1_lo = floor_k - w.n1_max
    m2_lo = floor_k - w.n2_max
    m1_hi = int(math.ceil(-math.log(tol * 1e-3) / L))
    m2_hi = int(math.ceil(-math.log(tol * 1e-3) / (min(1.0, 2.0 * alpha + 2.0) * L)))
    m1_hi = min(m1_hi, 500)
    m2_hi = min(m2_hi, 500)
    win = LatticeWindow(m1_lo, m1_hi, m2_lo, m2_hi)

    out = _transform_array(f.samples, f.window, win, f.params, conj=conj)
    # reconstruction error is linear in the discarded |F| mass, so the
    # trim budget uses the L1 shell masses, not the squared ones
    abs_out = _scaled_abs(out)
    weights = mu_table(win, f.params)
    l1 = abs_out * weights
    total = float(l1.sum())
    if total == 0.0:
        return GridFunction.zeros(f.params, LatticeWindow(-8 - w.n1_max, 8, -8 - w.n2_max, 8)), 0.0

    budget = tol / 8.0 * total

    # shells cut from each edge: the longest run whose cumulative mass stays
    # within budget, always keeping the 4 innermost
    mass_m1 = l1.sum(axis=(0, 2))
    mass_m2 = l1.sum(axis=(0, 1))
    c_lo1, c_hi1, c_lo2, c_hi2 = (
        int(np.searchsorted(np.cumsum(m[:-4]), budget, side="right"))
        for m in (mass_m1, mass_m1[::-1], mass_m2, mass_m2[::-1])
    )
    trimmed = LatticeWindow(win.n1_min + c_lo1, win.n1_max - c_hi1,
                            win.n2_min + c_lo2, win.n2_max - c_hi2)
    s1, s2 = slice(c_lo1, len(mass_m1) - c_hi1), slice(c_lo2, len(mass_m2) - c_hi2)
    tail = _tail_report(abs_out[:, s1, s2], weights[s1, s2])
    # a copy, so the generous window's arrays are freed with this call
    return GridFunction(f.params, trimmed, EVEN, out[:, s1, s2].copy()), tail


# ---------------------------------------------------------------------------
# helpers used by verification suites
# ---------------------------------------------------------------------------

def embed_zeros(f: GridFunction, pad1: int, pad2: int) -> GridFunction:
    """Extend a compactly supported grid function by exact zeros on all sides.

    Valid (taint-free) only when f really vanishes outside its window;
    callers assert compact support.
    """
    w = f.window
    nw = LatticeWindow(w.n1_min - pad1, w.n1_max + pad1, w.n2_min - pad2, w.n2_max + pad2,
                       w.taint_x_lo, w.taint_x_hi, w.taint_y_lo, w.taint_y_hi)
    arr = np.zeros(nw.shape, dtype=np.complex128)
    arr[:, pad1:pad1 + w.shape[1], pad2:pad2 + w.shape[2]] = f.samples
    return GridFunction(f.params, nw, f.parity_y, arr)


def lattice_monomial(window: LatticeWindow, params: QParams, pow1: int, pow2: int) -> np.ndarray:
    """Array x1^pow1 x2^pow2 over a window, signed first variable; shape (2, N1, N2)."""
    q = params.q
    x1 = q ** window.n1_exponents().astype(float)
    x2 = q ** window.n2_exponents().astype(float)
    return np.stack([x1, -x1])[:, :, None] ** pow1 * x2[None, None, :] ** pow2


def norm_sq_lambda(window: LatticeWindow, params: QParams) -> np.ndarray:
    """||l||^2 over a spectral window."""
    q = params.q
    l1 = q ** (2.0 * window.n1_exponents().astype(float))
    l2 = q ** (2.0 * window.n2_exponents().astype(float))
    return l1[None, :, None] + l2[None, None, :]


def _masked_rel_err(lhs: np.ndarray, rhs: np.ndarray, mask: np.ndarray,
                    den: float) -> float | None:
    """Max |lhs - rhs| / den over the masked entries; None if the mask keeps none."""
    if not np.any(mask):
        return None
    return float(np.max(np.abs(lhs[mask] - rhs[mask]))) / max(den, 1e-300)


@dataclass(frozen=True)
class IdentityReport:
    """Max relative discrepancies of the transform-operator identities.

    skipped_orders lists the (n, p) pairs of the multiplier-to-derivative
    identity that had no spectral shells that are simultaneously free of
    kernel truncation and resolvable by the divided-difference stencils
    (possible at misaligned q, where the kernel frontier is shallow).
    """

    discrepancies: dict
    skipped_orders: list
    lambda_window: LatticeWindow


def identity_suite(f: GridFunction, g: GridFunction | None = None) -> IdentityReport:
    """Check the four transform-operator identities on a compact function.

    (a) transform of d^n B^p f  vs (i l1)^n (i l2)^(2p) transform of f
    (b) transform of x1^n x2^(2p) f  vs i^(n+2p) d^n B^p of the transform
    (c) transform of the Weinstein operator  vs -||l||^2 multiplication
    (d) the L2 pairing symmetry of the transform

    (a) and (b) are checked at every order n, p <= 2 but (0, 0).
    The spectral window is clipped so every kernel product stays above the
    family truncation frontier; there the lattice identities are exact up
    to rounding.  f (and g) must be compactly supported inside their
    windows.
    """
    res: dict = {}
    skipped: list = []
    n_max = p_max = 2
    pad = 2 * n_max + 2 * p_max + 2
    fpad = embed_zeros(f, pad, pad)
    lam_win = auto_lambda_window(f)
    floor_k = effective_floor_exponent(f.params.q)
    # pad the spectral window for (b)'s derivatives, then keep every kernel
    # product above the truncation frontier
    lam_pad = LatticeWindow(
        max(lam_win.n1_min - pad, floor_k - fpad.window.n1_min),
        lam_win.n1_max + pad,
        max(lam_win.n2_min - pad, floor_k - fpad.window.n2_min),
        lam_win.n2_max + pad,
    )
    # one kernel (and one set of measure weights) for every transform from
    # fpad's window onto lam_pad; each input still passes forward's edge
    # check, and only the tail reports are skipped
    kernel = _kernel_matrices(fpad.window, lam_pad, f.params)
    C, S, Jw, x1w = kernel
    abs_C, abs_JwT = np.hypot(C, S), np.abs(Jw).T
    weights = mu_table(fpad.window, f.params)

    def transform(g: GridFunction) -> GridFunction:
        _input_edge_ratio(g.samples, weights)
        return GridFunction(f.params, lam_pad, EVEN, _contract(kernel, g.samples, conj=False))

    F0 = transform(fpad)

    scale = float(np.max(np.abs(F0.samples)))
    if scale == 0.0:
        zero = {k: 0.0 for k in ("derivative_to_multiplier", "multiplier_to_derivative",
                                 "weinstein_eigen", "pairing_symmetry")}
        return IdentityReport(zero, [], lam_pad)

    # (a) -- at deep-inner shells the lhs integral cancels almost completely;
    # shells where the lhs summation noise floor (the cosine product on the
    # kernel moduli) would exceed the tolerance scale are excluded.
    # (b) -- spectral-side derivative stencils divide by powers of the tiny
    # inner lambdas; shells where that amplification lifts rounding noise
    # above the comparison scale are excluded.
    eps_mach = 2.3e-16
    orders = [(n, p) for n in range(n_max + 1) for p in range(p_max + 1) if n or p]
    bessel_f, bessel_F = [fpad], [F0]
    for _ in range(p_max):
        bessel_f.append(bessel_op(bessel_f[-1]))
        bessel_F.append(bessel_op(bessel_F[-1]))
    # D^n B^p of fpad and of F0 as [p][n], one derivative per rung
    d_f = [list(dq_ladder(b, (1, 0), n_max)) for b in bessel_f]
    d_F = [list(dq_ladder(b, (1, 0), n_max)) for b in bessel_F]
    q_here = f.params.q
    L = math.log(1.0 / q_here)
    m1g = np.broadcast_to(lam_pad.n1_exponents()[None, :, None], lam_pad.shape).astype(float)
    m2g = np.broadcast_to(lam_pad.n2_exponents()[None, None, :], lam_pad.shape).astype(float)
    errs_a: dict = {}
    errs_b: dict = {}
    for n, p in orders:
        gf = d_f[p][n]
        lhs = transform(gf).samples
        mult = (1j ** (n + 2 * p)) * lattice_monomial(lam_pad, f.params, n, 2 * p)
        rhs = mult * F0.samples
        d = np.abs(gf.samples) * x1w
        noise = eps_mach * (abs_C @ (d[0] + d[1]) @ abs_JwT)    # the same for both signs
        den = float(np.max(np.abs(rhs)))
        errs_a[(n, p)] = _masked_rel_err(lhs, rhs, np.broadcast_to(noise <= 1e-9 * den,
                                                                   lhs.shape), den)

        mono = fpad.with_samples(fpad.samples * lattice_monomial(fpad.window, f.params, n, 2 * p))
        lhs = transform(mono).samples
        Fg = d_F[p][n]
        rhs = (1j ** (n + 2 * p)) * Fg.samples
        s1, s2 = Fg.window.untainted_slices()
        # per-application amplification: one symmetric derivative divides
        # by 2(1-q) l1, one Bessel application by (1-q)^2 l2^2
        log_amp = (
            n * (m1g * L + math.log(1.0 / (2.0 * (1.0 - q_here))))
            + p * (2.0 * m2g * L + 2.0 * math.log(1.0 / (1.0 - q_here)))
        )
        den = float(np.max(np.abs(rhs[:, s1, s2])))
        mask = np.zeros(lam_pad.shape, dtype=bool)
        mask[:, s1, s2] = True
        with np.errstate(over="ignore"):
            noise = eps_mach * np.exp(np.minimum(log_amp, 700.0)) * scale
        errs_b[(n, p)] = _masked_rel_err(lhs, rhs, mask & (noise <= 1e-10 * den), den)
    for key, errs in (("derivative_to_multiplier", errs_a), ("multiplier_to_derivative", errs_b)):
        skipped += [order for order, err in errs.items() if err is None]
        res[key] = max((err for err in errs.values() if err is not None), default=0.0)

    # (c)
    lhs = transform(weinstein_op(fpad, 1)).samples
    rhs = -norm_sq_lambda(lam_pad, f.params) * F0.samples
    res["weinstein_eigen"] = float(np.max(np.abs(lhs - rhs))) / float(np.max(np.abs(rhs)))

    # (d) -- pair f (x side) against g (spectral side); g is restricted to
    # the clamp-free spectral region so both orderings sum the same terms
    if g is None:
        rev = f.samples[:, ::-1, ::-1].copy()
        g = GridFunction(f.params, f.window, EVEN, rev)
    glo1 = max(g.window.n1_min, floor_k - fpad.window.n1_min)
    glo2 = max(g.window.n2_min, floor_k - fpad.window.n2_min)
    if glo1 > g.window.n1_max or glo2 > g.window.n2_max:
        skipped.append(("pairing", "pairing"))
        res["pairing_symmetry"] = 0.0
        return IdentityReport(res, skipped, lam_pad)
    g_win = LatticeWindow(glo1, g.window.n1_max, glo2, g.window.n2_max)
    g_used = GridFunction(
        f.params, g_win, EVEN,
        g.samples[:, glo1 - g.window.n1_min:, glo2 - g.window.n2_min:],
    )
    g_used = embed_zeros(g_used, 1, 1)
    Ff_at_g = forward(fpad, lambda_window=g_used.window).grid
    Fg_at_f = forward(g_used, lambda_window=fpad.window).grid
    lhs_d = complex(integrate_mu(g_used.with_samples(Ff_at_g.samples * g_used.samples)).value)
    rhs_d = complex(integrate_mu(fpad.with_samples(fpad.samples * Fg_at_f.samples)).value)
    den = max(abs(lhs_d), abs(rhs_d), 1e-300)
    res["pairing_symmetry"] = abs(lhs_d - rhs_d) / den
    return IdentityReport(res, skipped, lam_pad)


# ---------------------------------------------------------------------------
# orthogonality of the kernel family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrthogonalityResult:
    value: complex
    predicted_diagonal: float
    fluctuation: float
    shells_used: int


def orthogonality_check(x_pt: tuple[int, int, int], y_pt: tuple[int, int, int],
                        params: QParams) -> OrthogonalityResult:
    """Truncated kernel-orthogonality sum by symmetric square shells.

    x_pt, y_pt are (sign1, n1, n2) lattice points.  The spectral sum over
    the square exponent region [-t, 40]^2 factors into a product of
    1-D partial sums, which is how the shells are accumulated.  The sum
    converges only conditionally off the diagonal; the fluctuation of the
    last shells is reported, not asserted.
    """
    q = params.q
    alpha = params.alpha
    s1x, n1x, n2x = x_pt
    s1y, n1y, n2y = y_pt
    m_inner = 40
    m_lo = effective_floor_exponent(q) - max(n1x, n1y, n2x, n2y)
    k_lo = m_lo + min(n1x, n1y, n2x, n2y)
    k_hi = m_inner + max(n1x, n1y, n2x, n2y)
    cos_v, sin_v, j_v, lo = _families(params, k_lo, k_hi)

    ms = np.arange(m_lo, m_inner + 1)
    # 1-D spectral sums;  lambda1 runs over both signs
    # A(m) = sum_{s} e(-i l1 x1) e(+i l1 y1) (1-q) q^m  with l1 = s q^m; the
    # odd terms in s cancel, leaving 2 (cos x cos y + s1x s1y sin x sin y)
    kx = ms + n1x - lo
    ky = ms + n1y - lo
    A_terms = (2.0 * (cos_v[kx] * cos_v[ky] + s1x * s1y * sin_v[kx] * sin_v[ky])
               * (1.0 - q) * q ** ms.astype(float))
    jx = j_v[(ms + n2x) - lo]
    jy = j_v[(ms + n2y) - lo]
    B_terms = jx * jy * (1.0 - q) * q ** ((2.0 * alpha + 2.0) * ms.astype(float))

    # partial sums over m >= -t as t grows: cumulative from the inner end
    A_cum = np.cumsum(A_terms[::-1])[::-1]
    B_cum = np.cumsum(B_terms[::-1])[::-1]
    partials = A_cum * B_cum                          # P_t for square regions
    value = complex(partials[0])
    tail_win = min(8, len(partials) - 1)
    fluct = float(np.max(np.abs(partials[:tail_win + 1] - value))) if tail_win > 0 else 0.0

    K = normalization_K(params)
    pred = 0.0
    if (s1x, n1x, n2x) == (s1y, n1y, n2y):
        pred = dirac_weight(n1x, n2x, s1x, params) / (K * K)
    return OrthogonalityResult(value=value, predicted_diagonal=pred,
                               fluctuation=fluct, shells_used=len(ms))
