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
real kernel matrices (_contract), the left ones real GEMMs on the
interleaved data; the summation noise floor is the cosine product on the
kernel moduli.  The automatic window weighs each cell once.  Families come from
qspecial and stay accurate (or cleanly underflow to exact zero) arbitrarily
deep into the lattice.  They are slices of qspecial's one family memo, 64
entries on (alpha, q), each over [frontier - 1, K] (about 60 values at
q = 1/2, 36,800 or 0.3 MB at q = 0.9995); this module keeps no family cache.
A cold entry costs one series per shell: the three a transform reads take
about 20 ms at q = 0.99 and 0.3 s at q = 0.9995 (2-CPU Xeon).

The gathered kernel matrices (the 16 most recent window pairs) and the
measure-weight tables (qintegrate.mu_table, the 8 most recent windows) are
memoized by functools.lru_cache and read-only, so transforms that revisit
a window skip the gather and the exp.  An entry holds 3 (M, N) float
arrays, or one (N1, N2) table; for a 61x61 support on its automatic window
that is about 0.2 MB a kernel and 0.1 MB a table, 4 MB with both memos full.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .qcore import DivergenceError, QDomainError, QParams, TaintError, qgamma_base, qshifted
from .qintegrate import edge_cut, integrate_mu, mu_table, shell_masses
from .qops import EVEN, GridFunction, LatticeWindow, bessel_op, dq_ladder, dq_partial, weinstein_op
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

def _families(params: QParams, k_min: int,
              k_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cos, sin, j_alpha) families over k in [k_min, k_max]."""
    return (*qtrig_exponent_families(params, k_min, k_max),
            bessel_j_exponent_family(params.alpha, params, k_min, k_max))


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


def dirac_weight(x1_exp: int, x2_exp: int, params: QParams) -> float:
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


@functools.lru_cache(maxsize=16)
def _kernel_matrices(w: LatticeWindow, v: LatticeWindow, params: QParams) -> tuple:
    """(C, S, Jw, x1w) of _contract from window w onto window v: the gathered family
    matrices, with K (1-q)^2 and the x2 measure weight folded into Jw, and the d_q x1 weight.

    Memoized, read-only, on the windows (their extents: taint is not compared) and
    params.  The families are slices of qspecial's one memo entry per (alpha, q), so
    a kernel has the same bits whatever was gathered before it.
    """
    q = params.q
    lo = min(v.n1_min + w.n1_min, v.n2_min + w.n2_min)
    cos_v, sin_v, j_v = _families(params, lo, max(v.n1_max + w.n1_max, v.n2_max + w.n2_max))
    n1, n2 = w.n1_exponents(), w.n2_exponents()
    k1 = np.add.outer(v.n1_exponents(), n1) - lo
    k2 = np.add.outer(v.n2_exponents(), n2) - lo
    C, S, J = cos_v[k1], sin_v[k1], j_v[k2]                  # (M1, N1), (M2, N2)
    Jw = (normalization_K(params) * (1.0 - q) ** 2
          * J * q ** ((2.0 * params.alpha + 2.0) * n2.astype(float)))
    kernel = C, S, Jw, q ** n1.astype(float)[None, :, None]
    for a in kernel:
        a.flags.writeable = False
    return kernel


def _contract(kernel: tuple, data: np.ndarray, conj: bool) -> np.ndarray:
    """Core contraction: out(l) = K * sum_x data(x) e(∓i l1 x1) j(l2 x2) dmu(x).

    kernel is _kernel_matrices of the two windows.  The kernel e(-i l1 x1)
    = cos - i sign(l1 x1) sin splits the data by the sign of x1: the cosine
    part sees d+ + d-, the sine part d+ - d-, so the products a = C (d+ + d-)
    Jw^T and b = S (d+ - d-) Jw^T with real kernel matrices give both signs
    of l1 as a -+ i kappa b.  Values past the float64 range come out as inf
    or nan, without a warning; _scaled_abs raises OverflowError on them.
    """
    C, S, Jw, x1w = kernel
    with np.errstate(over="ignore", invalid="ignore"):
        d = data * x1w                                        # d_q x1 weight (per sign)
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
    top = float(a.max())
    if not top < math.inf:          # z is not finite, or only |z| overflowed
        parts = z.view(np.float64)
        if not np.all(np.isfinite(parts)):
            raise OverflowError("the transform overflows float64; scale the input samples down")
        e = math.frexp(max(float(parts.max()), -float(parts.min())))[1]
        return np.abs(np.ldexp(parts, -e).view(np.complex128))
    e = math.frexp(top)[1]
    return a if -64 < e <= 64 else np.ldexp(a, -e, out=a)


def _tail_report(abs_samples: np.ndarray, weights: np.ndarray) -> float:
    """Estimated relative L2 mass beyond the window, from edge-shell decay of
    |samples|^2 weights, where abs_samples is a slice of _scaled_abs(samples) and
    weights the same slice of the (N1, N2) weight table of the contracted window; inf if the
    slice holds no mass, since then all of it lies beyond."""
    shells = shell_masses(abs_samples ** 2 * weights)
    total = float(shells[0].sum())
    if total == 0.0:
        return math.inf
    tails = 0.0
    for m in shells:
        edge, nxt = float(m[0]), (float(m[1]) if len(m) > 1 else 0.0)
        r = min(edge / nxt if nxt > edge else 0.9, 0.95)
        tails += edge * r / (1.0 - r)
    return tails / total


# the automatic window's inner edges are at most this exponent; cli bounds the
# windows it reads by the same number
AUTO_EDGE_CAP = 500


def forward(f: GridFunction, lambda_window: LatticeWindow | None = None, *,
            auto_tol: float = 1e-12, edge_tol: float = 0.02, _conj: bool = False) -> TransformResult:
    """q-Weinstein transform of an even grid function, as one pipeline:

    1. the input edge guard: DivergenceError if more than edge_tol of the
       L2 mass |f|^2 weights lies on the outermost shells of f's window;
    2. the window: lambda_window, or with None a generous one (outer edges at
       the kernel truncation frontier, where deeper shells are exact zeros;
       inner edges where the measure weight has decayed past auto_tol, at most
       AUTO_EDGE_CAP);
    3. one contraction onto it, then one |out| and one weight table of it;
    4. with None only, the trim: shells are cut from each edge while the
       cumulative trimmed L1 mass stays below auto_tol/8 of the total;
    5. one tail report on the kept slice, which the result holds: 0 for a zero input,
       inf where the slice holds none of the transform.
    Conjugation only swaps the two signs of l1, so it leaves the window unchanged.
    """
    if f.parity_y != EVEN:
        raise QDomainError("forward requires even parity in the second variable")
    if not edge_tol >= 0.0:
        raise QDomainError(f"the input edge tolerance must be >= 0, got {edge_tol!r}")
    shells = shell_masses(_scaled_abs(f.samples) ** 2 * mu_table(f.window, f.params))
    total = float(shells[0].sum())
    edge_ratio = sum(float(m[0]) for m in shells) / total if total else 0.0
    if edge_ratio > edge_tol:
        raise DivergenceError(
            f"input mass touches the window edge (edge share {edge_ratio:.2e}); "
            "the function is not compactly supported inside its window"
        )
    diagnostics = {"input_edge_mass_ratio": edge_ratio}
    w, win = f.window, lambda_window
    if win is None:
        if not 0.0 < auto_tol < 1.0:
            raise QDomainError("the automatic window's tolerance must lie in (0, 1), "
                               f"got {auto_tol!r}")
        floor_k = effective_floor_exponent(f.params.q)
        # one inner edge for both axes: 2 alpha + 2 >= 1, so the weight decays no slower in m2
        m_hi = min(int(math.ceil(-math.log(auto_tol * 1e-3) / math.log(1.0 / f.params.q))),
                   AUTO_EDGE_CAP)
        win = LatticeWindow(floor_k - w.n1_max, m_hi, floor_k - w.n2_max, m_hi)

    out = _contract(_kernel_matrices(w, win, f.params), f.samples, _conj)
    abs_out = _scaled_abs(out)
    weights = mu_table(win, f.params)
    s1 = s2 = slice(None)
    if lambda_window is None:
        # reconstruction error is linear in the discarded |F| mass, so the
        # trim budget uses the L1 shell masses, not the squared ones
        l1 = abs_out * weights
        l1_total = float(l1.sum())
        if l1_total == 0.0:
            zeros = GridFunction.zeros(f.params, LatticeWindow(-8 - w.n1_max, 8, -8 - w.n2_max, 8))
            return TransformResult(zeros, 0.0, diagnostics)
        win, (s1, s2) = edge_cut(win, l1, auto_tol / 8.0 * l1_total, 4)
    tail = _tail_report(abs_out[:, s1, s2], weights[s1, s2]) if total else 0.0
    # GridFunction copies a trimmed slice, so the generous window's arrays are freed
    return TransformResult(GridFunction(f.params, win, EVEN, out[:, s1, s2]), tail, diagnostics)


def inverse(F: GridFunction, x_window: LatticeWindow | None = None, *,
            auto_tol: float = 1e-12, edge_tol: float = 0.02) -> TransformResult:
    """Inverse transform: forward with the sign-flipped first kernel argument."""
    return forward(F, lambda_window=x_window, auto_tol=auto_tol, edge_tol=edge_tol, _conj=True)


def auto_lambda_window(f: GridFunction) -> LatticeWindow:
    """The spectral window forward selects for f (relative tails below 1e-12)."""
    return forward(f, edge_tol=math.inf).grid.window


# ---------------------------------------------------------------------------
# helpers used by verification suites
# ---------------------------------------------------------------------------

def embed_zeros(f: GridFunction, pad1: int, pad2: int) -> GridFunction:
    """Extend a compactly supported grid function by exact zeros on all sides.

    Valid (taint-free) only when f really vanishes outside its window;
    callers assert compact support.
    """
    if not all(isinstance(x, (int, np.integer)) for x in (pad1, pad2)) or pad1 < 0 or pad2 < 0:
        raise QDomainError(f"embed_zeros needs pads >= 0, got pad1={pad1!r}, pad2={pad2!r}; "
                           "pads must be integers")
    w = f.window
    nw = LatticeWindow(w.n1_min - pad1, w.n1_max + pad1, w.n2_min - pad2, w.n2_max + pad2,
                       w.taint_x, w.taint_y)
    arr = np.zeros(nw.shape, dtype=np.complex128)
    arr[:, pad1:pad1 + w.shape[1], pad2:pad2 + w.shape[2]] = f.samples
    return GridFunction(f.params, nw, f.parity_y, arr)


def lattice_monomial(g: GridFunction, pow1: int, pow2: int) -> np.ndarray:
    """Array x1^pow1 x2^pow2 over g's window, signed first variable; shape (2, N1, N2)."""
    return g.x1_values()[:, :, None] ** pow1 * g.x2_values()[None, None, :] ** pow2


def norm_sq_lambda(window: LatticeWindow, params: QParams) -> np.ndarray:
    """||l||^2 over a spectral window."""
    q = params.q
    l1 = q ** (2.0 * window.n1_exponents().astype(float))
    l2 = q ** (2.0 * window.n2_exponents().astype(float))
    return l1[None, :, None] + l2[None, None, :]


def _masked_rel_err(lhs: np.ndarray, rhs: np.ndarray, mask: np.ndarray,
                    den: float) -> float | None:
    """Max |lhs - rhs| / den where mask, broadcast to lhs's shape, holds; None if nowhere."""
    mask = np.broadcast_to(mask, lhs.shape)
    if not np.any(mask):
        return None
    return float(np.max(np.abs(lhs[mask] - rhs[mask]))) / max(den, 1e-300)


@dataclass(frozen=True)
class IdentityReport:
    """Max relative discrepancies of the transform-operator identities.

    A discrepancy is None where its check had no spectral shell both free of
    kernel truncation and resolvable by the divided-difference stencils
    (possible at misaligned q, where the kernel frontier is shallow);
    skipped_orders lists the (n, p) orders of (a), then of (b), that had none.
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
    to rounding.  f (and g, even and on f's parameters) must be compactly
    supported inside their windows.
    """
    if g is not None and (g.params != f.params or g.parity_y != EVEN):
        raise QDomainError(f"identity_suite pairs f on {f.params} with an even g on the same "
                           f"parameters, got g on {g.params} with parity {g.parity_y}")
    res: dict = {}
    skipped: list = []
    n_max = p_max = 2
    pad = 2 * n_max + 2 * p_max + 2
    fpad = embed_zeros(f, pad, pad)
    lam_win = auto_lambda_window(f)
    floor_k = effective_floor_exponent(f.params.q)
    # the clip: a spectral exponent at or above lo1 (lo2) keeps every kernel
    # product with fpad's window above the truncation frontier
    lo1, lo2 = floor_k - fpad.window.n1_min, floor_k - fpad.window.n2_min
    # pad the spectral window for (b)'s derivatives, then clip it
    lam_pad = LatticeWindow(max(lam_win.n1_min - pad, lo1), lam_win.n1_max + pad,
                            max(lam_win.n2_min - pad, lo2), lam_win.n2_max + pad)
    # one kernel for every transform from fpad's window onto lam_pad, without
    # forward's edge check and tail report: every input is fpad or a stencil
    # or monomial of it, which reaches at most 2 shells into its zero pad
    kernel = _kernel_matrices(fpad.window, lam_pad, f.params)
    C, S, Jw, x1w = kernel
    abs_C, abs_JwT = np.hypot(C, S), np.abs(Jw).T

    transform = functools.partial(_contract, kernel, conj=False)   # samples -> array
    F0 = GridFunction(f.params, lam_pad, EVEN, transform(fpad.samples))

    scale = float(np.max(np.abs(F0.samples)))

    # (a) -- at deep-inner shells the lhs integral cancels almost completely;
    # shells where the lhs summation noise floor (the cosine product on the
    # kernel moduli) would exceed the tolerance scale are excluded.
    # (b) -- spectral-side derivative stencils divide by powers of the tiny
    # inner lambdas; shells where that amplification lifts rounding noise
    # above the comparison scale are excluded.
    eps_mach = 2.3e-16
    orders = [(n, p) for n in range(n_max + 1) for p in range(p_max + 1) if n or p]
    # D^n B^p of fpad and of F0 as [p][n], one operator per rung, without the taint
    # check: a spectral rung with no untainted shell skips its order in (b)
    d_f, d_F = [], []
    for g0, ladder in ((fpad, d_f), (F0, d_F)):
        for b in dq_ladder(g0, bessel_op, p_max):   # b = B^p g0, and its rung n is D^n b
            ladder.append(list(dq_ladder(b, lambda h: dq_partial(h, 1), n_max)))
    q_here = f.params.q
    L = math.log(1.0 / q_here)
    m1, m2 = lam_pad.n1_exponents()[:, None], lam_pad.n2_exponents()
    errs_a: dict = {}
    errs_b: dict = {}
    for n, p in orders:
        gf = d_f[p][n]
        lhs = transform(gf.samples)
        mult = (1j ** (n + 2 * p)) * lattice_monomial(F0, n, 2 * p)
        rhs = mult * F0.samples
        d = np.abs(gf.samples) * x1w
        noise = eps_mach * (abs_C @ (d[0] + d[1]) @ abs_JwT)    # the same for both signs
        den = float(np.max(np.abs(rhs)))
        errs_a[(n, p)] = _masked_rel_err(lhs, rhs, noise <= 1e-9 * den, den)

        Fg = d_F[p][n]
        try:
            s1, s2 = Fg.window.untainted_slices()
        except TaintError:   # the rung has no untainted shell
            errs_b[(n, p)] = None
            continue
        lhs = transform(fpad.samples * lattice_monomial(fpad, n, 2 * p))[:, s1, s2]
        rhs = (1j ** (n + 2 * p)) * Fg.samples[:, s1, s2]
        # per-application amplification: one symmetric derivative divides
        # by 2(1-q) l1, one Bessel application by (1-q)^2 l2^2
        log_amp = (
            n * (m1[s1] * L + math.log(1.0 / (2.0 * (1.0 - q_here))))
            + p * (2.0 * m2[s2] * L + 2.0 * math.log(1.0 / (1.0 - q_here)))
        )
        den = float(np.max(np.abs(rhs)))
        with np.errstate(over="ignore"):
            noise = eps_mach * np.exp(np.minimum(log_amp, 700.0)) * scale
        errs_b[(n, p)] = _masked_rel_err(lhs, rhs, noise <= 1e-10 * den, den)
    for key, errs in (("derivative_to_multiplier", errs_a), ("multiplier_to_derivative", errs_b)):
        skipped += [order for order, err in errs.items() if err is None]
        res[key] = max((err for err in errs.values() if err is not None), default=None)

    # (c)
    lhs = transform(weinstein_op(fpad, 1).samples)
    rhs = -norm_sq_lambda(lam_pad, f.params) * F0.samples
    res["weinstein_eigen"] = _masked_rel_err(lhs, rhs, np.True_, float(np.max(np.abs(rhs))))

    # (d) -- pair f (x side) against g (spectral side); g is restricted to
    # the clip, so both orderings sum the same terms
    if g is None:
        g = GridFunction(f.params, f.window, EVEN, f.samples[:, ::-1, ::-1])
    gw = g.window
    glo1, glo2 = max(gw.n1_min, lo1), max(gw.n2_min, lo2)
    if glo1 > gw.n1_max or glo2 > gw.n2_max:
        res["pairing_symmetry"] = None
        return IdentityReport(res, skipped, lam_pad)
    g_used = g.with_samples(g.samples[:, glo1 - gw.n1_min:, glo2 - gw.n2_min:],
                            window=LatticeWindow(glo1, gw.n1_max, glo2, gw.n2_max))
    # the transform of each function on the other's window
    Ff_at_g, Fg_at_f = (_contract(_kernel_matrices(a.window, b.window, f.params), a.samples, False)
                        for a, b in ((fpad, g_used), (g_used, fpad)))
    lhs_d = complex(integrate_mu(g_used.with_samples(Ff_at_g * g_used.samples)).value)
    rhs_d = complex(integrate_mu(fpad.with_samples(fpad.samples * Fg_at_f)).value)
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
    for pt in (x_pt, y_pt):
        if pt[0] not in (1, -1) or not all(isinstance(n, (int, np.integer)) for n in pt[1:]):
            raise QDomainError("orthogonality_check needs lattice points (sign +-1, integer n1, "
                               f"integer n2), got {pt}")
    q = params.q
    alpha = params.alpha
    s1x, n1x, n2x = x_pt
    s1y, n1y, n2y = y_pt
    m_inner = 40
    m_lo = effective_floor_exponent(q) - max(n1x, n1y, n2x, n2y)
    k_lo = m_lo + min(n1x, n1y, n2x, n2y)
    k_hi = m_inner + max(n1x, n1y, n2x, n2y)
    cos_v, sin_v, j_v = _families(params, k_lo, k_hi)

    ms = np.arange(m_lo, m_inner + 1)
    # 1-D spectral sums;  lambda1 runs over both signs
    # A(m) = sum_{s} e(-i l1 x1) e(+i l1 y1) (1-q) q^m  with l1 = s q^m; the
    # odd terms in s cancel, leaving 2 (cos x cos y + s1x s1y sin x sin y)
    kx = ms + n1x - k_lo
    ky = ms + n1y - k_lo
    A_terms = (2.0 * (cos_v[kx] * cos_v[ky] + s1x * s1y * sin_v[kx] * sin_v[ky])
               * (1.0 - q) * q ** ms.astype(float))
    # the weight only where the product is nonzero: at the deep shells of a
    # high alpha it overflows where the families are exact zeros
    jxy = j_v[(ms + n2x) - k_lo] * j_v[(ms + n2y) - k_lo]
    nz = jxy != 0.0
    B_terms = np.zeros_like(jxy)
    B_terms[nz] = jxy[nz] * (1.0 - q) * q ** ((2.0 * alpha + 2.0) * ms[nz].astype(float))

    # partial sums over m >= -t as t grows: cumulative from the inner end
    A_cum = np.cumsum(A_terms[::-1])[::-1]
    B_cum = np.cumsum(B_terms[::-1])[::-1]
    partials = A_cum * B_cum                          # P_t for square regions
    value = complex(partials[0])
    fluct = float(np.max(np.abs(partials[:9] - value)))   # up to 8 outer shells dropped

    K = normalization_K(params)
    pred = 0.0
    if (s1x, n1x, n2x) == (s1y, n1y, n2y):
        pred = dirac_weight(n1x, n2x, params) / (K * K)
    return OrthogonalityResult(value=value, predicted_diagonal=pred,
                               fluctuation=fluct, shells_used=len(ms))
