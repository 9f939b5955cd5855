"""Real Paley-Wiener machinery: bandwidth recovery from iterated-operator
norm growth, Schwartz-class sup bounds, and constructive derivative bounds.

The bandwidth estimator runs two routes for a_n = ||W^n F||^(1/2n):

* spectral: exact finite sums ||  ||t||^(2n) f_hat ||^(1/2n) on the preimage
  side, stable for any n in log space;
* literal: iterated stencil application of the Weinstein operator on the
  spectral grid.  Deep-inner spectral shells cannot support iterated
  divided differences in double precision (the true second differences
  sink below rounding), so the literal iterate keeps a junk-controlled
  core of shells and refreshes the remainder from directly computed
  values each step.  The per-step core cutoff follows an explicit error
  model; the fraction of norm mass carried by pure stencil arithmetic is
  reported per n.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .qcore import DivergenceError, QDomainError, QParams, lattice_alignment, qbracket
from .qintegrate import N_MAX, _log_power_sum, edge_cut, log_mu_table, log_mu_weights, mu_table
from .qops import (_FLIP, EVEN, GridFunction, LatticeWindow, _weinstein_array, dq_ladder,
                   dq_mixed, weinstein_op)
from .qspecial import (alignment_regime, bessel_j, bessel_j_exponent_family,
                       effective_floor_exponent, sonine_weight)
from .transform import (
    _contract,
    _kernel_matrices,
    auto_lambda_window,
    embed_zeros,
    inverse,
    lattice_monomial,
    norm_sq_lambda,
)


# ---------------------------------------------------------------------------
# support and norm growth
# ---------------------------------------------------------------------------

def support_radius(f: GridFunction) -> float:
    """Max of ||x|| over the support of f, its nonzero samples; the max starts
    at 0, so an empty support reads 0."""
    rad2 = np.broadcast_to(norm_sq_lambda(f.window, f.params), f.samples.shape)
    return float(np.sqrt(np.max(rad2, where=f.samples != 0.0, initial=0.0)))


def _nonzero_box(f: GridFunction) -> GridFunction:
    """f sliced to the bounding box of its nonzero samples; f itself if all are zero."""
    nz = f.samples != 0.0
    if not np.any(nz):
        return f
    box, (s1, s2) = edge_cut(f.window, nz, 0, 1)
    return f.with_samples(f.samples[:, s1, s2], window=box)


def norm_growth_sequence(f: GridFunction, N: int) -> list[float]:
    """b_n = || ||x||^(2n) f ||_2^(1/2n) for n = 1..N, in log space."""
    if not isinstance(N, (int, np.integer)) or N < 1:
        raise QDomainError(f"norm_growth_sequence needs N >= 1, an integer, got {N!r}")
    absf, logw = np.abs(f.samples), log_mu_weights(f)
    logr2 = np.log(norm_sq_lambda(f.window, f.params))
    return [math.exp(_log_power_sum(absf, logw + 2.0 * n * logr2, 2.0) / (4.0 * n))
            for n in range(1, N + 1)]


# ---------------------------------------------------------------------------
# dual-route iterated-operator engine on the spectral grid
# ---------------------------------------------------------------------------

@dataclass
class _IterateState:
    """Step n of the engine.  The step computes its core fraction with its masses;
    both routes' log-norms are computed from its arrays when a consumer reads them."""

    n: int
    values: np.ndarray        # hybrid literal iterate, at common scale
    abs_values: np.ndarray    # |values|
    log_scale: float          # log of the accumulated scale factor
    core_fraction: float      # share of the mass |values|^2 mu on the core
    eta: np.ndarray           # the scaled preimage iterate
    eng: TransformSideIterates

    @property
    def log_norm_sq_literal(self) -> float:
        """True log ||W^n F||^2, literal route."""
        return _log_power_sum(self.abs_values, self.eng._logw_lam, 2.0) + 2.0 * self.log_scale

    @property
    def log_norm_sq_spectral(self) -> float:
        """True log || ||t||^2n f_hat ||^2."""
        return _log_power_sum(np.abs(self.eta), self.eng._logw_x, 2.0) + 2.0 * self.log_scale


class TransformSideIterates:
    """Iterates of the Weinstein operator applied to F = forward(f_hat).

    Yields hybrid values (stencil core + direct complement) with shared
    scaling, and both routes' norms on demand, for n = 1..N.  The preimage
    is kept on the bounding box of its nonzero samples: the shells outside
    hold exact zeros, which add nothing to a norm, nothing to a contraction
    but a change of summation order, and do not move the automatic window.
    """

    def __init__(self, f_hat: GridFunction, N: int):
        if f_hat.parity_y != EVEN:
            raise QDomainError("iterates need an even preimage")
        f_hat = self.f_hat = _nonzero_box(f_hat)
        self.N = N
        self.params = f_hat.params
        self._radius = support_radius(f_hat)
        w = auto_lambda_window(f_hat)
        self.window = LatticeWindow(w.n1_min - 2, w.n1_max + 4, w.n2_min - 2, w.n2_max + 4)
        self._logw_lam = np.broadcast_to(log_mu_table(self.window, self.params), self.window.shape)
        self._logw_x = log_mu_weights(f_hat)
        self._r2_x = norm_sq_lambda(f_hat.window, self.params)

    def _core_cutoff(self, n):
        """The core's cutoff exponent at step n, or at each step of an array of them: the
        shells m whose rounding (2.2e-16), scaled per step by 16/(1-q)^2 q^(2(m_r - m)) over
        the iterate's growth r^2 = q^(-2 m_r), r the radius, stays within 1e-9 after n steps."""
        q, r = self.params.q, self._radius
        L = math.log(1.0 / q)
        m_r = math.log(r) / L if r > 0 else 0.0
        return m_r + (math.log(1e-9 / 2.2e-16) / n - math.log(16.0 / (1.0 - q) ** 2)) / (2.0 * L)

    def run(self):
        """Per step n = 1..N, the state: eta_n = (-r^2)^n f_hat / (s_1 ... s_n), s_n keeping
        max|eta_n| = 1 (1 where eta_n = 0), the log of s_1 ... s_n, and eta_n's transform, direct
        but the stencil's on the core: the box of shells m1, m2 <= cutoff at the window's low
        corner.  Each step computes its core and masses from its own inputs, so a run holds one
        scaled preimage and no per-step table.  A subnormal s_n raises DivergenceError."""
        params, win = self.params, self.window
        kernel = _kernel_matrices(self.f_hat.window, win, params)
        w_lin = mu_table(win, params)
        grid = GridFunction.zeros(params, win)
        x1, x2 = grid.x1_values(), grid.x2_values()
        neg_r2 = -self._r2_x
        eta, log_scale = self.f_hat.samples, 0.0
        G_prev = _contract(kernel, eta, conj=False)
        for n in range(1, self.N + 1):
            eta = eta * neg_r2
            s = float(np.abs(eta).max()) or 1.0
            if s < sys.float_info.min:
                raise DivergenceError(
                    f"the preimage iterate at n={n} peaks at the subnormal {s:.3e}: the "
                    "transform has lost precision at this amplitude; scale the input up")
            eta /= s
            log_scale += math.log(s)
            # the core's extent: the window's exponents are consecutive integers
            cut = math.floor(self._core_cutoff(n))
            c1 = min(max(cut - win.n1_min + 1, 0), win.shape[1])
            c2 = min(max(cut - win.n2_min + 1, 0), win.shape[2])
            # direct values, with the stencil's on the core
            G_lit = _contract(kernel, eta, conj=False)
            if c1 and c2:
                np.divide(_weinstein_array(G_prev, params, x1, x2, c1, c2), s,
                          out=G_lit[:, :c1, :c2])
            # one |G_lit| for the masses and the literal log-norm
            absv = np.abs(G_lit)
            mass = np.square(absv)
            mass *= w_lin
            tot = float(mass.sum())
            if not math.isfinite(tot):
                raise QDomainError(f"the literal iterate at n={n} is not finite (NaN/Inf)")
            core = float(mass[:, :c1, :c2].ravel().sum()) / tot if tot > 0 else 0.0
            yield _IterateState(n=n, values=G_lit, abs_values=absv, log_scale=log_scale,
                                core_fraction=core, eta=eta, eng=self)
            G_prev = G_lit


# ---------------------------------------------------------------------------
# bandwidth estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BandwidthReport:
    """Norm-growth sequence and the extrapolated bandwidth (support radius)."""

    a_seq: list[float]
    a_seq_literal: list[float]
    estimate: float
    oracle_radius: float | None
    n_used: int
    route_max_rel_dev: float
    core_fractions: list[float] = field(default_factory=list)
    exponent_normalization: str = ""
    core_last_n: int = 0   # last n with stencil mass in the core; past it the
                           # literal a_n are direct transforms


def _fit_limit(a_seq: list[float]) -> float:
    """Least-squares fit log a_n = log r + c/n over the last half of the data."""
    n_tot = len(a_seq)
    lo = max(0, n_tot - max(2, n_tot // 2))
    pts = [(1.0 / (i + 1), math.log(a)) for i, a in enumerate(a_seq) if i >= lo and a > 0]
    if len(pts) < 2:
        return a_seq[-1]
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    A = np.stack([np.ones_like(xs), xs], axis=1)
    coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
    return math.exp(coef[0])


def _preimage(F: GridFunction, f_hat: GridFunction | None) -> GridFunction:
    """f_hat, which must be on F's parameters; with None, the inverse transform
    of F on its automatic window, with samples below 1e-8 of the peak zeroed:
    the one cut between residue and support, which is then the nonzero samples.

    The moments ||t||^(2n) amplify any reconstruction residue at large
    radius without bound, so the support must be thresholded before
    iterating.  The inverse leaves residue of up to ~2e-10 of the peak
    outside the support, while the in-support samples of random bumps stay
    above ~1e-3 of it; the threshold sits between.  That holds only where
    q's lattice-alignment residual is exactly 0.  Elsewhere, even at a
    double-rounded aligned root, thousands of residue samples stay above
    the threshold (up to the peak's size at generic q), no threshold
    separates them from the support, and DivergenceError is raised.  A zero F
    is reconstructed at every q: the inverse of exact zeros is exact zeros.
    """
    if f_hat is not None:
        if f_hat.params != F.params:
            raise QDomainError(f"the preimage f_hat is on {f_hat.params}, "
                               f"but the transform F on {F.params}")
        return f_hat
    if F.samples.any() and alignment_regime(F.params.q) != "aligned":
        raise DivergenceError(
            f"cannot reconstruct the preimage at q={F.params.q!r}: its lattice-alignment residual "
            f"{lattice_alignment(F.params.q)[0]:.2e} is not 0, so the inverse leaves residue "
            "outside the support that no threshold separates from it; give the preimage (f_hat)")
    raw = inverse(F).grid
    absf = np.abs(raw.samples)
    return raw.with_samples(np.where(absf > 1e-8 * float(np.max(absf)), raw.samples, 0.0))


def bandwidth_estimate(F: GridFunction, N: int, *,
                       f_hat: GridFunction | None = None) -> BandwidthReport:
    """Estimate the support radius of the preimage from iterated-operator norms.

    Computes a_n = ||W^n F||^(1/2n) by the literal stencil route and the
    spectral route, extrapolates the limit by fitting log a_n against 1/n,
    and compares with the directly measured support radius of the inverse
    transform.  The numerics confirm the sup||x|| normalization of the
    limit (not sup||x||^2); both are reported.  The support is the preimage's
    nonzero samples; an empty one (a zero F) reads estimate 0.  f_hat must be
    on F's parameters; without it the preimage is reconstructed by _preimage,
    which needs q's alignment residual to be 0 unless F is zero.
    """
    if not isinstance(N, (int, np.integer)) or N < 1:
        raise QDomainError(f"bandwidth_estimate needs N >= 1, an integer, got {N!r}")
    f_hat = _preimage(F, f_hat)

    eng = TransformSideIterates(f_hat, N)
    oracle = eng._radius
    a_spec, a_lit, fracs = [], [], []
    worst = 0.0
    for st in eng.run():
        n = st.n
        a_s = math.exp(st.log_norm_sq_spectral / (4.0 * n))
        a_l = math.exp(st.log_norm_sq_literal / (4.0 * n))
        a_spec.append(a_s)
        a_lit.append(a_l)
        fracs.append(st.core_fraction)
        if a_s > 0:
            worst = max(worst, abs(a_l / a_s - 1.0))
    est = _fit_limit(a_spec)
    if oracle > 0:
        dev_r = abs(est / oracle - 1.0)
        dev_r2 = abs(est / oracle**2 - 1.0)
        norm_tag = "sup||x||" if dev_r <= dev_r2 else "sup||x||^2"
    else:
        norm_tag = "sup||x|| (empty support)"
    core_last_n = max((n for n, c in enumerate(fracs, 1) if c > 0), default=0)
    return BandwidthReport(a_seq=a_spec, a_seq_literal=a_lit, estimate=est,
                           oracle_radius=oracle, n_used=N, route_max_rel_dev=worst,
                           core_fractions=fracs, exponent_normalization=norm_tag,
                           core_last_n=core_last_n)


# ---------------------------------------------------------------------------
# PW^m sup
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PWmParams:
    m: int
    a: float
    N: int

    def __post_init__(self):
        if not (isinstance(self.m, (int, np.integer)) and isinstance(self.N, (int, np.integer))
                and 0 <= self.m <= self.N):
            raise QDomainError(f"PWmParams needs 0 <= m <= N, both integers, got {self}")
        if not self.a > 0:
            raise QDomainError("PWmParams needs a > 0")


def log_B_nm(n: int, m: int, params: QParams) -> float:
    """log of B_{n,m,q} = ((1-q)^(2m) / (q^(2n); q^(-1))_{2m})^2."""
    q = params.q
    acc = 2.0 * m * math.log1p(-q)
    for k in range(2 * m):
        acc -= math.log1p(-(q ** (2 * n - k)))
    return 2.0 * acc


def pw_m_sup(F: GridFunction, p: PWmParams, *,
             f_hat: GridFunction | None = None) -> tuple[float, list[float]]:
    """sup over stored x and m <= n <= N of a^(-2n) B_{n,m,q} (1+||x||^2)^m |W^n F(x)|.

    Enforces m > alpha + 3/2.  Returns (running sup, per-n sup values); the
    per-n values are computed in log space so deep windows cannot overflow.
    f_hat must be on F's parameters; without it the preimage is reconstructed
    by _preimage, which needs q's alignment residual to be 0.
    """
    alpha = F.params.alpha
    if not (p.m > alpha + 1.5):
        raise QDomainError(f"pw_m_sup needs m > alpha + 3/2, got m={p.m}, alpha={alpha}")
    f_hat = _preimage(F, f_hat)
    eng = TransformSideIterates(f_hat, p.N)
    log_1px2 = np.log1p(norm_sq_lambda(eng.window, F.params))
    log_a = math.log(p.a)
    per_n = []
    for st in eng.run():
        n = st.n
        if n < p.m:
            continue
        with np.errstate(divide="ignore"):   # a zero sample's log is -inf, and exp(-inf) = 0
            logs = (np.log(st.abs_values) + st.log_scale - 2.0 * n * log_a
                    + log_B_nm(n, p.m, F.params) + p.m * log_1px2)
        per_n.append(math.exp(min(float(np.max(logs)), 700.0)))
    return max(per_n), per_n


# ---------------------------------------------------------------------------
# constructive derivative bounds (one 1-D dilation expansion per variable)
# ---------------------------------------------------------------------------

def _support_extent(f: GridFunction):
    """((sup|x1|, inf|x1|), (sup|x2|, inf|x2|)) over the box of f's nonzero samples
    (_nonzero_box); for an all-zero f, the window's, which the bounds multiply by max|f| = 0."""
    box = _nonzero_box(f)
    r1, r2 = box.x1_values()[0], box.x2_values()   # q^n falls as n grows
    return (float(r1[0]), float(r1[-1])), (float(r2[0]), float(r2[-1]))


@functools.lru_cache(maxsize=256)
def _dilation_bound(n: int, p: int, q: float, sup: float, inf: float,
                    parity: str | None) -> float:
    """Sum of |c| (q^-u sup)^a (inf for sup when a < 0) over the expansion of
    D^p(t^n h) into terms c t^a h(s q^u t): a bound on sup|D^p(t^n h)| for
    |h| <= 1 supported in inf <= |t| <= sup, since h(s q^u t) vanishes
    unless q^u |t| lies there.  parity None: t is the signed first variable
    and a step is the five-point stencil of dq_1d.  Otherwise t is the
    positive second variable, h has that parity, and a step is the
    two-point stencil of qops._dy_array for the current parity, as on the
    grid, whatever the parity of t^n.  Memoized: the bound checks of one
    support ask for the same expansions again.
    """
    terms = {(1, 0): 1.0}   # (s, u) -> c
    for a in range(n, n - p, -1):
        if parity is None:   # [g(t/q) + g(-t/q) - g(qt) + g(-qt) - 2 g(-t)] / (2 (1-q) t)
            half = 0.5 if a % 2 == 0 else -0.5   # half the sign t^a takes at -t
            stencil = [(1, -1, 0.5 * q ** (-a)), (-1, -1, half * q ** (-a)), (1, 1, -0.5 * q**a),
                       (-1, 1, half * q**a), (-1, 0, -2.0 * half)]
        elif parity == EVEN:   # [g(t/q) - g(t)] / ((1-q) t)
            stencil = [(1, -1, q ** (-a)), (1, 0, -1.0)]
        else:                  # [g(t) - g(qt)] / ((1-q) t)
            stencil = [(1, 0, 1.0), (1, 1, -q**a)]
        out: dict = {}
        for (s, u), c in terms.items():
            for ds, du, w in stencil:
                key = (ds * s, u + du)
                out[key] = out.get(key, 0.0) + c / (1.0 - q) * w
        terms = out
        if parity is not None:
            parity = _FLIP[parity]
    a = n - p
    r = sup if a >= 0 else inf
    return sum(abs(c) * (q ** (-u) * r) ** a for (_s, u), c in terms.items())


def monomial_derivative_bound_check(f: GridFunction, n1: int, n2: int, p1: int, p2: int,
                                    p: int) -> tuple[float, float, dict]:
    """Check ||D^(p1,p2)(t1^n1 t2^n2 f)||_inf against its constructive bound.

    Returns (lhs, rhs, detail); on the even extension t2^n2 means |t2|^n2,
    as the samples hold.  Lattice and stencils are separable, so every term
    of the 2-D expansion is a product of 1-D ones and rhs is max|f| times
    the product of the two _dilation_bound sums: lhs <= rhs is a theorem.
    detail holds the derivative's support radius and its bound, f's over q^p.
    """
    if not (all(isinstance(x, (int, np.integer)) for x in (n1, n2, p1, p2, p))
            and p1 <= p < n1 and p2 <= p < n2):
        raise QDomainError(f"need p1 <= p < n1 and p2 <= p < n2, all integers, got n1={n1!r}, "
                           f"n2={n2!r}, p1={p1!r}, p2={p2!r}, p={p!r}")
    q = f.params.q
    g = f.with_samples(f.samples * lattice_monomial(f, n1, n2))
    d = dq_mixed(embed_zeros(g, p1 + 2, p2 + 2), (p1, p2))
    lhs = float(np.max(np.abs(d.samples)))

    ext1, ext2 = _support_extent(f)
    raw = (float(np.max(np.abs(f.samples))) * _dilation_bound(n1, p1, q, *ext1, None)
           * _dilation_bound(n2, p2, q, *ext2, f.parity_y))
    return lhs, raw, {"support_radius_out": support_radius(d),
                      "support_radius_bound": support_radius(f) / q**p}


def radial_power_bound_check(f: GridFunction, n: int, i: int, j: int,
                             p: int) -> tuple[float, float, dict]:
    """Check ||D^(2i,2j)(||t||^2n f)||_inf against the binomial-sum bound.

    ||t||^(2n) expands binomially into monomials t1^(2m) t2^(2(n-m)); as in
    monomial_derivative_bound_check, each one's bound is max|f| times a
    product of two 1-D _dilation_bound sums.  Terms whose degree is used up
    by the derivatives need the inner support radii of the bump to stay
    bounded, so those enter the constant.
    """
    if not (all(isinstance(x, (int, np.integer)) for x in (n, i, j, p))
            and i <= p and j <= p and n >= 0):
        raise QDomainError(f"need i, j <= p, and n, i, j, p integers, got n={n!r}, i={i!r}, "
                           f"j={j!r}, p={p!r}; the degree n must be >= 0")
    q = f.params.q
    g = f.with_samples(f.samples * norm_sq_lambda(f.window, f.params) ** n)
    d = dq_mixed(embed_zeros(g, 2 * i + 2, 2 * j + 2), (2 * i, 2 * j))
    lhs = float(np.max(np.abs(d.samples)))

    ext1, ext2 = _support_extent(f)
    raw = float(np.max(np.abs(f.samples))) * sum(
        math.comb(n, m) * _dilation_bound(2 * m, 2 * i, q, *ext1, None)
        * _dilation_bound(2 * (n - m), 2 * j, q, *ext2, f.parity_y) for m in range(n + 1))
    return lhs, raw, {}


def weinstein_sup_bound_check(f: GridFunction, k: int) -> tuple[float, float, dict]:
    """Check ||W^k f||_inf <= (1 + [2a+2]_q)^k max_{p1,p2<=k} ||D^(2p1,2p2) f||_inf.

    The constant comes from the binomial expansion of (d_x^2 + B_y)^k with
    ||B^m g||_inf <= [2a+2]_q^m ||d_y^2m g||_inf: the Bessel part is a
    convex dilation average of second differences, a sup-norm contraction.
    """
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise QDomainError(f"weinstein_sup_bound_check needs k >= 0, an integer, got {k!r}")
    fpad = embed_zeros(f, 2 * k + 2, 2 * k + 2)
    wk = weinstein_op(fpad, k)
    lhs = float(np.max(np.abs(wk.samples)))
    Ck = (1.0 + qbracket(2.0 * f.params.alpha + 2.0, f.params)) ** k
    worst = 0.0
    for dx in dq_ladder(fpad, lambda h: dq_mixed(h, (2, 0)), k):   # D^(2 p1, 0), then
        for d in dq_ladder(dx, lambda h: dq_mixed(h, (0, 2)), k):  # its x2 orders 2 p2
            worst = max(worst, float(np.max(np.abs(d.samples))))
    rhs = Ck * worst
    return lhs, rhs, {"C_k": Ck, "max_derivative_sup": worst}


def sonine_identity_check(alpha: float, p: int, y_exponents: list[int], params: QParams) -> float:
    """Max error of the Sonine-type representation over lattice sample points.

    Compares j_{alpha+p}(q^k; q^2) with the Jackson integral of
    W_{p-1}(t) j_alpha(q^k t; q^2) t^(2*alpha+1) over (0, 1], both read from the
    exponent families.  The sum runs until its weight q^(j(2 alpha+2)) is below
    2^-60, N_MAX terms at least; past q = 0.9995 it raises DivergenceError.
    """
    if len(y_exponents) == 0 or not all(isinstance(y, (int, np.integer)) for y in y_exponents):
        raise QDomainError("sonine_identity_check needs a nonempty list of integer y_exponents, "
                           f"got {y_exponents!r}")
    q = params.q
    base = QParams(q=q, alpha=alpha)
    k_lo, k_hi = min(y_exponents), max(y_exponents)
    n_terms = max(N_MAX, int(60.0 / ((2.0 * alpha + 2.0) * math.log2(1.0 / q))) + 1)
    if q > 0.9995:   # the terms grow like 1/(1-q): 41 600 at q = 0.9995
        raise DivergenceError(f"the Sonine check serves q <= 0.9995: at q={q!r} its Jackson "
                              f"sum needs {n_terms} terms")
    fam_a = bessel_j_exponent_family(alpha, base, k_lo, k_hi + n_terms)
    lhs = bessel_j_exponent_family(alpha + p, base, k_lo, k_hi)
    # past their frontier (k = -1 below q ~ 0.031) the families read exact zeros: the
    # direct series there, accurate at every q for these shallow arguments
    for k in range(k_lo, effective_floor_exponent(q)):
        fam_a[k - k_lo] = bessel_j(alpha, q ** float(k), base).value.real
    for k in range(k_lo, min(effective_floor_exponent(q), k_hi + 1)):
        lhs[k - k_lo] = bessel_j(alpha + p, q ** float(k), base).value.real
    jj = np.arange(n_terms)
    # (1-q) q^jj t^(2a+1) W_{p-1}(t) at t = q^jj
    w = (1.0 - q) * q ** (jj * (2.0 * alpha + 2.0)) * sonine_weight(p, q**jj, base)
    return max(abs(lhs[ky - k_lo] - w @ fam_a[ky - k_lo:ky - k_lo + n_terms])
               for ky in y_exponents)
