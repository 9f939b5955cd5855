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

import math
from dataclasses import dataclass, field

import numpy as np

from .qcore import (DEFAULT_POLICY, DivergenceError, QDomainError, QParams, TruncationPolicy,
                    lattice_alignment)
from .qintegrate import log_l2_norm_sq, log_mu_table, log_mu_weights, log_sum_exp, mu_table
from .qops import (_FLIP, EVEN, GridFunction, LatticeWindow, _weinstein_array, dq_ladder,
                   dq_mixed, require_finite, weinstein_op)
from .qspecial import bessel_j, sonine_weight
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

def _support_mask(f: GridFunction) -> np.ndarray:
    """Samples with |f(x)| > 1e-12 * max|f|, separating exact lattice zeros
    from rounding residue."""
    absf = np.abs(f.samples)
    return absf > 1e-12 * float(np.max(absf))


def support_radius(f: GridFunction) -> float:
    """Max of ||x|| over the support of f (see _support_mask); 0 if it is empty."""
    mask = _support_mask(f)
    if not np.any(mask):
        return 0.0
    rad2 = np.broadcast_to(norm_sq_lambda(f.window, f.params), f.samples.shape)
    return float(np.sqrt(np.max(rad2[mask])))


def _nonzero_box(f: GridFunction) -> GridFunction:
    """f sliced to the bounding box of its nonzero samples; f itself if all are zero."""
    nz = f.samples != 0.0
    if not np.any(nz):
        return f
    i1 = np.flatnonzero(nz.any(axis=(0, 2)))
    i2 = np.flatnonzero(nz.any(axis=(0, 1)))
    lo1, hi1, lo2, hi2 = int(i1[0]), int(i1[-1]), int(i2[0]), int(i2[-1])
    w = f.window
    box = LatticeWindow(w.n1_min + lo1, w.n1_min + hi1, w.n2_min + lo2, w.n2_min + hi2)
    return f.with_samples(f.samples[:, lo1:hi1 + 1, lo2:hi2 + 1], window=box)


def norm_growth_sequence(f: GridFunction, N: int) -> list[float]:
    """b_n = || ||x||^(2n) f ||_2^(1/2n) for n = 1..N, in log space."""
    if N < 1:
        raise QDomainError("norm_growth_sequence needs N >= 1")
    absf = np.abs(f.samples)
    mask = absf > 0.0
    base = 2.0 * np.log(absf[mask]) + log_mu_weights(f)[mask]
    logr2 = np.log(np.broadcast_to(norm_sq_lambda(f.window, f.params), f.samples.shape))[mask]
    return [math.exp(log_sum_exp(base + 2.0 * n * logr2) / (4.0 * n)) for n in range(1, N + 1)]


# ---------------------------------------------------------------------------
# dual-route iterated-operator engine on the spectral grid
# ---------------------------------------------------------------------------

@dataclass
class _IterateState:
    n: int
    values: np.ndarray        # hybrid literal iterate, at common scale
    log_scale: float          # log of the accumulated scale factor
    core_fraction: float
    log_norm_sq_literal: float   # true log ||W^n F||^2, literal route
    log_norm_sq_spectral: float  # true log || ||t||^2n f_hat ||^2


class TransformSideIterates:
    """Iterates of the Weinstein operator applied to F = forward(f_hat).

    Yields hybrid values (stencil core + direct complement) with shared
    scaling, plus both routes' norms, for n = 1..N.  The preimage is kept
    on the bounding box of its nonzero samples: the shells outside hold
    exact zeros, which add nothing to a norm, nothing to a contraction but
    a change of summation order, and do not move the automatic window.
    """

    def __init__(self, f_hat: GridFunction, N: int):
        if f_hat.parity_y != EVEN:
            raise QDomainError("iterates need an even preimage")
        f_hat = self.f_hat = _nonzero_box(f_hat)
        self.N = N
        self.params = f_hat.params
        q = self.params.q
        self._L = math.log(1.0 / q)
        r = support_radius(f_hat)
        self._m_r = math.log(r) / self._L if r > 0 else 0.0
        self._stencil_const = 16.0 / (1.0 - q) ** 2
        self._log_amp_budget = math.log(1e-9 / 2.2e-16)   # junk budget over rounding
        w = auto_lambda_window(f_hat, tol=1e-12)
        self.window = LatticeWindow(w.n1_min - 2, w.n1_max + 4, w.n2_min - 2, w.n2_max + 4)
        self._logw_lam = np.broadcast_to(log_mu_table(self.window, self.params), self.window.shape)
        x1 = q ** self.window.n1_exponents().astype(float)
        self._x1, self._x2 = np.stack([x1, -x1]), q ** self.window.n2_exponents().astype(float)
        self._logw_x = log_mu_weights(f_hat)
        self._r2_x = norm_sq_lambda(f_hat.window, self.params)

    def _core_cutoff(self, n: int) -> float:
        slack = (self._log_amp_budget / n - math.log(self._stencil_const)) / (2.0 * self._L)
        return self._m_r + slack

    def run(self):
        params = self.params
        kernel = _kernel_matrices(self.f_hat.window, self.window, params)
        eta = self.f_hat.samples.copy()
        G_prev = _contract(kernel, eta, conj=False)
        log_scale = 0.0
        w_lin = mu_table(self.window, params)
        m1, m2 = self.window.n1_exponents(), self.window.n2_exponents()
        for n in range(1, self.N + 1):
            eta_raw = eta * (-self._r2_x)
            s = float(np.max(np.abs(eta_raw)))
            if s == 0.0:
                s = 1.0
            eta = eta_raw / s
            log_scale += math.log(s)
            require_finite(G_prev)
            # direct values, with the stencil's on the core, the box of shells
            # m1, m2 <= cutoff at the window's low corner: the stencil reaches
            # 2 shells past it in n1 and 1 in n2, and the low edges are the window's
            G_lit = _contract(kernel, eta, conj=False)
            c = self._core_cutoff(n)
            c1, c2 = (int(np.searchsorted(m, c, side="right")) for m in (m1, m2))
            if c1 and c2:
                G_sten = _weinstein_array(G_prev[:, :c1 + 2, :c2 + 1], params,
                                          self._x1[:, :c1 + 2], self._x2[:c2 + 1])
                G_lit[:, :c1, :c2] = G_sten[:, :c1, :c2] / s
            # norms (true logs, including the scale); |G_lit| is taken once
            absv = np.abs(G_lit)
            log_lit = log_l2_norm_sq(absv, self._logw_lam) + 2.0 * log_scale
            log_spec = log_l2_norm_sq(eta, self._logw_x) + 2.0 * log_scale
            mass = absv ** 2 * w_lin
            tot = float(np.sum(mass))
            core = float(np.sum(mass[:, :c1, :c2].ravel())) if tot > 0 else 0.0   # one flat sum
            yield _IterateState(
                n=n,
                values=G_lit,
                log_scale=log_scale,
                core_fraction=core / tot if tot > 0 else 0.0,
                log_norm_sq_literal=log_lit,
                log_norm_sq_spectral=log_spec,
            )
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
        return a_seq[-1] if a_seq else 0.0
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    A = np.stack([np.ones_like(xs), xs], axis=1)
    coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
    return math.exp(coef[0])


def _preimage(F: GridFunction) -> GridFunction:
    """The inverse transform of F on its automatic window, with samples below
    1e-8 of the peak zeroed.

    The moments ||t||^(2n) amplify any reconstruction residue at large
    radius without bound, so the support must be thresholded before
    iterating.  The inverse leaves residue of up to ~2e-10 of the peak
    outside the support, while the in-support samples of random bumps stay
    above ~1e-3 of it; the threshold sits between.  That holds only where
    q's lattice-alignment residual is exactly 0.  Elsewhere, even at a
    double-rounded aligned root, thousands of residue samples stay above
    the threshold (up to the peak's size at generic q), no threshold
    separates them from the support, and DivergenceError is raised.
    """
    eps, _ = lattice_alignment(F.params.q)
    if eps != 0.0:
        raise DivergenceError(
            f"cannot reconstruct the preimage at q={F.params.q!r}: its lattice-alignment "
            f"residual {eps:.2e} is not 0, so the inverse leaves residue outside the "
            "support that no threshold separates from it; give the preimage (f_hat)")
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
    limit (not sup||x||^2); both are reported.  Without f_hat the preimage
    is reconstructed by _preimage, which needs q's alignment residual to be 0.
    """
    if N < 1:
        raise QDomainError("bandwidth_estimate needs N >= 1")
    if float(np.max(np.abs(F.samples))) == 0.0:
        return BandwidthReport(a_seq=[0.0] * N, a_seq_literal=[0.0] * N, estimate=0.0,
                               oracle_radius=0.0, n_used=N, route_max_rel_dev=0.0,
                               exponent_normalization="sup||x|| (trivial)")
    if f_hat is None:
        f_hat = _preimage(F)
    oracle = support_radius(f_hat)

    eng = TransformSideIterates(f_hat, N)
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
        if self.m < 0 or self.N < self.m:
            raise QDomainError("PWmParams needs 0 <= m <= N")
        if self.a <= 0:
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
    Without f_hat the preimage is reconstructed by _preimage, which needs q's
    alignment residual to be 0.
    """
    alpha = F.params.alpha
    if not (p.m > alpha + 1.5):
        raise QDomainError(f"pw_m_sup needs m > alpha + 3/2, got m={p.m}, alpha={alpha}")
    if float(np.max(np.abs(F.samples))) == 0.0:
        return 0.0, [0.0] * (p.N - p.m + 1)
    if f_hat is None:
        f_hat = _preimage(F)
    eng = TransformSideIterates(f_hat, p.N)
    log_1px2 = np.log1p(norm_sq_lambda(eng.window, F.params))
    log_a = math.log(p.a)
    per_n = []
    for st in eng.run():
        n = st.n
        if n < p.m:
            continue
        absv = np.abs(st.values)
        mask = absv > 0.0
        if not np.any(mask):
            per_n.append(0.0)
            continue
        logs = (
            np.log(absv[mask]) + st.log_scale
            - 2.0 * n * log_a
            + log_B_nm(n, p.m, F.params)
            + p.m * np.broadcast_to(log_1px2, st.values.shape)[mask]
        )
        per_n.append(math.exp(min(float(np.max(logs)), 700.0)))
    return (max(per_n) if per_n else 0.0), per_n


# ---------------------------------------------------------------------------
# constructive derivative bounds (one 1-D dilation expansion per variable)
# ---------------------------------------------------------------------------

def _support_extent(f: GridFunction):
    """((sup|x1|, inf|x1|), (sup|x2|, inf|x2|)) over the support of f."""
    mask = _support_mask(f)
    if not np.any(mask):
        return (0.0, 0.0), (0.0, 0.0)
    r1 = f.x1_values()[0][mask.any(axis=(0, 2))]
    r2 = f.x2_values()[mask.any(axis=(0, 1))]
    return (float(r1.max()), float(r1.min())), (float(r2.max()), float(r2.min()))


def _dilation_bound(n: int, p: int, q: float, sup: float, inf: float,
                    parity: str | None) -> float:
    """Sum of |c| (q^-u sup)^a (inf for sup when a < 0) over the expansion of
    D^p(t^n h) into terms c t^a h(s q^u t): a bound on sup|D^p(t^n h)| for
    |h| <= 1 supported in inf <= |t| <= sup, since h(s q^u t) vanishes
    unless q^u |t| lies there.  parity None: t is the signed first variable
    and a step is the five-point stencil of dq_1d.  Otherwise t is the
    positive second variable, h has that parity, and a step is the
    two-point stencil of qops._dy_array for the current parity, as on the
    grid, whatever the parity of t^n.
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
    if not (p1 <= p < n1 and p2 <= p < n2):
        raise QDomainError("need p1 <= p < n1 and p2 <= p < n2")
    q = f.params.q
    g = f.with_samples(f.samples * lattice_monomial(f.window, f.params, n1, n2))
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
    if not (i <= p and j <= p):
        raise QDomainError("need i, j <= p")
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
    if k < 0:
        raise QDomainError("weinstein_sup_bound_check needs k >= 0")
    q = f.params.q
    alpha = f.params.alpha
    fpad = embed_zeros(f, 2 * k + 2, 2 * k + 2)
    wk = weinstein_op(fpad, k)
    lhs = float(np.max(np.abs(wk.samples)))
    bracket = (1.0 - q ** (2.0 * alpha + 2.0)) / (1.0 - q)
    Ck = (1.0 + bracket) ** k
    worst = 0.0
    for dx in dq_ladder(fpad, (2, 0), k):   # D^(2 p1, 0), then its x2 orders 2 p2
        for d in dq_ladder(dx, (0, 2), k):
            worst = max(worst, float(np.max(np.abs(d.samples))))
    rhs = Ck * worst
    return lhs, rhs, {"C_k": Ck, "max_derivative_sup": worst}


def sonine_identity_check(alpha: float, p: int, y_exponents: list[int], params: QParams,
                          policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """Max error of the Sonine-type representation over lattice sample points.

    Compares j_{alpha+p}(q^k; q^2) with the Jackson integral of
    W_{p-1}(t) j_alpha(q^k t; q^2) t^(2*alpha+1) over (0, 1], evaluating
    the integrand along exponent families so deep arguments stay accurate.
    """
    q = params.q
    base = QParams(q=q, alpha=alpha)
    n_terms = max(policy.n_max, 60)
    k_lo = min(y_exponents)
    k_hi = max(y_exponents) + n_terms
    # arguments q^k here are bounded by q^(min y exponent): shallow, so the
    # direct series is accurate at every q (no lattice-family truncation)
    fam_a = np.array([bessel_j(alpha, q ** float(k), base, policy).value.real
                      for k in range(k_lo, k_hi + 1)])
    jj = np.arange(n_terms)
    # (1-q) q^jj t^(2a+1) W_{p-1}(t) at t = q^jj
    w = (1.0 - q) * q ** (jj * (2.0 * alpha + 2.0)) * sonine_weight(p, q**jj, base, policy)
    worst = 0.0
    for ky in y_exponents:
        lhs = bessel_j(alpha + p, q ** float(ky), base, policy).value.real
        worst = max(worst, abs(lhs - w @ fam_a[ky - k_lo:ky - k_lo + n_terms]))
    return worst
