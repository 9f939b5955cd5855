"""q-special functions: the normalized third Jackson q-Bessel function,
q-trigonometric functions, the q-exponential, and the Sonine weight.

Two evaluation strategies coexist:

* a power series with term recursion, accurate while the peak term of the
  alternating series stays within double-precision headroom;
* an inward three-term recurrence along the lattice argument q^k
  (Miller's algorithm) for whole families j_alpha(q^k; q^2).  The series
  loses everything to cancellation once q^k is large, while the
  recurrence, matched to the series at its turning point, tracks the
  family to ~1e-15 relative accuracy at q = 1/2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .qcore import QDomainError, QParams, lattice_alignment, qgamma_base

@dataclass(frozen=True)
class SeriesValue:
    """A truncated series evaluation with diagnostics."""

    value: complex
    est_tail: float


# the power series stops, past its peak term, once the tail estimate is below SERIES_TOL
SERIES_TOL = 1e-17


def bessel_j(alpha: float, x: complex, params: QParams) -> SeriesValue:
    """Normalized third Jackson q-Bessel function j_alpha(x; q^2).

    Series form: sum_n (-1)^n q^(n(n+1)) ((1-q)x)^(2n) /
    ((q^2; q^2)_n (q^(2*alpha+2); q^2)_n).  The q^(n(n+1)) factor makes it
    entire; terms grow until n ~ log_{1/q}|x| and then decay faster than
    geometrically, so the tail test only fires past the peak.
    """
    if alpha < -0.5:
        raise QDomainError(f"bessel_j needs alpha >= -1/2, got {alpha}")
    q = params.q
    q2 = q * q
    z = (1.0 - q) * (1.0 - q) * complex(x) * complex(x)   # ((1-q)x)^2
    absz = abs(z)
    n_peak = 0
    if absz > 1.0:
        n_peak = int(math.ceil(math.log(absz) / (2.0 * math.log(1.0 / q)))) + 1
    term = 1.0 + 0.0j
    total = term
    n = 0
    while True:
        n += 1
        ratio_den = (1.0 - q2**n) * (1.0 - q ** (2.0 * alpha + 2.0 * n))
        r = -(q2**n) * z / ratio_den
        term = term * r
        total += term
        if n >= n_peak + 2:
            est_tail = abs(term) / (1.0 - min(abs(r), 0.99))
            if est_tail < SERIES_TOL:
                break
        if n > 100000:
            raise ArithmeticError("bessel_j series failed to terminate")
    return SeriesValue(value=total, est_tail=est_tail)


def qcos(x: complex, params: QParams) -> complex:
    """q-cosine: cos(x; q^2) = j_{-1/2}(x; q^2)."""
    return bessel_j(-0.5, x, params).value


def qsin(x: complex, params: QParams) -> complex:
    """q-sine: sin(x; q^2) = x * j_{1/2}(x; q^2)."""
    return complex(x) * bessel_j(0.5, x, params).value


def qexp(z: complex, params: QParams) -> complex:
    """q-exponential e(z; q^2) = cos(-iz; q^2) + i sin(-iz; q^2)."""
    miz = -1j * complex(z)
    return qcos(miz, params) + 1j * qsin(miz, params)


# ---------------------------------------------------------------------------
# Lattice families via inward (Miller) recurrence
# ---------------------------------------------------------------------------

def decay_floor_exponent(q: float) -> int:
    """Most negative lattice exponent k with j_alpha(q^k) representable.

    |j_alpha(q^k; q^2)| decays like q^(k(k+1)) as k -> -inf; below the
    double-precision floor, family values are clamped to exact zero.
    """
    return -int(math.floor(math.sqrt(700.0 / math.log(1.0 / q))))


def effective_floor_exponent(q: float) -> int:
    """Deepest lattice exponent the kernel families keep; zeros beyond.

    Superexponential decay of j_alpha(q^-k; q^2) requires the alignment
    1 - q = q^j.  Three regimes:

    * exact alignment in binary (q = 1/2): only the double-precision
      representability floor binds;
    * near-aligned q (residual epsilon below ~1e-8): the decaying branch
      is computable (inward recurrence) down to the alignment turnaround
      k* = sqrt(ln(1/epsilon) / (2 ln(1/q))); beyond it the function
      departs from the decaying branch at O(sqrt(epsilon)) and is cut;
    * misaligned q: the series evaluates the (growing) truth directly,
      and the cut is placed where the growth envelope
      epsilon * q^(-k(k-1)) passes 1e3, past which spectral sums are
      dominated by the divergence anyway.
    """
    floor_rep = decay_floor_exponent(q)
    regime = alignment_regime(q)
    if regime == "aligned":
        return floor_rep
    eps, L = lattice_alignment(q)[0], math.log(1.0 / q)
    if regime == "near-aligned":
        k_star = math.sqrt(math.log(1.0 / eps) / (2.0 * L))
        return max(floor_rep, -int(math.floor(k_star)) + 1)
    c = math.log(1e3 / eps) / L
    k_grow = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * c))
    return max(floor_rep, -int(math.floor(k_grow)))


def alignment_regime(q: float) -> str:
    """The regime of effective_floor_exponent that q is in: "aligned" where its
    lattice-alignment residual is exactly 0, "near-aligned" below 1e-8, else
    "misaligned".  The one place that classifies a residual."""
    eps = lattice_alignment(q)[0]
    return "aligned" if eps == 0.0 else "near-aligned" if eps < 1e-8 else "misaligned"


def bessel_j_exponent_family(alpha: float, params: QParams, k_min: int,
                             k_max: int) -> np.ndarray:
    """j_alpha(q^k; q^2) for every integer k in [k_min, k_max], float64.

    The series serves every k down to the matching point k_s, the deepest
    k with (1-q) q^k <= 1 (-1 at q = 1/2, -j at aligned_q(j)): up to there
    its peak term stays within double-precision headroom.  Deeper
    arguments are served down to the effective decay frontier of the
    lattice family and are exact zeros beyond it:

    * at lattice-aligned q (1 - q = q^j; binary-exact at q = 1/2) the
      family decays superexponentially and deep entries come from the
      inward three-term recurrence (Miller's algorithm), which follows
      the inward-growing Bessel solution so seed junk dies off; it is
      normalized once, against the series at k_s.  Above k_s the family
      is the recurrence's subdominant solution, so k_s is also the
      shallowest point where the two are matched accurately;
    * near-aligned q keep the Miller zone down to the alignment
      turnaround;
    * strongly misaligned q, and zones under 3 shells deep, have a
      shallow frontier where the plain series is still accurate, so the
      series serves everything kept.

    Every request reads one memo entry per (alpha, q) (64 entries): the
    family over [frontier - 1, K], with K the first k whose first series term
    is below 2^-54, so that the series is exactly 1.0 from K on.  The request
    is the entry held at its ends, 0 below it and 1.0 past it, so its bits do
    not depend on its range, and it is the caller's own array.  An entry holds
    about 60 values at q = 1/2 and 36,800 (0.3 MB) at q = 0.9995.
    """
    if k_min > k_max:
        raise QDomainError("bessel_j_exponent_family needs k_min <= k_max")
    entry, lo = _family_entry(alpha, params.q)
    # the entry held at its ends: 0 below the frontier, 1.0 from K on
    return entry.take(np.arange(k_min - lo, k_max - lo + 1), mode="clip")


@functools.lru_cache(maxsize=64)
def _family_entry(alpha: float, q: float) -> tuple[np.ndarray, int]:
    """bessel_j_exponent_family's memo entry: the read-only family over [lo, K], and lo."""
    params = QParams(q=q, alpha=alpha)
    frontier = effective_floor_exponent(q)
    lo = frontier - 1
    # the series' first term is -t1 q^(2k): below 2^-54 the sum rounds to 1.0
    t1 = (1.0 - q) ** 2 * q * q / ((1.0 - q * q) * (1.0 - q ** (2.0 * alpha + 2.0)))
    K = math.floor(math.log(2.0**-54 / t1) / (2.0 * math.log(q))) + 1
    # the 1e-9 keeps a double-rounded aligned root on -j from either side
    k_s = -int(math.floor(math.log(1.0 - q) / math.log(q) + 1e-9))
    miller = alignment_regime(q) != "misaligned" and frontier <= k_s - 3
    out = np.zeros(K - lo + 1)
    for k in range(k_s if miller else frontier, K + 1):
        out[k - lo] = bessel_j(alpha, q ** float(k), params).value.real
    if not miller:
        out.flags.writeable = False
        return out, lo

    # ratios g_(k+1) / g_k of the recurrence
    #   q^(2 alpha) g_(k+1) = (1 + q^(2 alpha) - (1-q)^2 q^(2k)) g_k - g_(k-1)
    # for k = k0 .. k_s, seeded with g_(k0-1) = 0; the margin below the frontier
    # lets the seed's share decay by ~2^-160 before the first kept shell
    margin = max(10, int(math.ceil(math.sqrt(frontier * frontier + 160.0 / math.log2(1.0 / q))))
                 - abs(frontier) + 8)
    k0 = frontier - margin
    q2a = q ** (2.0 * alpha)
    # q^(2 alpha) is added last: the rest cancels at k_s, exposing any rounding of 1 + q^(2 alpha)
    coef = (1.0 - (1.0 - q) ** 2 * q ** (2.0 * np.arange(k0, k_s + 1))) + q2a
    ratios = []
    inv = 0.0
    for c in coef.tolist():
        r = (c - inv) / q2a
        ratios.append(r)
        inv = 1.0 / r
    ref, ref2 = out[k_s - lo], out[k_s + 1 - lo]
    if not abs(ratios[-1] * ref - ref2) < 1e-11 * abs(ref2):
        raise ArithmeticError("bessel_j_exponent_family: Miller normalization failed to converge")
    # j_k = ref * g_k / g_(k_s) on frontier <= k < k_s; past the overflow of
    # the ratio product the family is an exact zero
    with np.errstate(over="ignore"):
        zone = ref / np.cumprod(np.array(ratios[frontier - k0:k_s - k0])[::-1])[::-1]
    zone[np.abs(zone) < 1e-300] = 0.0
    out[1:k_s - lo] = zone
    out.flags.writeable = False
    return out, lo


def qtrig_exponent_families(params: QParams, k_min: int,
                            k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """cos(q^k; q^2) and sin(q^k; q^2) over k in [k_min, k_max].

    Both reduce to Bessel families: cos = j_{-1/2}, sin(x) = x j_{1/2}(x).
    """
    cos_vals = bessel_j_exponent_family(-0.5, params, k_min, k_max)
    sin_vals = bessel_j_exponent_family(0.5, params, k_min, k_max)
    # j_{1/2} is 0 below the frontier; from there on q^k is finite
    i = min(max(effective_floor_exponent(params.q) - k_min, 0), len(sin_vals))
    sin_vals[i:] *= np.power(params.q, np.arange(k_min + i, k_max + 1, dtype=float))
    return cos_vals, sin_vals


def sonine_weight(p: int, t: float | np.ndarray, params: QParams) -> float | np.ndarray:
    """Weight W_{p-1}(t; q^2) of the Sonine-type q-integral representation.

    W_{p-1}(t; q^2) = (1+q) Gamma_{q^2}(alpha+p+1) /
                      (Gamma_{q^2}(alpha+1) Gamma_{q^2}(p)) * (t^2 q^2; q^2)_{p-1}

    normalized so that
    j_{alpha+p}(y) = int_0^1 W_{p-1}(t) j_alpha(yt) t^(2*alpha+1) d_q t
    holds identically; at y = 0 the weight integrates to 1 against
    t^(2*alpha+1) d_q t.  t may be an array, evaluated elementwise with the
    constant computed once; a scalar t gives a float.
    """
    if not isinstance(p, (int, np.integer)) or p < 1:
        raise QDomainError(f"sonine_weight needs p >= 1, an integer, got {p!r}")
    t = np.asarray(t, dtype=float)
    if not np.all((0.0 <= t) & (t <= 1.0)):
        raise QDomainError(f"sonine_weight needs t in [0, 1], got {t}")
    q = params.q
    alpha = params.alpha
    q2 = q * q
    const = (1.0 + q) * qgamma_base(alpha + p + 1.0, q2) / (
        qgamma_base(alpha + 1.0, q2) * qgamma_base(float(p), q2)
    )
    prod = np.ones_like(t)
    for k in range(p - 1):
        prod *= 1.0 - t * t * q2 ** (k + 1)
    return float(const * prod) if t.ndim == 0 else const * prod
