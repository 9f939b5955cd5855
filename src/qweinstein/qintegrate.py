"""Jackson q-integration and weighted L^p norms on the lattice.

Integrals are (in)finite weighted sums over geometric lattices.  Terms are
summed with correct rounding (math.fsum) because the weights span many
orders of magnitude; every integral reports a tail estimate alongside its
value instead of silently truncating.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .qcore import DivergenceError, QDomainError, QParams
from .qops import EVEN, GridFunction, LatticeWindow


@dataclass(frozen=True)
class IntegralResult:
    """Value of a truncated lattice sum together with its tail estimate."""

    value: complex
    tail: float


# lattice exponent window of the infinite Jackson sums
N_MIN, N_MAX = -40, 120
# largest x with exp(x) finite in float64
_LOG_MAX = math.log(np.finfo(np.float64).max)


def neumaier_sum(terms: np.ndarray) -> complex:
    """Correctly rounded sum (math.fsum) of the real and the imaginary parts."""
    arr = np.asarray(terms, dtype=np.complex128).ravel()
    return complex(math.fsum(arr.real), math.fsum(arr.imag))


def jackson_0_to_a(f: Callable[[float], complex], a: float, params: QParams) -> IntegralResult:
    """Jackson integral from 0 to a > 0: (1-q) a sum_{n>=0} q^n f(a q^n)."""
    if not 0 < a < math.inf:
        raise QDomainError(f"jackson_0_to_a needs a > 0, got {a}; a must be finite")
    q = params.q
    terms = []
    for n in range(0, N_MAX + 1):
        terms.append((1.0 - q) * a * q**n * f(a * q**n))
    terms = np.asarray(terms, dtype=np.complex128)
    total = neumaier_sum(terms)
    scale = max(np.max(np.abs(terms)), abs(total), 1e-300)
    last = abs(terms[-1])
    # the lattice value a q^n -> 0, so |f| bounded near 0 gives a geometric tail
    tail = last * q / (1.0 - q)
    if last > 1e-10 * scale and last > abs(terms[-5]):
        raise DivergenceError("jackson_0_to_a: terms not decaying at the window edge")
    return IntegralResult(value=total, tail=float(tail))


def jackson_signed_line(f: Callable[[float], complex], params: QParams) -> IntegralResult:
    """Two-sided Jackson integral over {+-q^n}: (1-q) sum_n q^n [f(q^n) + f(-q^n)]."""
    q = params.q
    terms = []
    outer = []
    for n in range(N_MIN, N_MAX + 1):
        t = (1.0 - q) * q**n * (f(q**n) + f(-(q**n)))
        terms.append(t)
        if n <= N_MIN + 2:
            outer.append(abs(t))
    terms = np.asarray(terms, dtype=np.complex128)
    total = neumaier_sum(terms)
    scale = max(np.max(np.abs(terms)), abs(total), 1e-300)
    # Cauchy test at the outer (large |x|) edge
    if max(outer) > 1e-9 * scale:
        raise DivergenceError("jackson_signed_line: outer-edge terms too large "
                              f"(edge/scale = {max(outer) / scale:.2e}); grow the window")
    inner = abs(terms[-1])
    tail = float(max(outer) * 2.0 + inner * q / (1.0 - q))
    return IntegralResult(value=total, tail=tail)


# ---------------------------------------------------------------------------
# grid-function integrals
# ---------------------------------------------------------------------------

def mu_weights(f: GridFunction) -> np.ndarray:
    """Weight array of the measure x2^(2a+1) d_q x1 d_q x2 on f's window.

    Entry (s, i1, i2) is (1-q)^2 q^n1 q^(n2 (2a+2)); kept in float64; read-only.
    """
    return np.broadcast_to(mu_table(f.window, f.params), f.window.shape)


def log_mu_weights(f: GridFunction) -> np.ndarray:
    """Log of the mu_weights entries, computed directly so deep windows cannot overflow."""
    return np.broadcast_to(log_mu_table(f.window, f.params), f.window.shape)


@functools.lru_cache(maxsize=8)
def mu_table(window: LatticeWindow, params: QParams) -> np.ndarray:
    """The (N1, N2) table of mu weights on a window, which both signs of x1 share.

    Memoized, read-only, on the window (its extents: taint is not compared) and params.
    """
    logs = log_mu_table(window, params)
    if logs[0, 0] > _LOG_MAX:   # the largest weight, at the corner of the outermost shells
        raise DivergenceError(
            f"the mu weights overflow on the window n1=[{window.n1_min},{window.n1_max}] "
            f"n2=[{window.n2_min},{window.n2_max}] at q={params.q!r}, alpha={params.alpha!r}: "
            f"the largest is e^{logs[0, 0]:.0f}, past the float64 range")
    table = np.exp(logs)
    table.flags.writeable = False
    return table


def log_mu_table(window: LatticeWindow, params: QParams) -> np.ndarray:
    """Log of the mu_table entries."""
    q = params.q
    n1 = window.n1_exponents().astype(float)
    n2 = window.n2_exponents().astype(float)
    return (2.0 * math.log1p(-q) + n1[:, None] * math.log(q)
            + n2[None, :] * (2.0 * params.alpha + 2.0) * math.log(q))


def shell_masses(mass: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-shell sums of a nonnegative (2, N1, N2) mass over a window, axis 0 the sign of x1.

    Four arrays, each read from one window edge inward: low n1, high n1, low
    n2, high n2.  A corner cell counts in one n1 shell and one n2 shell.
    """
    both = mass[0] + mass[1]
    m1, m2 = both.sum(axis=1), both.sum(axis=0)
    return m1, m1[::-1], m2, m2[::-1]


def edge_cut(window: LatticeWindow, mass: np.ndarray, budget: float,
             keep: int) -> tuple[LatticeWindow, tuple[slice, slice]]:
    """window without the shells cut from each edge, and the (n1, n2) index slices of
    what stays: from each edge the longest run of shells whose cumulative mass stays
    within budget, never one of the last keep shells read from that edge."""
    lo1, hi1, lo2, hi2 = (int(np.searchsorted(np.cumsum(m[:-keep]), budget, side="right"))
                          for m in shell_masses(mass))
    _, n1, n2 = mass.shape
    return (LatticeWindow(window.n1_min + lo1, window.n1_max - hi1,
                          window.n2_min + lo2, window.n2_max - hi2),
            (slice(lo1, n1 - hi1), slice(lo2, n2 - hi2)))


def integrate_mu(f: GridFunction) -> IntegralResult:
    """Double Jackson integral of f against x2^(2a+1) d_q x1 d_q x2.

    Exact (up to rounding) for compactly supported grid functions whose
    support the window contains; the tail estimate is the edge-shell mass.
    """
    if f.parity_y != EVEN:
        raise QDomainError("integrate_mu requires even parity in x2")
    weighted = f.samples * mu_weights(f)
    return IntegralResult(value=neumaier_sum(weighted),
                          tail=sum(float(m[0]) for m in shell_masses(np.abs(weighted))))


def _log_power_sum(absv: np.ndarray, logw: np.ndarray, p: float) -> float:
    """log of sum absv^p * exp(logw) over the nonzero entries of absv = |values|, shifted
    by the largest term so none overflows; -inf if no entry is nonzero."""
    if absv.all():   # no zero to leave out: no gathers, the same terms in the same order
        logs = np.log(absv)
        logs *= p
        logs += logw
    else:
        mask = absv > 0.0
        logs = p * np.log(absv[mask]) + logw[mask]
    if logs.size == 0:
        return -math.inf
    m = float(logs.max())
    logs -= m
    return m + math.log(float(np.exp(logs, out=logs).sum()))


def lp_norm(f: GridFunction, p: float) -> float:
    """L^p norm against the weighted measure; p = inf is the sup over samples."""
    if p == math.inf:
        return float(np.max(np.abs(f.samples)))
    if not p > 0:
        raise QDomainError(f"lp_norm needs p > 0 or inf, got {p}")
    return math.exp(_log_power_sum(np.abs(f.samples), log_mu_weights(f), p) / p)


def log_l2_norm_sq(values: np.ndarray, logw: np.ndarray) -> float:
    """log of sum |values|^2 * exp(logw); -inf for identically zero input."""
    return _log_power_sum(np.abs(values), logw, 2.0)
