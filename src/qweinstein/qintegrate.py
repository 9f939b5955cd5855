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

from .qcore import DEFAULT_POLICY, DivergenceError, QDomainError, QParams, TruncationPolicy
from .qops import EVEN, GridFunction, LatticeWindow


@dataclass(frozen=True)
class IntegralResult:
    """Value of a truncated lattice sum together with its tail estimate."""

    value: complex
    tail: float


def neumaier_sum(terms: np.ndarray) -> complex:
    """Correctly rounded sum (math.fsum) of the real and the imaginary parts."""
    arr = np.asarray(terms, dtype=np.complex128).ravel()
    return complex(math.fsum(arr.real), math.fsum(arr.imag))


def jackson_0_to_a(f: Callable[[float], complex], a: float, params: QParams,
                   policy: TruncationPolicy = DEFAULT_POLICY) -> IntegralResult:
    """Jackson integral from 0 to a > 0: (1-q) a sum_{n>=0} q^n f(a q^n)."""
    if a <= 0:
        raise QDomainError(f"jackson_0_to_a needs a > 0, got {a}")
    q = params.q
    n_hi = max(policy.n_max, 8)
    terms = []
    for n in range(0, n_hi + 1):
        terms.append((1.0 - q) * a * q**n * f(a * q**n))
    terms = np.asarray(terms, dtype=np.complex128)
    total = neumaier_sum(terms)
    scale = max(np.max(np.abs(terms)), abs(total), 1e-300)
    last = abs(terms[-1])
    # the lattice value a q^n -> 0, so |f| bounded near 0 gives a geometric tail
    tail = last * q / (1.0 - q)
    if last > 1e-10 * scale and abs(terms[-1]) > abs(terms[max(0, n_hi - 4)]):
        raise DivergenceError("jackson_0_to_a: terms not decaying at the window edge")
    return IntegralResult(value=total, tail=float(tail))


def jackson_signed_line(f: Callable[[float], complex], params: QParams,
                        policy: TruncationPolicy = DEFAULT_POLICY) -> IntegralResult:
    """Two-sided Jackson integral over {+-q^n}: (1-q) sum_n q^n [f(q^n) + f(-q^n)]."""
    q = params.q
    terms = []
    outer = []
    for n in range(policy.n_min, policy.n_max + 1):
        t = (1.0 - q) * q**n * (f(q**n) + f(-(q**n)))
        terms.append(t)
        if n <= policy.n_min + 2:
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

    Entry (s, i1, i2) is (1-q)^2 q^n1 q^(n2 (2a+2)); kept in float64, with
    log-space fallbacks in the norm helpers for deep windows; read-only.
    """
    return np.broadcast_to(mu_table(f.window, f.params), f.window.shape)


def log_mu_weights(f: GridFunction) -> np.ndarray:
    """Log of the mu_weights entries, computed directly so deep windows cannot overflow."""
    return np.broadcast_to(log_mu_table(f.window, f.params), f.window.shape)


def mu_table(window: LatticeWindow, params: QParams) -> np.ndarray:
    """The (N1, N2) table of mu weights on a window, which both signs of x1 share.

    Memoized, read-only, on the window's extents (not its taint) and params.
    """
    return _mu_table(window.n1_min, window.n1_max, window.n2_min, window.n2_max, params)


@functools.lru_cache(maxsize=8)
def _mu_table(n1_min: int, n1_max: int, n2_min: int, n2_max: int, params: QParams) -> np.ndarray:
    table = np.exp(log_mu_table(LatticeWindow(n1_min, n1_max, n2_min, n2_max), params))
    table.flags.writeable = False
    return table


def log_mu_table(window: LatticeWindow, params: QParams) -> np.ndarray:
    """Log of the mu_table entries."""
    q = params.q
    n1 = window.n1_exponents().astype(float)
    n2 = window.n2_exponents().astype(float)
    return (2.0 * math.log1p(-q) + n1[:, None] * math.log(q)
            + n2[None, :] * (2.0 * params.alpha + 2.0) * math.log(q))


def edge_shell_mass(mass: np.ndarray, depth: int = 0) -> list[float]:
    """Mass on the shell `depth` steps in from each window edge.

    Entries follow the edges low n1, high n1, low n2, high n2; ``mass`` is a
    nonnegative array over a window, axis 0 being the sign of x1.  A shell
    that the window does not have (depth past its width) has zero mass.
    """
    _, n1, n2 = mass.shape
    return [float(mass[:, depth, :].sum()) if depth < n1 else 0.0,
            float(mass[:, -1 - depth, :].sum()) if depth < n1 else 0.0,
            float(mass[:, :, depth].sum()) if depth < n2 else 0.0,
            float(mass[:, :, -1 - depth].sum()) if depth < n2 else 0.0]


def integrate_mu(f: GridFunction) -> IntegralResult:
    """Double Jackson integral of f against x2^(2a+1) d_q x1 d_q x2.

    Exact (up to rounding) for compactly supported grid functions whose
    support the window contains; the tail estimate is the edge-shell mass.
    """
    if f.parity_y != EVEN:
        raise QDomainError("integrate_mu requires even parity in x2")
    weighted = f.samples * mu_weights(f)
    return IntegralResult(value=neumaier_sum(weighted),
                          tail=sum(edge_shell_mass(np.abs(weighted))))


def log_sum_exp(logs: np.ndarray) -> float:
    """log(sum(exp(logs))), shifted by the max so no term overflows; -inf if empty."""
    if logs.size == 0:
        return -math.inf
    m = float(np.max(logs))
    return m + math.log(float(np.sum(np.exp(logs - m))))


def _log_power_sum(values: np.ndarray, logw: np.ndarray, p: float) -> float:
    """log of sum |values|^p * exp(logw) over the nonzero values."""
    absv = np.abs(values)
    mask = absv > 0.0
    return log_sum_exp(p * np.log(absv[mask]) + logw[mask])


def lp_norm(f: GridFunction, p: float) -> float:
    """L^p norm against the weighted measure; p = inf is the sup over samples."""
    if p == math.inf:
        return float(np.max(np.abs(f.samples)))
    if p <= 0:
        raise QDomainError(f"lp_norm needs p > 0 or inf, got {p}")
    return math.exp(_log_power_sum(f.samples, log_mu_weights(f), p) / p)


def log_l2_norm_sq(values: np.ndarray, logw: np.ndarray) -> float:
    """log of sum |values|^2 * exp(logw); -inf for identically zero input."""
    return _log_power_sum(values, logw, 2.0)
