"""Scalar q-calculus primitives: q-shifted factorials, q-brackets, q-Gamma.

Everything here is a pure function of its inputs.  The deformation
parameter lives in 0 < q < 1, so every infinite product encountered has
factors 1 - x*q^k with |x*q^k| -> 0 geometrically; truncation at
|x*q^k| < PRODUCT_TOL leaves a tail bounded by a geometric series.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass


class QDomainError(ValueError):
    """Input outside the valid domain (bad q, bad alpha, bad window...)."""


class PoleError(QDomainError):
    """q-Gamma evaluated at a pole (x = 0, -1, -2, ...)."""


class DivergenceError(ArithmeticError):
    """An infinite lattice sum failed its convergence / tail test."""


class TaintError(ArithmeticError):
    """A lattice operation exhausted the untainted interior of its window."""


@dataclass(frozen=True)
class QParams:
    """Deformation parameter q and Bessel index alpha, validated on creation."""

    q: float
    alpha: float

    def __post_init__(self):
        if not (0.0 < self.q < 1.0):
            raise QDomainError(f"q must satisfy 0 < q < 1, got {self.q}")
        if not -0.5 <= self.alpha < math.inf:
            raise QDomainError(f"alpha must be finite and >= -1/2, got {self.alpha}")


@dataclass(frozen=True)
class LatticePoint:
    """One point sign * q**exponent of the signed geometric lattice."""

    sign: int
    exponent: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise QDomainError(f"sign must be +1 or -1, got {self.sign}")

    def value(self, q: float) -> float:
        return self.sign * q**self.exponent


# infinite products stop once the factor is within PRODUCT_TOL of 1
PRODUCT_TOL = 1e-16


def qshifted(x: complex, n, params: QParams) -> complex:
    """q-shifted factorial (x; q)_n, with n a natural number or math.inf.

    The infinite product is truncated once |x q^k| < PRODUCT_TOL; the
    dropped tail changes the log of the product by at most a geometric
    series of the same size.
    """
    q = params.q
    if n == math.inf:
        prod = 1.0 + 0.0j if isinstance(x, complex) else 1.0
        term = x
        # geometric decay: at most ~log(PRODUCT_TOL)/log(q) factors
        while abs(term) >= PRODUCT_TOL:
            prod = prod * (1.0 - term)
            term = term * q
        return prod
    if not isinstance(n, numbers.Integral) or n < 0:
        raise QDomainError(f"n must be a natural number or inf, got {n!r}")
    prod = 1.0 + 0.0j if isinstance(x, complex) else 1.0
    for k in range(n):
        prod = prod * (1.0 - x * q**k)
    return prod


def qbracket(x: float, params: QParams) -> float:
    """[x]_q = (1 - q^x) / (1 - q)."""
    q = params.q
    return (1.0 - q**x) / (1.0 - q)


def qfactorial(n: int, params: QParams) -> float:
    """[n]_q! = (q; q)_n / (1 - q)^n, computed as a running product of brackets."""
    if not isinstance(n, numbers.Integral) or n < 0:
        raise QDomainError(f"qfactorial needs n >= 0, got {n!r}; n must be an integer")
    out = 1.0
    for k in range(1, n + 1):
        out *= qbracket(k, params)
    return out


@functools.lru_cache(maxsize=256)
def qgamma(x: float, params: QParams) -> float:
    """q-Gamma via the quotient of infinite products.

    Gamma_q(x) = (q; q)_inf / (q^x; q)_inf * (1-q)^(1-x), poles at the
    nonpositive integers are rejected explicitly.  Memoized on
    (x, params): callers ask for the same few values many times.
    """
    q = params.q
    if x <= 0 and float(x).is_integer():
        raise PoleError(f"Gamma_q has a pole at x = {x}")
    if q < 0.997:   # (q; q)_inf leaves the normal float range from about q = 0.9977 on
        num = qshifted(q, math.inf, params)
        den = qshifted(math.exp(x * math.log(q)), math.inf, params)
        return num / den * (1.0 - q) ** (1.0 - x)

    def log_factors(a: float, sign: float):   # sign * log|1 - q^(a+k)|, k = 0, 1, ...
        k = 0
        while (t := q ** (a + k)) >= PRODUCT_TOL:
            yield sign * (math.log1p(-t) if t < 1.0 else math.log(t - 1.0))
            k += 1

    # near q = 1 the quotient is one correctly rounded sum of the logs of all the factors,
    # each factor's power taken afresh, so that equal powers in both cancel exactly
    logs = math.fsum(itertools.chain([(1.0 - x) * math.log1p(-q)], log_factors(1.0, 1.0),
                                     log_factors(x, -1.0)))
    # the factors 1 - q^(x+k) with x + k < 0 are negative
    return (-1.0) ** max(0, math.ceil(-x)) * math.exp(logs)


def qgamma_base(x: float, base_q: float) -> float:
    """Gamma computed in an explicit base (used with base q^2 throughout)."""
    return qgamma(x, QParams(q=base_q, alpha=0.0))


@functools.lru_cache(maxsize=64)
def lattice_alignment(q: float) -> tuple[float, int | None]:
    """Distance of q from the lattice-aligned set 1 - q = q^j, j = 1, 2, ...

    Returns (epsilon, j) with epsilon = min_j |1 - q - q^j| and the
    minimizing j.  Alignment controls how deep down the lattice the
    kernel families keep decaying: the theta factor driving
    j_alpha(q^-k; q^2) only cancels when (1-q)^2 lands exactly on the
    base lattice q^(2Z).  At q = 1/2 the alignment is exact in binary
    floating point; at other aligned roots (1 - q = q^j rounded to
    double) the residual epsilon limits the usable depth to roughly
    sqrt(ln(1/epsilon) / (2 ln(1/q))) shells.  Memoized on q: the kernel
    families and the checks ask for the same few q many times.
    """
    target = 1.0 - q
    best = math.inf
    best_j = None
    p = 1.0
    for j in range(1, 400):
        p *= q
        d = abs(target - p)
        if d < best:
            best = d
            best_j = j
        if p < target * 0.5 and d > best:
            break
    return best, best_j


def aligned_q(j: int) -> float:
    """The root of q^j + q - 1 = 0 in (0,1), to double precision.

    These are the deformation parameters where the lattice kernel
    families decay superexponentially; j = 1 gives exactly 1/2.
    """
    if not isinstance(j, numbers.Integral) or j < 1:
        raise QDomainError(f"aligned_q needs j >= 1, an integer, got {j!r}")
    if j == 1:
        return 0.5
    x = 1.0 - 1.0 / (j + 1)
    for _ in range(80):
        f = x**j + x - 1.0
        fp = j * x ** (j - 1) + 1.0
        step = f / fp
        x -= step
        if abs(step) < 1e-17:
            break
    return x
