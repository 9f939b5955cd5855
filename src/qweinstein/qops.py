"""Discrete operator calculus on lattice grid functions.

Grid functions live on the product of the signed lattice {+-q^n1} (first
variable) and the positive lattice {q^n2} (second variable), with a parity
flag describing the even extension across x2 = 0.  All operators are pure:
they return new GridFunction instances.

Every stencil takes the raw samples and reads zeros outside them; each
symmetric q-derivative application contaminates one boundary layer of the
exponent window in the affected variable, which the window records as
taint.  Results should only be trusted on the untainted interior.  The
Weinstein step _weinstein_array is D_x^2 + B, taken on a block of shells
by slicing the samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .qcore import LatticePoint, QDomainError, QParams, TaintError

EVEN = "even"
ODD = "odd"
_FLIP = {EVEN: ODD, ODD: EVEN}


@dataclass(frozen=True)
class LatticeWindow:
    """Exponent window [n1_min, n1_max] x [n2_min, n2_max] plus taint layers, which == ignores."""

    n1_min: int
    n1_max: int
    n2_min: int
    n2_max: int
    taint_x: int = field(default=0, compare=False)   # layers at each end of the n1 axis
    taint_y: int = field(default=0, compare=False)   # and of the n2 axis

    def __post_init__(self):
        if not all(isinstance(b, (int, np.integer)) for b in (
                self.n1_min, self.n1_max, self.n2_min, self.n2_max, self.taint_x, self.taint_y)):
            raise QDomainError(f"LatticeWindow needs integer bounds and taint layers, got {self!r}")
        if self.n1_min > self.n1_max or self.n2_min > self.n2_max:
            raise QDomainError("LatticeWindow needs n_min <= n_max in both variables")
        if min(self.taint_x, self.taint_y) < 0:
            raise QDomainError("taint layers must be >= 0")

    @property
    def shape(self) -> tuple[int, int, int]:
        return (2, self.n1_max - self.n1_min + 1, self.n2_max - self.n2_min + 1)

    def tainted_more(self, dx: int = 0, dy: int = 0) -> "LatticeWindow":
        return replace(self, taint_x=self.taint_x + dx, taint_y=self.taint_y + dy)

    def untainted_slices(self) -> tuple[slice, slice]:
        """Index slices (along n1 and n2 axes) of the trustworthy interior."""
        _, nn1, nn2 = self.shape
        s1 = slice(self.taint_x, nn1 - self.taint_x)
        s2 = slice(self.taint_y, nn2 - self.taint_y)
        if s1.stop <= s1.start or s2.stop <= s2.start:
            raise TaintError("window fully tainted: no untainted interior left")
        return s1, s2

    def n1_exponents(self) -> np.ndarray:
        return np.arange(self.n1_min, self.n1_max + 1)

    def n2_exponents(self) -> np.ndarray:
        return np.arange(self.n2_min, self.n2_max + 1)


def require_finite(samples: np.ndarray) -> None:
    """QDomainError unless every real and imaginary part of the complex samples is finite."""
    if not np.all(np.isfinite(samples.view(np.float64))):
        raise QDomainError("samples must be finite (no NaN/Inf)")


@dataclass(frozen=True)
class GridFunction:
    """Complex samples on a lattice window; axis 0 is the sign of x1 (+, -)."""

    params: QParams
    window: LatticeWindow
    parity_y: str
    samples: np.ndarray

    def __post_init__(self):
        if self.parity_y not in (EVEN, ODD):
            raise QDomainError(f"parity_y must be 'even' or 'odd', got {self.parity_y}")
        arr = np.ascontiguousarray(self.samples, dtype=np.complex128)
        if arr.shape != self.window.shape:
            raise QDomainError(f"samples shape {arr.shape} != window shape {self.window.shape}")
        require_finite(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    # -- coordinate helpers ------------------------------------------------
    def x1_values(self) -> np.ndarray:
        """Array (2, N1): row 0 is +q^n1, row 1 is -q^n1."""
        q = self.params.q
        mag = q ** self.window.n1_exponents().astype(float)
        return np.stack([mag, -mag])

    def x2_values(self) -> np.ndarray:
        q = self.params.q
        return q ** self.window.n2_exponents().astype(float)

    def with_samples(self, samples: np.ndarray, window: LatticeWindow | None = None,
                     parity_y: str | None = None) -> "GridFunction":
        return GridFunction(
            params=self.params,
            window=self.window if window is None else window,
            parity_y=self.parity_y if parity_y is None else parity_y,
            samples=samples,
        )

    @staticmethod
    def zeros(params: QParams, window: LatticeWindow) -> "GridFunction":
        return GridFunction(params, window, EVEN, np.zeros(window.shape, dtype=np.complex128))


# ---------------------------------------------------------------------------
# pointwise (callable) operators
# ---------------------------------------------------------------------------

def dq_1d(f: Callable[[float], complex], at: LatticePoint, params: QParams) -> complex:
    """Rubin symmetric q-derivative of a callable at a nonzero lattice point.

    [f(z/q) + f(-z/q) - f(qz) + f(-qz) - 2 f(-z)] / (2 (1-q) z).
    """
    q = params.q
    z = at.value(q)
    return (f(z / q) + f(-z / q) - f(q * z) + f(-q * z) - 2.0 * f(-z)) / (2.0 * (1.0 - q) * z)


def even_odd_split(f: Callable[[float], complex]):
    """Return (f_even, f_odd) callables with f = f_even + f_odd exactly."""

    def fe(z):
        return 0.5 * (f(z) + f(-z))

    def fo(z):
        return 0.5 * (f(z) - f(-z))

    return fe, fo


# ---------------------------------------------------------------------------
# grid operators
# ---------------------------------------------------------------------------

def _pad(s: np.ndarray, axis: int) -> np.ndarray:
    """s with a zero shell at both ends of axis (1: n1, 2: n2): its [:-2], [2:] read n-1, n+1."""
    shape = list(s.shape)
    shape[axis] += 2
    out = np.zeros(shape, dtype=s.dtype)
    out[(slice(None),) * axis + (slice(1, -1),)] = s
    return out


def _dx_array(s: np.ndarray, q: float, x1: np.ndarray) -> np.ndarray:
    """Symmetric q-derivative along variable 1 of raw samples s; x1 is the (2, N1) signed grid."""
    p = _pad(s, 1)
    flipped = p[::-1]
    num = (
        p[:, :-2]                   # f(z/q): exponent n1-1
        + flipped[:, :-2]           # f(-z/q)
        - p[:, 2:]                  # f(qz)
        + flipped[:, 2:]            # f(-qz)
        - 2.0 * flipped[:, 1:-1]    # f(-z)
    )
    return num / (2.0 * (1.0 - q) * x1[:, :, None])


def _dy_array(s: np.ndarray, q: float, y: np.ndarray, parity_y: str) -> np.ndarray:
    """Symmetric q-derivative along variable 2 of raw samples of the given parity; y is
    the (N2,) grid.  The result has the other parity."""
    p = _pad(s, 2)   # even: f(y/q) - f(y); odd: f(y) - f(qy)
    num = p[:, :, :-2] - s if parity_y == EVEN else s - p[:, :, 2:]
    return num / ((1.0 - q) * y)


def _bessel_array(s: np.ndarray, params: QParams, y: np.ndarray) -> np.ndarray:
    """Conjugated q-Bessel stencil of raw even samples s; y is the (N2,) second-variable grid."""
    q = params.q
    q2a = q ** (2.0 * params.alpha)
    p = _pad(s, 2)
    num = p[:, :, :-2] - (1.0 + q2a) * s + q2a * p[:, :, 2:]
    return num / ((1.0 - q) ** 2 * y * y)


def _weinstein_array(s: np.ndarray, params: QParams, x1: np.ndarray, y: np.ndarray,
                     c1: int, c2: int) -> np.ndarray:
    """One Weinstein step d^2/dx1^2 + Bessel_y of raw even samples s, on the block of their
    first c1 shells in n1 and c2 in n2; x1 (2, N1) and y (N2,) are the grids of s.  The
    block reads 2 shells past it in n1 and 1 in n2, so it is the whole-window step of
    that slice of s, cut to the block."""
    b, x1, y, q = s[:, :c1 + 2, :c2 + 1], x1[:, :c1 + 2], y[:c2 + 1], params.q
    return (_dx_array(_dx_array(b, q, x1), q, x1) + _bessel_array(b, params, y))[:, :c1, :c2]


def _derivative(f: GridFunction, beta: tuple[int, int]) -> GridFunction:
    """(d/d x1)^beta1 (d/d x2)^beta2 of f's samples, beta >= 0 and not (0, 0)."""
    b1, b2 = beta
    s, parity, q = f.samples, f.parity_y, f.params.q
    x1, y = (f.x1_values() if b1 else None), (f.x2_values() if b2 else None)
    for _ in range(b1):
        s = _dx_array(s, q, x1)
    for _ in range(b2):
        s, parity = _dy_array(s, q, y, parity), _FLIP[parity]
    return f.with_samples(s, window=f.window.tainted_more(dx=b1, dy=b2), parity_y=parity)


def dq_partial(f: GridFunction, var: int) -> GridFunction:
    """Symmetric q-derivative along variable 1 (signed) or 2 (positive, parity-aware).

    Along variable 2 the parity flag flips: the derivative of an even
    function is odd and vice versa.
    """
    if var not in (1, 2):
        raise QDomainError(f"var must be 1 or 2, got {var}")
    return _derivative(f, (1, 0) if var == 1 else (0, 1))


def dq_mixed(f: GridFunction, beta: tuple[int, int]) -> GridFunction:
    """D_q^beta = (d/d x1)^beta1 (d/d x2)^beta2, applied to the samples; (0, 0) returns f."""
    b1, b2 = beta
    if not all(isinstance(b, (int, np.integer)) for b in beta) or b1 < 0 or b2 < 0:
        raise QDomainError(f"derivative orders must be >= 0, integers, got {beta!r}")
    g = _derivative(f, beta) if b1 or b2 else f
    g.window.untainted_slices()   # raises TaintError if nothing survives
    return g


def dq_ladder(f: GridFunction, step: Callable[[GridFunction], GridFunction], count: int):
    """f, step(f), step(step(f)), ...: count + 1 rungs, each one step from the last."""
    yield f
    for _ in range(count):
        f = step(f)
        yield f


def bessel_op(f: GridFunction) -> GridFunction:
    """q-Bessel operator in the second variable (conjugated form).

    For f even in x2 the weight |y|^(2a+1) cancels analytically and the
    operator collapses to the one-shell stencil
    [f(y/q) - (1 + q^(2a)) f(y) + q^(2a) f(qy)] / ((1-q)^2 y^2),
    so no large weights are ever formed.
    """
    if f.parity_y != EVEN:
        raise QDomainError("bessel_op requires even parity in the second variable")
    out = _bessel_array(f.samples, f.params, f.x2_values())
    return f.with_samples(out, window=f.window.tainted_more(dy=2))


def weinstein_op(f: GridFunction, n: int = 1) -> GridFunction:
    """n-fold q-Weinstein operator: (d^2/dx1^2 + Bessel_y)^n, n = 0 is identity."""
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise QDomainError(f"weinstein_op needs n >= 0, an integer, got {n!r}")
    if f.parity_y != EVEN:
        raise QDomainError("weinstein_op requires even parity")
    samples, window = f.samples, f.window
    x1, y = f.x1_values(), f.x2_values()
    for _ in range(n):
        samples = _weinstein_array(samples, f.params, x1, y, *samples.shape[1:])
        window = window.tainted_more(dx=2, dy=2)
        window.untainted_slices()   # taint budget check
    return f.with_samples(samples, window=window) if n else f
