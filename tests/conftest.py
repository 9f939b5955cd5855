import numpy as np
import pytest

from qweinstein import QDomainError, QParams, qspecial, transform
from qweinstein.qops import EVEN, GridFunction, LatticeWindow, dq_partial
from qweinstein.cli import random_even_bump
from qweinstein.qcore import aligned_q

# q = 1/2 (aligned exactly), a near-aligned root and two misaligned q
FOUR_Q = (0.5, aligned_q(2), 0.7, 0.9)


@pytest.fixture
def p05():
    return QParams(q=0.5, alpha=0.5)


@pytest.fixture
def p05a0():
    return QParams(q=0.5, alpha=0.0)


def make_bump(params, seed=1, lo1=-1, hi1=3, lo2=-1, hi2=3, pad=1):
    return random_even_bump(params, LatticeWindow(lo1, hi1, lo2, hi2), seed, pad=pad)


def clear_family_memos():
    """Empty every memo of qspecial, and transform's kernel memo, so that the next
    family request computes afresh."""
    for fn in vars(qspecial).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()
    transform._kernel_matrices.cache_clear()


def dilated(f):
    """g(x) = f(x / q): f's samples on the window one shell deeper in both exponents."""
    w = f.window
    return f.with_samples(f.samples, window=LatticeWindow(w.n1_min + 1, w.n1_max + 1,
                                                          w.n2_min + 1, w.n2_max + 1))


@pytest.fixture
def bump(p05):
    return make_bump(p05, seed=7)


def rel_err(a, b):
    a = complex(a)
    b = complex(b)
    return abs(a - b) / max(abs(b), 1e-300)


def max_rel(arr_a: np.ndarray, arr_b: np.ndarray) -> float:
    den = float(np.max(np.abs(arr_b)))
    if den == 0.0:
        return float(np.max(np.abs(arr_a)))
    return float(np.max(np.abs(arr_a - arr_b))) / den


def from_callable(params, window, fn, parity_y=EVEN) -> GridFunction:
    """The grid function with samples fn(x1, x2) at every point of the window,
    one call per point."""
    q = params.q
    x1m = q ** window.n1_exponents().astype(float)
    x2 = q ** window.n2_exponents().astype(float)
    arr = np.empty(window.shape, dtype=np.complex128)
    for s, sgn in ((0, 1.0), (1, -1.0)):
        for i, v1 in enumerate(x1m):
            for j, v2 in enumerate(x2):
                arr[s, i, j] = fn(sgn * v1, v2)
    return GridFunction(params, window, parity_y, arr)


def bessel_op_expanded(f: GridFunction) -> GridFunction:
    """Expanded form q^(2a+1) d2f/dy2 + [2a+1]_q (1/y) df/dy of the q-Bessel operator.

    Algebraically identical to qops.bessel_op's conjugated form on even
    functions; an independent floating-point path for cross-checking it.
    """
    if f.parity_y != EVEN:
        raise QDomainError("bessel_op_expanded requires even parity")
    q = f.params.q
    alpha = f.params.alpha
    d1 = dq_partial(f, 2)
    d2 = dq_partial(d1, 2)
    bracket = (1.0 - q ** (2.0 * alpha + 1.0)) / (1.0 - q)
    y = f.x2_values()[None, None, :]
    # d1 lives on a window tainted once; align shapes (same index grid)
    samples = q ** (2.0 * alpha + 1.0) * d2.samples + bracket * d1.samples / y
    return f.with_samples(samples, window=d2.window)
