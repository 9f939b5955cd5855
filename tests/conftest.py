import numpy as np
import pytest

from qweinstein import QParams
from qweinstein.qops import LatticeWindow
from qweinstein.cli import random_even_bump


@pytest.fixture
def p05():
    return QParams(q=0.5, alpha=0.5)


@pytest.fixture
def p05a0():
    return QParams(q=0.5, alpha=0.0)


def make_bump(params, seed=1, lo1=-1, hi1=3, lo2=-1, hi2=3, pad=1):
    return random_even_bump(params, LatticeWindow(lo1, hi1, lo2, hi2), seed, pad=pad)


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
