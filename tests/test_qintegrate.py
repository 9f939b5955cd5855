import math

import numpy as np
import pytest

from qweinstein import (
    DivergenceError,
    GridFunction,
    LatticeWindow,
    QDomainError,
    QParams,
    integrate_mu,
    jackson_0_to_a,
    jackson_signed_line,
    lp_norm,
    neumaier_sum,
)
from qweinstein.qintegrate import N_MAX, N_MIN
from qweinstein.qops import EVEN

from .conftest import make_bump


def test_neumaier_vs_math_fsum():
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(500) * np.logspace(-12, 12, 500)
    got = neumaier_sum(vals.astype(complex))
    ref = math.fsum(vals)
    assert abs(got.real - ref) <= 1e-12 * max(abs(ref), np.max(np.abs(vals)) * 1e-15)


def test_jackson_constant_integrates_to_a():
    p = QParams(q=0.5, alpha=0.0)
    for a in (1.0, 0.25, 4.0):
        r = jackson_0_to_a(lambda x: 1.0, a, p)
        assert abs(complex(r.value) - a) < 1e-13 * a


def test_jackson_linear_weight():
    # integral of x over (0,1) is 1/(1+q); the window truncation error at
    # q close to 1 must stay within the reported tail
    for q in (0.5, 0.7, 0.9):
        p = QParams(q=q, alpha=0.0)
        r = jackson_0_to_a(lambda x: x, 1.0, p)
        assert abs(complex(r.value) - 1 / (1 + q)) < max(1e-13, r.tail)


def test_jackson_linearity_exact():
    p = QParams(q=0.5, alpha=0.0)
    f = lambda x: x * x - 0.3 * x
    a1 = complex(jackson_0_to_a(lambda x: 2 * f(x), 1.0, p).value)
    a2 = complex(jackson_0_to_a(f, 1.0, p).value)
    assert a1 == pytest.approx(2 * a2, abs=1e-15)


def test_signed_line_odd_vanishes():
    p = QParams(q=0.5, alpha=0.0)
    r = jackson_signed_line(lambda x: x * np.exp(-abs(x)) if abs(x) < 8 else 0.0, p)
    assert abs(complex(r.value)) < 1e-14


def test_signed_line_indicator():
    p = QParams(q=0.5, alpha=0.0)
    q = p.q
    m = 3

    def ind(x):
        return 1.0 if abs(x - q**m) < 1e-12 else 0.0

    r = jackson_signed_line(ind, p)
    assert abs(complex(r.value) - (1 - q) * q**m) < 1e-15


def test_signed_line_even_split_identity():
    p = QParams(q=0.5, alpha=0.0)
    q = p.q

    def f(x):
        return (x + x * x) * np.exp(-x * x) if abs(x) < 16 else 0.0

    fe = lambda x: 0.5 * (f(x) + f(-x))
    whole = complex(jackson_signed_line(f, p).value)
    half = (1 - q) * sum(q**n * fe(q**n) for n in range(N_MIN, N_MAX + 1))
    assert abs(whole - 2 * half) < 1e-13 * max(1.0, abs(whole))


def test_signed_line_divergence_flag():
    p = QParams(q=0.5, alpha=0.0)
    with pytest.raises(DivergenceError):
        jackson_signed_line(lambda x: x * x, p)   # grows at the outer edge


def test_integrate_mu_zero_norm():
    p = QParams(q=0.5, alpha=0.5)
    w = LatticeWindow(-2, 3, -2, 3)
    z = GridFunction.zeros(p, w)
    assert lp_norm(z, 2.0) == 0.0
    assert complex(integrate_mu(z).value) == 0


def test_single_point_l2_norm_closed_form():
    # || 1_{t0} ||^2 = (1-q)^2 |t1| t2^(2a+2); matches the reciprocal of the
    # lattice Dirac weight used by the kernel orthogonality relation
    p = QParams(q=0.5, alpha=0.5)
    w = LatticeWindow(-2, 3, -2, 3)
    a_exp, b_exp = 1, 0
    arr = np.zeros(w.shape, dtype=complex)
    arr[0, a_exp - w.n1_min, b_exp - w.n2_min] = 1.0
    f = GridFunction(p, w, EVEN, arr)
    q = p.q
    want = (1 - q) ** 2 * q**a_exp * (q**b_exp) ** (2 * p.alpha + 2)
    assert abs(lp_norm(f, 2.0) ** 2 - want) < 1e-15

    from qweinstein.transform import dirac_weight

    assert abs(dirac_weight(a_exp, b_exp, p) - 1.0 / want) < 1e-9 / want


def test_lp_norm_homogeneity():
    p = QParams(q=0.5, alpha=0.5)
    f = make_bump(p, seed=20)
    c = -2.5 + 1.0j
    for pp in (1.0, 2.0, 3.0, math.inf):
        a = lp_norm(f.with_samples(c * f.samples), pp)
        b = abs(c) * lp_norm(f, pp)
        assert abs(a - b) <= 1e-14 * b


def test_integral_exact_under_window_growth():
    from qweinstein.transform import embed_zeros

    p = QParams(q=0.5, alpha=0.5)
    f = make_bump(p, seed=21)
    v1 = complex(integrate_mu(f).value)
    v2 = complex(integrate_mu(embed_zeros(f, 4, 6)).value)
    assert v1 == v2


def test_monotonicity():
    p = QParams(q=0.5, alpha=0.0)
    f = make_bump(p, seed=22)
    fa = f.with_samples(np.abs(f.samples).astype(complex))
    ga = f.with_samples(np.abs(f.samples).astype(complex) * 2.0)
    assert complex(integrate_mu(fa).value).real <= complex(integrate_mu(ga).value).real


def test_holder_at_p2():
    p = QParams(q=0.5, alpha=0.5)
    f = make_bump(p, seed=23)
    g = make_bump(p, seed=24)
    inner = complex(integrate_mu(f.with_samples(f.samples * np.conj(g.samples))).value)
    assert abs(inner) <= lp_norm(f, 2.0) * lp_norm(g, 2.0) * (1 + 1e-12)


def test_integrate_mu_rejects_odd_parity():
    from qweinstein.qops import dq_partial

    p = QParams(q=0.5, alpha=0.5)
    f = make_bump(p, seed=25)
    with pytest.raises(QDomainError):
        integrate_mu(dq_partial(f, 2))


def test_lp_norm_rejects_bad_p():
    p = QParams(q=0.5, alpha=0.5)
    f = make_bump(p, seed=26)
    with pytest.raises(QDomainError):
        lp_norm(f, 0.0)


# ---------------------------------------------------------------------------
# the log-space reduction against mpmath
# ---------------------------------------------------------------------------

import mpmath as mp  # noqa: E402
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from qweinstein.qintegrate import _log_power_sum  # noqa: E402

# |values| from 1e-300 to 1e300, with exact zeros and subnormals among them
_ABS = st.one_of(st.just(0.0), st.floats(5e-324, 2.2e-308),
                 st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e))


@st.composite
def _abs_and_logw(draw):
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=4))
    return (draw(hnp.arrays(np.float64, shape, elements=_ABS)),
            draw(hnp.arrays(np.float64, shape, elements=st.floats(-700.0, 700.0))))


@settings(max_examples=100, deadline=None)
@given(arrays=_abs_and_logw(), p=st.sampled_from((1.0, 2.0)))
@example(arrays=(np.zeros((2, 3, 3)), np.zeros((2, 3, 3))), p=2.0)
@example(arrays=(np.array([5e-324, 1e300]), np.array([700.0, -700.0])), p=2.0)
def test_log_power_sum_matches_mpmath(arrays, p):
    absv, logw = arrays
    got = _log_power_sum(absv, logw, p)
    if not absv.any():
        assert got == -math.inf
        return
    with mp.workdps(40):
        ref = mp.log(mp.fsum(mp.exp(p * mp.log(mp.mpf(a)) + mp.mpf(w))
                             for a, w in zip(absv.ravel().tolist(), logw.ravel().tolist()) if a))
    assert abs(got - float(ref)) <= 1e-12


# ---------------------------------------------------------------------------
# the edge cut
# ---------------------------------------------------------------------------

from hypothesis import assume  # noqa: E402

from qweinstein.qintegrate import edge_cut, shell_masses  # noqa: E402


def _bounding_box(window: LatticeWindow, mask: np.ndarray) -> LatticeWindow:
    """The box of the nonzero cells, found from each axis's nonzero shells."""
    i1 = np.flatnonzero(mask.any(axis=(0, 2)))
    i2 = np.flatnonzero(mask.any(axis=(0, 1)))
    return LatticeWindow(window.n1_min + int(i1[0]), window.n1_min + int(i1[-1]),
                         window.n2_min + int(i2[0]), window.n2_min + int(i2[-1]))


@st.composite
def _padded_mass(draw):
    """A window and a nonnegative integer-valued mass on it, zero shells at its edges:
    every sum of its cells is exact, whatever the order."""
    n1, n2 = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    core = draw(hnp.arrays(np.float64, (2, n1, n2), elements=st.integers(0, 4).map(float)))
    pads = [draw(st.integers(0, 3)) for _ in range(4)]
    mass = np.pad(core, ((0, 0), pads[:2], pads[2:]))
    lo1, lo2 = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
    return LatticeWindow(lo1, lo1 + mass.shape[1] - 1, lo2, lo2 + mass.shape[2] - 1), mass


@settings(max_examples=200, deadline=None)
@given(case=_padded_mass(), share=st.floats(0.0, 0.5, exclude_max=True),
       keep=st.sampled_from((1, 4)))
@example(case=(LatticeWindow(0, 0, 0, 0), np.ones((2, 1, 1))), share=0.0, keep=4)
def test_edge_cut_cuts_within_budget_and_slices_its_window(case, share, keep):
    window, mass = case
    assume(mass.any())
    budget = share * float(mass.sum())
    box, (s1, s2) = edge_cut(window, mass, 0, 1)
    assert box == _bounding_box(window, mass != 0)
    assert edge_cut(window, mass != 0, 0, 1) == (box, (s1, s2))   # bools: the same box

    win, (s1, s2) = edge_cut(window, mass, budget, keep)
    cuts = (s1.start, mass.shape[1] - s1.stop, s2.start, mass.shape[2] - s2.stop)
    assert cuts == (win.n1_min - window.n1_min, window.n1_max - win.n1_max,
                    win.n2_min - window.n2_min, window.n2_max - win.n2_max)
    assert mass[:, s1, s2].shape == win.shape
    m1, m2 = mass.sum(axis=(0, 2)), mass.sum(axis=(0, 1))
    for m, got, cut in zip((m1, m1[::-1], m2, m2[::-1]), shell_masses(mass), cuts):
        assert np.array_equal(got, m)
        assert m[:cut].sum() <= budget
        assert cut == max(len(m) - keep, 0) or m[:cut + 1].sum() > budget
