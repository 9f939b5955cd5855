from dataclasses import astuple

import numpy as np
import pytest

from qweinstein import (
    EVEN,
    ODD,
    GridFunction,
    LatticePoint,
    LatticeWindow,
    QDomainError,
    QParams,
    TaintError,
    bessel_j,
    bessel_op,
    dq_1d,
    dq_mixed,
    dq_partial,
    even_odd_split,
    qcos,
    qexp,
    qsin,
    weinstein_op,
)
from qweinstein.qintegrate import jackson_0_to_a, jackson_signed_line
from qweinstein.qops import _weinstein_array

from .conftest import FOUR_Q, bessel_op_expanded, dilated, from_callable, make_bump


# ---------------------------------------------------------------------------
# pointwise operator
# ---------------------------------------------------------------------------

def test_dq_of_identity_is_one():
    p = QParams(q=0.5, alpha=0.0)
    for at in (LatticePoint(1, 0), LatticePoint(-1, 2), LatticePoint(1, -3)):
        assert abs(dq_1d(lambda x: x, at, p) - 1.0) < 1e-15


def test_dq_of_square():
    # d_q x^2 evaluated at z equals q^-2 (1+q) z
    p = QParams(q=0.5, alpha=0.0)
    q = p.q
    for at in (LatticePoint(1, 1), LatticePoint(-1, 0), LatticePoint(1, -2)):
        z = at.value(q)
        got = dq_1d(lambda x: x * x, at, p)
        assert abs(got - (1 + q) / q**2 * z) < 1e-13 * abs(z)


def test_dq_qexp_eigen():
    p = QParams(q=0.5, alpha=0.0)
    for at in (LatticePoint(1, 2), LatticePoint(1, 0), LatticePoint(-1, 1)):
        z = at.value(p.q)
        d = dq_1d(lambda x: qexp(x, p), at, p)
        assert abs(d / qexp(z, p) - 1) < 1e-10


def test_dq_trig_derivatives():
    p = QParams(q=0.5, alpha=0.0)
    at = LatticePoint(1, 1)
    z = at.value(p.q)
    assert abs(dq_1d(lambda x: qsin(x, p), at, p) - qcos(z, p)) < 1e-12
    assert abs(dq_1d(lambda x: qcos(x, p), at, p) + qsin(z, p)) < 1e-12


def test_dq_bessel_index_shift():
    # d_q j_a(x; q^2) = -x/[2a+2]_q * j_{a+1}(x; q^2)
    for alpha in (-0.5, 0.0, 0.5):
        p = QParams(q=0.5, alpha=max(alpha, 0.0))
        q = p.q
        bracket = (1 - q ** (2 * alpha + 2)) / (1 - q)
        for at in (LatticePoint(1, 1), LatticePoint(1, 0), LatticePoint(-1, 2)):
            z = at.value(q)
            lhs = dq_1d(lambda x: bessel_j(alpha, x, p).value, at, p)
            rhs = -z / bracket * bessel_j(alpha + 1, z, p).value
            assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1e-6)


def test_even_odd_split_exact():
    fe, fo = even_odd_split(lambda x: x + x * x)
    for z in (0.5, -1.25, 2.0):
        assert abs(fe(z) - z * z) < 1e-15
        assert abs(fo(z) - z) < 1e-15
        assert fe(z) + fo(z) == pytest.approx(z + z * z, abs=1e-15)


def test_even_odd_split_of_even_function():
    fe, fo = even_odd_split(lambda x: x**4)
    assert fo(0.7) == 0.0


def test_split_of_qexp_matches_trig_parts():
    p = QParams(q=0.5, alpha=0.0)
    fe, fo = even_odd_split(lambda x: qexp(x, p))
    for z in (0.5, 0.25):
        cos_part = qcos(-1j * z, p)
        sin_part = 1j * qsin(-1j * z, p)
        assert abs(fe(z) - cos_part) < 1e-12
        assert abs(fo(z) - sin_part) < 1e-12


def test_product_rules_parity_cases():
    # the three parity cases of the product rule for the symmetric derivative
    p = QParams(q=0.5, alpha=0.0)
    q = p.q
    f_even = lambda x: 1.0 / (1.0 + x * x)
    g_odd = lambda x: x / (1.0 + x**4)
    h_even = lambda x: np.cos(x)
    k_odd = lambda x: x**3

    def dq(fn, z):
        return dq_1d(fn, z, p)

    for at in (LatticePoint(1, 1), LatticePoint(-1, 0), LatticePoint(1, 3)):
        z = at.value(q)
        # even * odd
        prod = lambda x: f_even(x) * g_odd(x)
        lhs = dq(prod, at)
        rhs = q * dq(f_even, LatticePoint(at.sign, at.exponent + 1)) * g_odd(z) + \
            f_even(q * z) * dq(g_odd, at)
        assert abs(lhs - rhs) < 1e-11 * max(1, abs(lhs))
        # even * even
        prod2 = lambda x: f_even(x) * h_even(x)
        lhs2 = dq(prod2, at)
        rhs2 = dq(f_even, at) * h_even(z / q) + f_even(z) * dq(h_even, at)
        assert abs(lhs2 - rhs2) < 1e-11 * max(1, abs(lhs2))
        # odd * odd: d(fg)(z) = [df(z/q) g(z/q) + f(z) dg(z/q)] / q
        # (the natural outward-sample arrangement; check f = g = x gives
        # (1+q) z / q^2, the derivative of x^2)
        at_out = LatticePoint(at.sign, at.exponent - 1)
        prod3 = lambda x: g_odd(x) * k_odd(x)
        lhs3 = dq(prod3, at)
        rhs3 = (dq(g_odd, at_out) * k_odd(z / q) + g_odd(z) * dq(k_odd, at_out)) / q
        assert abs(lhs3 - rhs3) < 1e-11 * max(1, abs(lhs3))


# ---------------------------------------------------------------------------
# grid operators
# ---------------------------------------------------------------------------

def test_dq_mixed_identity():
    p = QParams(q=0.5, alpha=0.5)
    f = make_bump(p, seed=2)
    g = dq_mixed(f, (0, 0))
    assert np.array_equal(g.samples, f.samples)


def test_dq_partial_flips_parity():
    p = QParams(q=0.5, alpha=0.5)
    f = make_bump(p, seed=3)
    assert f.parity_y == EVEN
    d = dq_partial(f, 2)
    assert d.parity_y == ODD
    assert dq_partial(d, 2).parity_y == EVEN
    assert dq_partial(f, 1).parity_y == EVEN


def test_mixed_order_commutation():
    p = QParams(q=0.5, alpha=0.5)
    f = make_bump(p, seed=4, pad=2)
    a = dq_partial(dq_partial(f, 1), 2)
    b = dq_partial(dq_partial(f, 2), 1)
    s1, s2 = a.window.untainted_slices()
    assert np.allclose(a.samples[:, s1, s2], b.samples[:, s1, s2], rtol=0, atol=1e-12 * np.max(np.abs(a.samples)))


def test_linearity_of_operators():
    p = QParams(q=0.5, alpha=0.5)
    f = make_bump(p, seed=5, pad=1)
    g = make_bump(p, seed=6, pad=1)
    a, b = 1.7, -0.4 + 0.2j
    for op in (lambda h: dq_partial(h, 1), lambda h: bessel_op(h), lambda h: weinstein_op(h, 1)):
        lhs = op(f.with_samples(a * f.samples + b * g.samples))
        rhs_samples = a * op(f).samples + b * op(g).samples
        scale = np.max(np.abs(rhs_samples))
        assert np.max(np.abs(lhs.samples - rhs_samples)) < 1e-13 * scale


def test_taint_bookkeeping_and_exhaustion():
    p = QParams(q=0.5, alpha=0.5)
    f = make_bump(p, seed=7)
    d = dq_partial(f, 1)
    assert (d.window.taint_x, d.window.taint_y) == (1, 0)
    with pytest.raises(TaintError):
        weinstein_op(f, 3)   # window is only 7 wide; 3 applications need 12 layers


def test_bessel_op_requires_even():
    p = QParams(q=0.5, alpha=0.5)
    f = make_bump(p, seed=8)
    d = dq_partial(f, 2)
    with pytest.raises(QDomainError):
        bessel_op(d)


def test_bessel_op_on_constant_is_zero():
    p = QParams(q=0.5, alpha=0.5)
    w = LatticeWindow(-2, 3, -2, 3)
    f = GridFunction(p, w, EVEN, np.ones(w.shape, dtype=complex))
    out = bessel_op(f)
    s1, s2 = out.window.untainted_slices()
    assert np.max(np.abs(out.samples[:, s1, s2])) < 1e-14


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 1.25])
def test_bessel_op_eigenfunction(alpha):
    # B j_alpha(l2 y) = -l2^2 j_alpha(l2 y) on the lattice
    p = QParams(q=0.5, alpha=alpha)
    q = p.q
    lam2 = q ** (-1)
    w = LatticeWindow(-1, 2, -4, 6)
    f = from_callable(p, w, lambda x1, x2: bessel_j(alpha, lam2 * x2, p).value)
    out = bessel_op(f)
    s1, s2 = out.window.untainted_slices()
    got = out.samples[:, s1, s2]
    want = -(lam2**2) * f.samples[:, s1, s2]
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def test_bessel_conjugated_vs_expanded():
    # the two evaluation orders agree to rounding at every alpha
    for alpha in (-0.5, 0.0, 0.5, 1.25):
        p = QParams(q=0.5, alpha=alpha)
        f = make_bump(p, seed=9, pad=2)
        a = bessel_op(f)
        b = bessel_op_expanded(f)
        s1, s2 = b.window.untainted_slices()
        scale = np.max(np.abs(a.samples[:, s1, s2]))
        assert np.max(np.abs(a.samples[:, s1, s2] - b.samples[:, s1, s2])) < 1e-11 * scale


def test_weinstein_identity_power_zero():
    p = QParams(q=0.5, alpha=0.5)
    f = make_bump(p, seed=10)
    assert weinstein_op(f, 0) is f


def test_weinstein_eigenfunction_kernel():
    # W Lambda = -||l||^2 Lambda at interior points
    p = QParams(q=0.5, alpha=0.5)
    q = p.q
    lam = (q**1, q**0)
    w = LatticeWindow(-3, 5, -3, 5)

    def kern(x1, x2):
        return qexp(-1j * lam[0] * x1, p) * bessel_j(p.alpha, lam[1] * x2, p).value

    f = from_callable(p, w, kern)
    out = weinstein_op(f, 1)
    s1, s2 = out.window.untainted_slices()
    want = -(lam[0] ** 2 + lam[1] ** 2) * f.samples[:, s1, s2]
    got = out.samples[:, s1, s2]
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def test_weinstein_self_adjoint():
    from qweinstein.qintegrate import integrate_mu
    from qweinstein.transform import embed_zeros

    p = QParams(q=0.5, alpha=0.5)
    f = make_bump(p, seed=11)
    g = make_bump(p, seed=12)
    fp = embed_zeros(f, 3, 3)
    gp = embed_zeros(g, 3, 3)
    wf = weinstein_op(fp, 1)
    wg = weinstein_op(gp, 1)
    lhs = complex(integrate_mu(fp.with_samples(wf.samples * gp.samples)).value)
    rhs = complex(integrate_mu(fp.with_samples(fp.samples * wg.samples)).value)
    assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs))


def test_weinstein_preserves_even_parity():
    p = QParams(q=0.5, alpha=0.5)
    f = make_bump(p, seed=13, pad=2)
    assert weinstein_op(f, 1).parity_y == EVEN


# ---------------------------------------------------------------------------
# integration by parts (ties qops to qintegrate)
# ---------------------------------------------------------------------------

def _compact(fn, lo, hi, q):
    """Window a callable to lattice values q^n with lo <= n <= hi."""
    import math

    def wrapped(x):
        ax = abs(x)
        if ax == 0:
            return 0.0
        n = round(math.log(ax) / math.log(q))
        if lo <= n <= hi:
            return fn(x)
        return 0.0

    return wrapped


def test_integration_by_parts_full_line():
    p = QParams(q=0.5, alpha=0.0)
    q = p.q
    f = _compact(lambda x: x * np.exp(-x * x), -3, 10, q)
    g = _compact(lambda x: (1 + x) * np.exp(-0.5 * x * x), -3, 10, q)

    def dqf(z):
        return (f(z / q) + f(-z / q) - f(q * z) + f(-q * z) - 2 * f(-z)) / (2 * (1 - q) * z)

    def dqg(z):
        return (g(z / q) + g(-z / q) - g(q * z) + g(-q * z) - 2 * g(-z)) / (2 * (1 - q) * z)

    lhs = complex(jackson_signed_line(lambda x: dqf(x) * g(x), p).value)
    rhs = -complex(jackson_signed_line(lambda x: f(x) * dqg(x), p).value)
    assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1.0)


def test_integration_by_parts_finite_interval():
    # finite-interval variant with explicit boundary terms at a = q^-2
    p = QParams(q=0.5, alpha=0.0)
    q = p.q
    a = q ** (-2)
    f = lambda x: x * np.exp(-x * x)
    g = lambda x: np.cos(x) * (1 + 0.3 * x)

    def dq_of(fn):
        return lambda z: (fn(z / q) + fn(-z / q) - fn(q * z) + fn(-q * z) - 2 * fn(-z)) / (2 * (1 - q) * z)

    def int_sym(fn):
        r1 = jackson_0_to_a(lambda x: fn(x), a, p)
        r2 = jackson_0_to_a(lambda x: fn(-x), a, p)
        return complex(r1.value) + complex(r2.value)

    fe, fo = even_odd_split(f)
    ge, go = even_odd_split(g)
    lhs = int_sym(lambda x: dq_of(f)(x) * g(x))
    boundary = 2 * (fe(a / q) * go(a) + fo(a) * ge(a / q))
    rhs = boundary - int_sym(lambda x: f(x) * dq_of(g)(x))
    assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1.0)


# ---------------------------------------------------------------------------
# kernel derivative bound (property of the product kernel)
# ---------------------------------------------------------------------------

def test_kernel_derivative_bound():
    import math as m

    from qweinstein import qshifted

    p = QParams(q=0.5, alpha=0.5)
    q = p.q
    bound_const = 4.0 / qshifted(q, m.inf, p) ** 2
    lam = (q**1, q**2)
    w = LatticeWindow(-3, 6, -3, 6)

    def kern(x1, x2):
        return qexp(-1j * lam[0] * x1, p) * bessel_j(p.alpha, lam[1] * x2, p).value

    f = from_callable(p, w, kern)
    for beta in ((1, 0), (0, 1), (1, 1), (2, 0)):
        d = dq_mixed(f, beta)
        s1, s2 = d.window.untainted_slices()
        sup = np.max(np.abs(d.samples[:, s1, s2]))
        assert sup <= abs(bound_const) * lam[0] ** beta[0] * lam[1] ** beta[1] * (1 + 1e-9)


# ---------------------------------------------------------------------------
# stencil properties on random windows, q and alpha
# ---------------------------------------------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_PROPERTY = settings(max_examples=25, deadline=None)


@st.composite
def _grid_functions(draw, min_width: int):
    """A random complex grid function on a window at least min_width shells wide."""
    n1_min, n2_min = draw(st.integers(-6, 6)), draw(st.integers(-6, 6))
    window = LatticeWindow(n1_min, n1_min + min_width - 1 + draw(st.integers(0, 6)),
                           n2_min, n2_min + min_width - 1 + draw(st.integers(0, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = rng.standard_normal(window.shape) + 1j * rng.standard_normal(window.shape)
    params = QParams(q=draw(st.floats(0.2, 0.9)), alpha=draw(st.floats(-0.5, 3.0)))
    return GridFunction(params, window, draw(st.sampled_from([EVEN, ODD])), samples)


def test_window_equality_and_hash_ignore_taint():
    # the memos on kernels and weight tables key on windows, whose values depend on
    # the extents only
    w = LatticeWindow(-2, 4, -1, 3)
    t = w.tainted_more(dx=1, dy=2)
    assert t == w and hash(t) == hash(w) and t.untainted_slices() != w.untainted_slices()


@_PROPERTY
@given(f=_grid_functions(13), n=st.integers(1, 3))
def test_weinstein_op_is_the_composed_stencil(f, n):
    f = f.with_samples(f.samples, parity_y=EVEN)
    g = f
    for _ in range(n):
        g = g.with_samples(dq_mixed(g, (2, 0)).samples + bessel_op(g).samples,
                           window=g.window.tainted_more(dx=2, dy=2))
    w = weinstein_op(f, n)
    # astuple: window == ignores the taint layers, which the stencils must track too
    assert (astuple(w.window), w.parity_y) == (astuple(g.window), EVEN)
    assert np.array_equal(w.samples.view(np.int64), g.samples.view(np.int64))


@_PROPERTY
@given(n1=st.integers(1, 8), n2=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       q=st.floats(0.1, 0.9, exclude_min=True, exclude_max=True), alpha=st.floats(-0.5, 2.0))
def test_weinstein_block_is_a_slice_of_the_whole_window_step(n1, n2, seed, q, alpha):
    # every block, also one whose reach passes the samples' edge, keeps the bits of the
    # whole-window step there
    rng = np.random.default_rng(seed)
    s = rng.standard_normal((2, n1, n2)) + 1j * rng.standard_normal((2, n1, n2))
    f = GridFunction(QParams(q=q, alpha=alpha), LatticeWindow(0, n1 - 1, 0, n2 - 1), EVEN, s)
    args = (f.samples, f.params, f.x1_values(), f.x2_values())
    whole = _weinstein_array(*args, n1, n2)
    for c1 in range(n1 + 1):
        for c2 in range(n2 + 1):
            block = _weinstein_array(*args, c1, c2)
            assert np.array_equal(block.view(np.int64), whole[:, :c1, :c2].view(np.int64))


@_PROPERTY
@given(f=_grid_functions(3))
def test_dq_partial_along_var_2_flips_parity(f):
    flipped = ODD if f.parity_y == EVEN else EVEN
    assert dq_partial(f, 2).parity_y == flipped
    assert dq_partial(dq_partial(f, 2), 2).parity_y == f.parity_y
    assert dq_partial(f, 1).parity_y == f.parity_y


@_PROPERTY
@given(f=_grid_functions(11), var=st.sampled_from([1, 2]),
       taint=st.tuples(*[st.integers(0, 2)] * 2), cut=st.tuples(*[st.integers(0, 2)] * 4))
def test_derivative_adds_one_taint_layer(f, var, taint, cut):
    # differentiate a sub-window of f that carries some taint already
    w, (a1, b1, a2, b2) = f.window, cut
    sub = f.with_samples(f.samples[:, a1:w.shape[1] - b1, a2:w.shape[2] - b2],
                         window=LatticeWindow(w.n1_min + a1, w.n1_max - b1,
                                              w.n2_min + a2, w.n2_max - b2, *taint))
    d = dq_partial(sub, var)
    dx, dy = (1, 0) if var == 1 else (0, 1)
    t = d.window
    assert (t.taint_x, t.taint_y) == (taint[0] + dx, taint[1] + dy)
    assert (t.n1_min, t.n1_max, t.n2_min, t.n2_max) == (
        sub.window.n1_min, sub.window.n1_max, sub.window.n2_min, sub.window.n2_max)
    # the zero fill past the sub-window reaches only the layer the derivative added:
    # the untainted values equal those of the derivative on the whole window
    whole = dq_partial(f, var).samples[:, a1:w.shape[1] - b1, a2:w.shape[2] - b2]
    s1, s2 = LatticeWindow(0, sub.window.shape[1] - 1, 0, sub.window.shape[2] - 1,
                           dx, dy).untainted_slices()
    assert np.array_equal(d.samples[:, s1, s2], whole[:, s1, s2])


@settings(max_examples=60, deadline=None)
@given(f=_grid_functions(5), b1=st.integers(0, 4), b2=st.integers(0, 4))
def test_dq_mixed_is_iterated_dq_partial(f, b1, b2):
    # the reference differentiates one variable at a time through dq_partial
    g = f
    for var, order in ((1, b1), (2, b2)):
        for _ in range(order):
            g = dq_partial(g, var)
    try:
        g.window.untainted_slices()
    except TaintError:
        with pytest.raises(TaintError):
            dq_mixed(f, (b1, b2))
        return
    d = dq_mixed(f, (b1, b2))
    if (b1, b2) == (0, 0):
        assert d is f
    assert (astuple(d.window), d.parity_y) == (astuple(g.window), g.parity_y)   # with taint
    assert np.array_equal(d.samples.view(np.int64), g.samples.view(np.int64))


@settings(max_examples=40, deadline=None)
@given(q=st.sampled_from(FOUR_Q), alpha=st.sampled_from([0.0, 0.5, 1.5]),
       lo1=st.integers(-3, 2), lo2=st.integers(-3, 2), seed=st.integers(0, 2**32 - 1))
def test_weinstein_op_is_covariant_under_lattice_dilation(q, alpha, lo1, lo2, seed):
    # g(x) = f(x / q) gives W g = q^-2 (W f)(x / q): the same samples, scaled;
    # q^-2 = 4 is exact at q = 1/2
    f = make_bump(QParams(q=q, alpha=alpha), seed, lo1, lo1 + 3, lo2, lo2 + 3, pad=3)
    Wf = weinstein_op(f).samples
    Wg = weinstein_op(dilated(f)).samples
    tol = 0.0 if q == 0.5 else 1e-14
    assert np.max(np.abs(Wg - q**-2 * Wf)) <= tol * np.max(np.abs(Wf))
