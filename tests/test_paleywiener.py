import math
from types import SimpleNamespace

import numpy as np
import pytest

from qweinstein import (
    DivergenceError,
    GridFunction,
    LatticeWindow,
    PWmParams,
    QDomainError,
    QParams,
    bandwidth_estimate,
    bessel_j,
    radial_power_bound_check,
    forward,
    monomial_derivative_bound_check,
    norm_growth_sequence,
    pw_m_sup,
    sonine_identity_check,
    support_radius,
    weinstein_sup_bound_check,
)
from qweinstein.paleywiener import TransformSideIterates
from qweinstein.qintegrate import log_l2_norm_sq, log_mu_weights
from qweinstein.qops import EVEN, dq_partial, weinstein_op
from qweinstein.transform import _contract, _kernel_matrices, auto_lambda_window, embed_zeros, norm_sq_lambda
from qweinstein.cli import random_even_bump
from qweinstein.qcore import aligned_q

from .conftest import FOUR_Q, clear_family_memos, dilated, make_bump


def single_point(params, a_exp=1, b_exp=0, lo=-2, hi=3, value=1.0):
    w = LatticeWindow(lo, hi, lo, hi)
    arr = np.zeros(w.shape, dtype=complex)
    arr[0, a_exp - w.n1_min, b_exp - w.n2_min] = value
    return GridFunction(params, w, EVEN, arr)


# ---------------------------------------------------------------------------
# support radius and norm growth
# ---------------------------------------------------------------------------

def test_support_radius_single_point():
    p = QParams(q=0.5, alpha=0.5)
    f = single_point(p, 1, 0)
    q = p.q
    assert abs(support_radius(f) - math.hypot(q, 1.0)) < 1e-15


def test_support_radius_zero_function():
    p = QParams(q=0.5, alpha=0.5)
    assert support_radius(GridFunction.zeros(p, LatticeWindow(-2, 3, -2, 3))) == 0.0


def test_support_radius_two_points():
    p = QParams(q=0.5, alpha=0.5)
    w = LatticeWindow(-2, 3, -2, 3)
    arr = np.zeros(w.shape, dtype=complex)
    arr[0, 0 - w.n1_min, 2 - w.n2_min] = 1.0      # radius hypot(1, q^2)
    arr[1, -2 - w.n1_min, 3 - w.n2_min] = 0.5     # radius hypot(q^-2, q^3)
    f = GridFunction(p, w, EVEN, arr)
    q = p.q
    want = max(math.hypot(1, q**2), math.hypot(q**-2, q**3))
    assert abs(support_radius(f) - want) < 1e-15


def test_norm_growth_single_point_closed_form():
    # b_n = r * w^(1/4n) for a unit value at radius r with measure weight w
    p = QParams(q=0.5, alpha=0.5)
    a_exp, b_exp = 1, 0
    f = single_point(p, a_exp, b_exp)
    q = p.q
    r = math.hypot(q**a_exp, q**b_exp)
    w = (1 - q) ** 2 * q**a_exp * (q**b_exp) ** (2 * p.alpha + 2)
    seq = norm_growth_sequence(f, 12)
    for n, b in enumerate(seq, start=1):
        want = r * w ** (1.0 / (4.0 * n))
        assert abs(b / want - 1) < 1e-12


def test_norm_growth_zero_function():
    p = QParams(q=0.5, alpha=0.5)
    z = GridFunction.zeros(p, LatticeWindow(-2, 3, -2, 3))
    assert norm_growth_sequence(z, 5) == [0.0] * 5


def test_norm_growth_converges_to_radius():
    p = QParams(q=0.5, alpha=0.0)
    f = make_bump(p, seed=50)
    r = support_radius(f)
    b = norm_growth_sequence(f, 50)
    assert abs(b[-1] / r - 1) < 0.02


@pytest.mark.parametrize("q", FOUR_Q)
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.5])
def test_norm_growth_is_the_bandwidth_spectral_route(q, alpha):
    # the engine's spectral a_n and b_n are one quantity, computed by two routes
    p = QParams(q=q, alpha=alpha)
    for seed in (1, 2, 3):
        f = random_even_bump(p, LatticeWindow(-2, 4, -2, 4), seed, pad=1)
        a = bandwidth_estimate(forward(f).grid, 40, f_hat=f).a_seq
        np.testing.assert_allclose(a, norm_growth_sequence(f, 40), rtol=1e-13, atol=0.0)


# ---------------------------------------------------------------------------
# bandwidth estimation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [0.5, 0.7])   # 0.7: a zero F needs no aligned q
def test_bandwidth_zero_function(q):
    p = QParams(q=q, alpha=0.5)
    F = GridFunction.zeros(p, LatticeWindow(-4, 8, -4, 8))
    rep = bandwidth_estimate(F, 10)
    assert rep.estimate == 0.0


def test_bandwidth_single_point_preimage():
    p = QParams(q=0.5, alpha=0.0)
    f = single_point(p, 0, 1)
    F = forward(f)
    rep = bandwidth_estimate(F.grid, 30, f_hat=f)
    r = support_radius(f)
    assert abs(rep.estimate / r - 1) < 1e-6
    assert rep.route_max_rel_dev < 1e-6
    assert rep.exponent_normalization.startswith("sup||x||")


def test_bandwidth_random_bump():
    p = QParams(q=0.5, alpha=0.0)
    f = make_bump(p, seed=51, lo1=-2, hi1=4, lo2=-2, hi2=4, pad=1)
    F = forward(f)
    rep = bandwidth_estimate(F.grid, 50, f_hat=f)
    r = support_radius(f)
    assert abs(rep.estimate / r - 1) < 0.02
    assert rep.route_max_rel_dev < 1e-6
    # enlarging the support never decreases the estimate
    g = make_bump(p, seed=51, lo1=-3, hi1=4, lo2=-3, hi2=4, pad=1)
    G = forward(g)
    rep2 = bandwidth_estimate(G.grid, 50, f_hat=g)
    assert rep2.estimate >= rep.estimate * (1 - 1e-9)


def test_bandwidth_through_inverse_reconstruction():
    # without a provided preimage the estimator reconstructs it itself
    p = QParams(q=0.5, alpha=0.0)
    f = make_bump(p, seed=52, lo1=-1, hi1=3, lo2=-1, hi2=3, pad=1)
    F = forward(f)
    rep = bandwidth_estimate(F.grid, 30)
    assert abs(rep.estimate / support_radius(f) - 1) < 0.02


# ---------------------------------------------------------------------------
# the iterate engine against the plain loop
# ---------------------------------------------------------------------------

def _reference_run(eng):
    """TransformSideIterates.run as a plain loop: every step contracts afresh and
    applies weinstein_op on the whole window, then keeps its values on the core mask."""
    params, win, x_win = eng.params, eng.window, eng.f_hat.window
    clean = LatticeWindow(win.n1_min, win.n1_max, win.n2_min, win.n2_max)
    m1 = win.n1_exponents()[None, :, None]
    m2 = win.n2_exponents()[None, None, :]
    w_lin = np.exp(eng._logw_lam)
    eta = eng.f_hat.samples.copy()
    G_prev = _contract(_kernel_matrices(x_win, win, params), eta, conj=False)
    log_scale = 0.0
    for n in range(1, eng.N + 1):
        eta_raw = eta * (-eng._r2_x)
        s = float(np.max(np.abs(eta_raw))) or 1.0
        eta = eta_raw / s
        log_scale += math.log(s)
        G_dir = _contract(_kernel_matrices(x_win, win, params), eta, conj=False)
        G_sten = weinstein_op(GridFunction(params, clean, EVEN, G_prev), 1).samples / s
        c = eng._core_cutoff(n)
        mask = np.broadcast_to((m1 <= c) & (m2 <= c), G_dir.shape)
        G_lit = np.where(mask, G_sten, G_dir)
        mass = np.abs(G_lit) ** 2 * w_lin
        tot = float(np.sum(mass))
        core = float(np.sum(mass[mask])) if tot > 0 else 0.0
        yield G_lit, [log_scale, core / tot if tot > 0 else 0.0,
                      log_l2_norm_sq(G_lit, eng._logw_lam) + 2.0 * log_scale,
                      log_l2_norm_sq(eta, eng._logw_x) + 2.0 * log_scale], c
        G_prev = G_lit


@pytest.mark.parametrize("q,alpha,support,N,narrows", [
    (0.5, 0.0, (-2, 4, -2, 4), 50, False),
    (0.5, 1.5, (-2, 4, -2, 4), 30, False),
    (0.7, 0.0, (-1, 3, -1, 3), 30, False),
    (0.7, 1.5, (-1, 3, -1, 3), 30, False),
    (0.8, 0.0, (0, 2, 0, 2), 50, True),
])
def test_run_is_bit_identical_to_the_plain_loop(q, alpha, support, N, narrows):
    f = make_bump(QParams(q=q, alpha=alpha), 81, *support)
    eng = TransformSideIterates(f, N)
    core_shells = set()
    for st, (values, scalars, c) in zip(eng.run(), _reference_run(eng), strict=True):
        assert np.array_equal(st.values.view(np.int64), values.view(np.int64))
        got = [st.log_scale, st.core_fraction, st.log_norm_sq_literal, st.log_norm_sq_spectral]
        assert np.array_equal(np.array(got).view(np.int64), np.array(scalars).view(np.int64))
        core_shells.add(int(np.sum(eng.window.n1_exponents() <= c)))
    # a core of 1 shell is narrower than the stencil's reach, and an empty one skips it
    assert ({0, 1} <= core_shells) == narrows


def test_run_gathers_kernel_families_once(monkeypatch):
    from qweinstein import transform

    f = make_bump(QParams(q=0.5, alpha=0.0), 82, -2, 4, -2, 4)
    eng = TransformSideIterates(f, 10)
    transform._kernel_matrices.cache_clear()   # a memo hit would look up no families
    calls = []
    families = transform._families

    def counted(*args, **kwargs):
        calls.append(1)
        return families(*args, **kwargs)

    monkeypatch.setattr(transform, "_families", counted)
    assert len(list(eng.run())) == 10
    assert len(calls) == 1


def _untrimmed(eng, f_hat):
    """eng for _reference_run, but with the preimage f_hat on its own window."""
    return SimpleNamespace(params=eng.params, window=eng.window, N=eng.N,
                           _logw_lam=eng._logw_lam, _core_cutoff=eng._core_cutoff, f_hat=f_hat,
                           _r2_x=norm_sq_lambda(f_hat.window, f_hat.params),
                           _logw_x=log_mu_weights(f_hat))


@pytest.mark.parametrize("alpha", [0.0, 1.5])
@pytest.mark.parametrize("k", [0, 3])
def test_run_on_the_nonzero_box_is_bit_identical_at_half(alpha, k):
    # make_bump pads its (-2, 4) support box by one shell of zeros, so the
    # engine drops 1 + k shells on every side and still gives the same bits
    f = embed_zeros(make_bump(QParams(q=0.5, alpha=alpha), 83, -2, 4, -2, 4), k, k)
    eng = TransformSideIterates(f, 30)
    assert eng.f_hat.window == LatticeWindow(-2, 4, -2, 4)
    w = auto_lambda_window(f)
    assert eng.window == LatticeWindow(w.n1_min - 2, w.n1_max + 4, w.n2_min - 2, w.n2_max + 4)
    for st, (values, scalars, _) in zip(eng.run(), _reference_run(_untrimmed(eng, f)),
                                        strict=True):
        assert np.array_equal(st.values.view(np.int64), values.view(np.int64))
        got = [st.log_scale, st.core_fraction, st.log_norm_sq_literal, st.log_norm_sq_spectral]
        assert np.array_equal(np.array(got).view(np.int64), np.array(scalars).view(np.int64))


@pytest.mark.parametrize("q", [0.7, 0.8])
def test_run_on_the_nonzero_box_moves_the_literal_route_by_rounding(q):
    # the smaller contraction sums in another order, which at these q moves
    # a_n by ~1e-11; the spectral route sums the same nonzero terms
    f = embed_zeros(make_bump(QParams(q=q, alpha=0.0), 84, -1, 3, -1, 3), 3, 3)
    eng = TransformSideIterates(f, 30)
    assert eng.f_hat.window == LatticeWindow(-1, 3, -1, 3)
    for st, (_, scalars, _) in zip(eng.run(), _reference_run(_untrimmed(eng, f)), strict=True):
        n = st.n
        a_lit, a_ref = (math.exp(v / (4.0 * n)) for v in (st.log_norm_sq_literal, scalars[2]))
        assert abs(a_lit / a_ref - 1.0) <= 1e-9
        assert st.log_norm_sq_spectral == scalars[3]


def test_run_refuses_a_non_finite_iterate(monkeypatch):
    from qweinstein import paleywiener

    contract, calls = paleywiener._contract, []

    def nan_at_the_third_step(*args, **kwargs):
        out = contract(*args, **kwargs)
        calls.append(1)
        if len(calls) == 4:   # the first call gives the stencil's input of step 1
            out[0, -1, -1] = math.nan
        return out

    monkeypatch.setattr(paleywiener, "_contract", nan_at_the_third_step)
    eng = TransformSideIterates(make_bump(QParams(q=0.5, alpha=0.0), 85, -2, 4, -2, 4), 5)
    run = eng.run()
    assert [next(run).n for _ in range(2)] == [1, 2]
    with pytest.raises(QDomainError, match="the literal iterate at n=3 is not finite"):
        next(run)


def test_run_leaves_an_all_zero_preimage_as_it_is():
    f = GridFunction.zeros(QParams(q=0.5, alpha=0.0), LatticeWindow(-2, 4, -2, 4))
    eng = TransformSideIterates(f, 3)
    assert eng.f_hat is f
    assert [st.core_fraction for st in eng.run()] == [0.0] * 3


def test_run_peak_memory_does_not_grow_with_N():
    # a step holds one scaled preimage, so 200 steps need no more room than 8
    import tracemalloc

    f = random_even_bump(QParams(q=0.5, alpha=0.0), LatticeWindow(-6, 12, -6, 12), 3, pad=1)
    for _ in TransformSideIterates(f, 1).run():   # warm the memos
        pass
    peaks = {}
    for N in (8, 200):
        eng = TransformSideIterates(f, N)
        tracemalloc.start()
        try:
            for _ in eng.run():
                pass
            peaks[N] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[200] <= 1.1 * peaks[8]
    # nor does the first step of a run of 10**6 steps: no table of N entries
    run = TransformSideIterates(f, 10**6).run()
    tracemalloc.start()
    try:
        next(run)
        first = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first <= 2e6


def test_bandwidth_core_last_n_marks_where_the_core_empties():
    # at q = 0.9 the core holds stencil mass up to n = 5 only; the larger
    # route deviation after it compares direct transforms, not stencils
    f = random_even_bump(QParams(q=0.9, alpha=0.0), LatticeWindow(-2, 4, -2, 4), 3, pad=1)
    rep = bandwidth_estimate(forward(f).grid, 20, f_hat=f)
    assert rep.core_last_n == 5
    assert all(c > 0 for c in rep.core_fractions[:5]) and not any(rep.core_fractions[5:])


# ---------------------------------------------------------------------------
# PW^m sup
# ---------------------------------------------------------------------------

def test_log_B_nm_zero_m_is_one():
    from qweinstein.paleywiener import log_B_nm

    p = QParams(q=0.5, alpha=0.5)
    for n in (1, 3, 10):
        assert log_B_nm(n, 0, p) == 0.0


def test_pw_m_requires_large_m():
    p = QParams(q=0.5, alpha=0.5)
    F = forward(make_bump(p, seed=53)).grid
    with pytest.raises(QDomainError):
        pw_m_sup(F, PWmParams(m=1, a=1.0, N=5))


@pytest.mark.parametrize("q", [0.5, 0.7])
def test_pw_m_zero_function(q):
    p = QParams(q=q, alpha=0.5)
    F = GridFunction.zeros(p, LatticeWindow(-4, 8, -4, 8))
    sup, per_n = pw_m_sup(F, PWmParams(m=3, a=2.0, N=6))
    assert sup == 0.0


def test_pw_m_finite_and_settled():
    p = QParams(q=0.5, alpha=0.5)
    f = make_bump(p, seed=54)
    R = support_radius(f)
    m = math.ceil(p.alpha + 1.5) + 1
    a = R / p.q ** (4 * m)
    F = forward(f)
    sup, per_n = pw_m_sup(F.grid, PWmParams(m=m, a=a, N=2 * m + 10), f_hat=f)
    assert math.isfinite(sup) and sup < 1e12
    run = np.maximum.accumulate(per_n)
    incs = np.diff(run)
    assert np.all(np.diff(incs) <= 1e-12 * max(1.0, run[-1]))


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.5])
def test_pw_m_reconstructed_preimage_matches_given_one(alpha):
    # the verify pw-m suite's bump; the reconstruction must drop the inverse's residue
    p = QParams(q=0.5, alpha=alpha)
    f = random_even_bump(p, LatticeWindow(-1, 3, -1, 3), seed=1, pad=1)
    m = math.ceil(alpha + 1.5) + 1
    pw = PWmParams(m=m, a=support_radius(f) / p.q ** (4 * m), N=2 * m + 10)
    F = forward(f).grid
    sup, per_n = pw_m_sup(F, pw)
    sup_f, per_n_f = pw_m_sup(F, pw, f_hat=f)
    assert abs(sup / sup_f - 1.0) <= 1e-6
    assert np.allclose(per_n, per_n_f, rtol=1e-6, atol=0.0)


def test_pw_m_sup_computes_no_log_norm(monkeypatch):
    # pw_m_sup reads |W^n F| alone, so the engine computes neither route's norm
    # for it; bandwidth_estimate reads both at every step
    from qweinstein import paleywiener

    calls, log_power_sum = [], paleywiener._log_power_sum

    def counted(*args):
        calls.append(1)
        return log_power_sum(*args)

    monkeypatch.setattr(paleywiener, "_log_power_sum", counted)
    f = random_even_bump(QParams(q=0.5, alpha=0.0), LatticeWindow(-1, 3, -1, 3), seed=1, pad=1)
    F = forward(f).grid
    pw_m_sup(F, PWmParams(m=3, a=2.0, N=16), f_hat=f)
    assert len(calls) == 0
    bandwidth_estimate(F, 16, f_hat=f)
    assert len(calls) == 2 * 16


@pytest.mark.parametrize("value,raises", [(1e-300, False), (1e-310, True)])
def test_engine_refuses_a_subnormal_preimage_peak(value, raises):
    # dividing by a subnormal peak multiplies by 1/s = inf; the transform has
    # already lost precision at that amplitude, so the engine names the cause
    p = QParams(q=0.5, alpha=0.0)
    f = single_point(p, 0, 0, value=value)
    F = forward(f).grid
    if not raises:
        assert abs(bandwidth_estimate(F, 5, f_hat=f).estimate - math.sqrt(2.0)) < 1e-6
        return
    for call in (lambda: pw_m_sup(F, PWmParams(m=2, a=2.0, N=5), f_hat=f),
                 lambda: bandwidth_estimate(F, 5, f_hat=f)):
        with pytest.raises(DivergenceError, match=r"n=1 peaks at the subnormal 2\.000e-310.*"
                                                  r"scale the input up"):
            call()


# ---------------------------------------------------------------------------
# constructive bound checks
# ---------------------------------------------------------------------------

def test_monomial_bound_zero_function():
    p = QParams(q=0.5, alpha=0.5)
    z = GridFunction.zeros(p, LatticeWindow(0, 3, 0, 3))
    lhs, rhs, _ = monomial_derivative_bound_check(z, 2, 2, 1, 1, 1)
    assert lhs == 0.0 and lhs <= rhs


@pytest.mark.parametrize("q,alpha", [(0.5, 0.0), (0.7, 0.5), (0.9, -0.5)])
def test_monomial_bound_random_bump(q, alpha):
    p = QParams(q=q, alpha=alpha)
    f = random_even_bump(p, LatticeWindow(0, 3, 0, 3), seed=55, pad=2)
    lhs, rhs, detail = monomial_derivative_bound_check(f, 2, 2, 1, 1, 1)
    assert lhs <= rhs
    assert detail["support_radius_out"] <= detail["support_radius_bound"] * (1 + 1e-12)


def test_monomial_bound_support_growth():
    # output vanishes outside B(0, q^-p R)
    p = QParams(q=0.5, alpha=0.5)
    f = random_even_bump(p, LatticeWindow(0, 3, 0, 3), seed=56, pad=3)
    lhs, rhs, detail = monomial_derivative_bound_check(f, 3, 3, 2, 1, 2)
    assert lhs <= rhs
    assert detail["support_radius_out"] <= detail["support_radius_bound"] * (1 + 1e-12)


def test_monomial_bound_preconditions():
    p = QParams(q=0.5, alpha=0.5)
    f = make_bump(p, seed=57)
    with pytest.raises(QDomainError):
        monomial_derivative_bound_check(f, 2, 2, 2, 1, 2)   # p >= n1 violates p < n1


@pytest.mark.parametrize("q,alpha", [(0.5, 0.0), (0.7, 0.5), (0.9, -0.5)])
def test_corollary_bound_random_bump(q, alpha):
    p = QParams(q=q, alpha=alpha)
    f = random_even_bump(p, LatticeWindow(0, 3, 0, 3), seed=58, pad=2)
    lhs, rhs, _ = radial_power_bound_check(f, 3, 1, 1, 1)
    assert lhs <= rhs


def test_weinstein_sup_bound_identity_k0():
    p = QParams(q=0.5, alpha=0.5)
    f = make_bump(p, seed=59)
    lhs, rhs, detail = weinstein_sup_bound_check(f, 0)
    assert detail["C_k"] == 1.0
    assert abs(lhs - rhs) < 1e-12 * max(1.0, rhs)


@pytest.mark.parametrize("k", [1, 2])
def test_weinstein_sup_bound_random(k):
    p = QParams(q=0.5, alpha=0.5)
    f = make_bump(p, seed=60 + k)
    lhs, rhs, _ = weinstein_sup_bound_check(f, k)
    assert lhs <= rhs


def test_weinstein_expansion_pointwise_k1():
    # W f = d2f/dx2 + q^(2a+1) d2f/dy2 + [2a+1]_q (1/y) df/dy, checked
    # pointwise; the operator-table form with -q[-2a-1]_q in place of
    # [2a+1]_q only coincides at alpha in {0, -1/2}
    for alpha in (-0.5, 0.0, 0.5, 1.25):
        p = QParams(q=0.5, alpha=alpha)
        q = p.q
        f = make_bump(p, seed=70, pad=3)
        wf = weinstein_op(f, 1)
        d2x = dq_partial(dq_partial(f, 1), 1)
        d1y = dq_partial(f, 2)
        d2y = dq_partial(d1y, 2)
        y = f.x2_values()[None, None, :]
        bracket = (1 - q ** (2 * alpha + 1)) / (1 - q)
        expanded = d2x.samples + q ** (2 * alpha + 1) * d2y.samples + bracket * d1y.samples / y
        s1, s2 = wf.window.untainted_slices()
        scale = np.max(np.abs(wf.samples[:, s1, s2]))
        assert np.max(np.abs(wf.samples[:, s1, s2] - expanded[:, s1, s2])) < 1e-11 * scale
        if alpha in (0.0, -0.5):
            legacy = -q * (1 - q ** (-2 * alpha - 1)) / (1 - q)
            assert abs(legacy - bracket) < 1e-13


# ---------------------------------------------------------------------------
# Sonine identity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [0.5, 0.7, 0.9])
def test_sonine_identity_all_q(q):
    p = QParams(q=q, alpha=0.0)
    err = sonine_identity_check(0.0, 1, list(range(-2, 5)), p)
    assert err <= 1e-8


@pytest.mark.parametrize("q", [0.95, 0.99, 0.999])
def test_sonine_identity_near_q_one(q):
    # the Jackson sum runs until its weight falls below 2^-60, not a fixed 120
    # terms, and Gamma_{q^2} holds at base 0.998
    p = QParams(q=q, alpha=0.0)
    for alpha, order in ((0.0, 1), (0.5, 2)):
        assert sonine_identity_check(alpha, order, list(range(-2, 5)), p) <= 1e-12


def test_sonine_identity_past_the_family_frontier():
    # at q = 0.01 the kernel families end at k = -1: j(q^-2) and j(q^-3) come from
    # the direct series, as they did before the check read the families
    p = QParams(q=0.01, alpha=0.0)
    assert sonine_identity_check(0.0, 1, list(range(-2, 5)), p) <= 1e-8
    assert sonine_identity_check(0.5, 2, [-3], p) <= 1e-4   # only y below the frontier


def test_sonine_identity_past_q_0_9995_raises():
    # the Jackson sum's term count grows like 1/(1-q): no unbounded work near q = 1
    with pytest.raises(DivergenceError, match="serves q <= 0.9995"):
        sonine_identity_check(0.0, 1, [0], QParams(q=0.9999, alpha=0.0))


def test_sonine_identity_bits_do_not_depend_on_an_earlier_forward():
    # the check asks for the family of j_{1/2} from k = -2, a forward at the same
    # (q, alpha) for a deeper range: the memo must not serve one from the other.
    # The max over y can hide the last bits of y = -2, so each y is checked alone too
    p = QParams(q=0.5, alpha=0.0)
    ys = [list(range(-2, 5))] + [[y] for y in range(-2, 5)]
    clear_family_memos()
    before = np.array([sonine_identity_check(0.5, 2, y, p) for y in ys])
    clear_family_memos()
    forward(make_bump(QParams(q=0.5, alpha=0.5), seed=55))
    after = np.array([sonine_identity_check(0.5, 2, y, p) for y in ys])
    assert np.array_equal(after.view(np.int64), before.view(np.int64))


def test_sonine_identity_tiny_argument():
    p = QParams(q=0.5, alpha=0.0)
    err = sonine_identity_check(0.0, 1, [30], p)   # y ~ 0: both sides ~ 1
    assert err <= 1e-12


@pytest.mark.parametrize("q,alpha", [(0.5, 0.5), (0.7, 0.0)])
def test_weinstein_sup_bound_ladder_matches_direct_derivatives(q, alpha):
    from qweinstein.qops import dq_mixed

    f = random_even_bump(QParams(q=q, alpha=alpha), LatticeWindow(0, 3, 0, 3), 5, pad=2)
    _, _, detail = weinstein_sup_bound_check(f, 2)
    fpad = embed_zeros(f, 6, 6)
    direct = max(float(np.max(np.abs(dq_mixed(fpad, (2 * p1, 2 * p2)).samples)))
                 for p1 in range(3) for p2 in range(3))
    assert detail["max_derivative_sup"] == direct


# ---------------------------------------------------------------------------
# the constructive bounds hold on random bumps, odd and even degrees
# ---------------------------------------------------------------------------

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_BOUND_PROPERTY = settings(max_examples=40, deadline=None)
# with no derivative taken the bound can be attained; its two sides then
# differ by the rounding of their products
_ULPS = 1.0 + 1e-15


def _bound_bump(q, alpha, seed):
    return random_even_bump(QParams(q=q, alpha=alpha), LatticeWindow(0, 3, 0, 3), seed, pad=2)


@_BOUND_PROPERTY
@given(q=st.floats(0.1, 0.9), alpha=st.floats(-0.5, 1.5), seed=st.integers(0, 2**32 - 1),
       p=st.integers(1, 3), dn1=st.integers(1, 2), dn2=st.integers(1, 2),
       p1=st.integers(0, 3), p2=st.integers(0, 3))
@example(q=0.3, alpha=1.0, seed=4, p=2, dn1=1, dn2=1, p1=1, p2=1)
def test_monomial_bound_holds_on_random_bumps(q, alpha, seed, p, dn1, dn2, p1, p2):
    # degrees n = p + dn run over 2..5; with odd n2 the samples hold |t2|^n2 f
    lhs, rhs, _ = monomial_derivative_bound_check(_bound_bump(q, alpha, seed), p + dn1, p + dn2,
                                                  min(p1, p), min(p2, p), p)
    assert lhs <= rhs * _ULPS


@_BOUND_PROPERTY
@given(q=st.floats(0.1, 0.9), alpha=st.floats(-0.5, 1.5), seed=st.integers(0, 2**32 - 1),
       n=st.integers(1, 3), i=st.integers(0, 2), j=st.integers(0, 2))
def test_radial_bound_holds_on_random_bumps(q, alpha, seed, n, i, j):
    lhs, rhs, _ = radial_power_bound_check(_bound_bump(q, alpha, seed), n, i, j, max(i, j))
    assert lhs <= rhs * _ULPS


@settings(max_examples=20, deadline=None)
@given(q=st.sampled_from(FOUR_Q), alpha=st.sampled_from([0.0, 0.5, 1.5]),
       seed=st.integers(0, 2**32 - 1))
def test_bandwidth_estimate_scales_with_the_support(q, alpha, seed):
    # g(x) = f(x / q) has q times f's support radius (up to the rounding of
    # the radius's square root), and with the preimage given the estimate
    # follows at every q, also where the isometry fails
    f = make_bump(QParams(q=q, alpha=alpha), seed, 0, 3, 0, 3)
    g = dilated(f)
    rf = bandwidth_estimate(forward(f).grid, 20, f_hat=f)
    rg = bandwidth_estimate(forward(g).grid, 20, f_hat=g)
    assert abs(rg.oracle_radius - q * rf.oracle_radius) <= 4e-16 * q * rf.oracle_radius
    assert abs(rg.estimate - q * rf.estimate) <= 1e-13 * q * rf.estimate


def _engine_on_a_box(q, alpha, box, seed, zero_p, N):
    """The engine on a bump over box, with each cell zeroed with probability zero_p."""
    f = make_bump(QParams(q=q, alpha=alpha), seed, *box)
    keep = np.random.default_rng(seed).random(f.samples.shape) >= zero_p
    return TransformSideIterates(f.with_samples(f.samples * keep), N)


def _branches(eng):
    """The branches of TransformSideIterates.run's fast paths that eng reaches."""
    hit = set()
    cut = eng._core_cutoff(np.arange(1, eng.N + 1))
    if np.any(np.sum(eng.window.n1_exponents()[:, None] <= cut, axis=0) <= 1):
        hit.add("core of 0 or 1 shells")
    nonzero = np.count_nonzero(eng.f_hat.samples)
    for st_ in eng.run():
        if np.count_nonzero(st_.eta) < nonzero:
            hit.add("eta entries underflow to 0")
        if not np.abs(st_.values).all():
            hit.add("exact zeros in |G|")
    return hit


# inputs that reach each branch: at q = 0.8 the core narrows below the stencil's
# reach; at q = 1/2 the 7x7 box's r^2 spans 2^12 per step, so from n = 90 on eta
# holds entries that underflowed to 0; at q = 0.7 the window's deep shells hold
# exact zeros of the transform
_BRANCH_EXAMPLES = {
    "core of 0 or 1 shells": dict(q=0.8, alpha=0.0, box=(0, 2, 0, 2), seed=81, zero_p=0.0,
                                  N=50),
    "eta entries underflow to 0": dict(q=0.5, alpha=0.5, box=(-2, 4, -2, 4), seed=5,
                                       zero_p=0.0, N=120),
    "exact zeros in |G|": dict(q=0.7, alpha=1.5, box=(-1, 2, 0, 3), seed=6, zero_p=0.25, N=20),
}


@pytest.mark.parametrize("branch", sorted(_BRANCH_EXAMPLES))
def test_the_branch_examples_reach_their_branch(branch):
    assert branch in _branches(_engine_on_a_box(**_BRANCH_EXAMPLES[branch]))


_EDGES = st.lists(st.integers(-2, 4), min_size=2, max_size=2).map(sorted)


@settings(max_examples=15, deadline=None)
@given(q=st.sampled_from((0.5, aligned_q(2), 0.7, 0.8)), alpha=st.sampled_from((0.0, 0.5, 1.5)),
       box=st.tuples(_EDGES, _EDGES).map(lambda e: (*e[0], *e[1])),
       seed=st.integers(0, 2**32 - 1), zero_p=st.sampled_from((0.0, 0.25)),
       N=st.integers(1, 120))
@example(**_BRANCH_EXAMPLES["core of 0 or 1 shells"])
@example(**_BRANCH_EXAMPLES["eta entries underflow to 0"])
@example(**_BRANCH_EXAMPLES["exact zeros in |G|"])
def test_run_is_bit_identical_to_the_plain_loop_on_random_boxes(q, alpha, box, seed, zero_p, N):
    # the boxes lie inside -2..4, some cells zero; N reaches past the underflow at n = 90
    eng = _engine_on_a_box(q, alpha, box, seed, zero_p, N)
    for st_, (values, scalars, _) in zip(eng.run(), _reference_run(eng), strict=True):
        assert np.array_equal(st_.values.view(np.int64), values.view(np.int64))
        got = [st_.log_scale, st_.core_fraction, st_.log_norm_sq_literal,
               st_.log_norm_sq_spectral]
        assert np.array_equal(np.array(got).view(np.int64), np.array(scalars).view(np.int64))
