import math

import numpy as np
import pytest

from qweinstein import (
    GridFunction,
    Kernel,
    LatticeWindow,
    QParams,
    auto_lambda_window,
    bessel_j,
    forward,
    identity_suite,
    inverse,
    kernel_eval,
    lp_norm,
    normalization_K,
    orthogonality_check,
    qexp,
    qshifted,
)
from qweinstein.qcore import aligned_q, qgamma_base
from qweinstein.qintegrate import mu_weights
from qweinstein.qops import EVEN, weinstein_op
from qweinstein.transform import (
    apply_weinstein_spectrally,
    embed_zeros,
    riemann_lebesgue_trend,
)
from .conftest import make_bump, max_rel

K_05_05 = 0.3710633704920698050136   # frozen oracle


def single_point(params, a_exp=1, b_exp=0, sign=1, lo=-2, hi=3):
    w = LatticeWindow(lo, hi, lo, hi)
    arr = np.zeros(w.shape, dtype=complex)
    arr[0 if sign == 1 else 1, a_exp - w.n1_min, b_exp - w.n2_min] = 1.0
    return GridFunction(params, w, EVEN, arr)


# ---------------------------------------------------------------------------
# kernel scalars
# ---------------------------------------------------------------------------

def test_kernel_at_small_arguments_near_one():
    p = QParams(q=0.5, alpha=0.5)
    v = kernel_eval((1e-9, 1e-9), (1.0, 1.0), p)
    assert abs(v - 1.0) < 1e-8


def test_normalization_special_alpha():
    # at alpha = -1/2 the constant collapses to (1+q) / (2 G_{q^2}(1/2)^2)
    q = 0.5
    p = QParams(q=q, alpha=-0.5)
    g = qgamma_base(0.5, q * q)
    assert abs(normalization_K(p) - (1 + q) / (2 * g * g)) < 1e-14


def test_normalization_positive_and_frozen():
    for q, a in ((0.3, 0.0), (0.5, 0.5), (0.9, 1.5)):
        assert normalization_K(QParams(q=q, alpha=a)) > 0
    assert abs(normalization_K(QParams(q=0.5, alpha=0.5)) - K_05_05) < 1e-14


def test_kernel_sup_bound_real_lattice():
    # |Lambda| <= 4/(q;q)_inf^2 over lattice points; aligned q so the deep
    # lattice family decays
    p = QParams(q=0.5, alpha=0.5)
    bound = Kernel(p, (0.5, 0.5)).sup_bound()
    q = p.q
    rng = np.random.default_rng(5)
    for _ in range(200):
        # products stay within the series-resolvable zone; the deep lattice
        # range is covered by the family-based acceptance criterion
        m1, m2, n1, n2 = rng.integers(-3, 7, size=4)
        s = 1 if rng.random() < 0.5 else -1
        lam = (s * q ** int(m1), q ** int(m2))
        x = (q ** int(n1), q ** int(n2))
        assert abs(kernel_eval(lam, x, p)) <= bound * (1 + 1e-9)


def test_kernel_complex_growth_bound():
    p = QParams(q=0.5, alpha=0.5)
    q = p.q
    a = q ** (-2)
    rng = np.random.default_rng(6)
    for _ in range(60):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        x = (q ** int(rng.integers(2, 6)), q ** int(rng.integers(2, 6)))
        v = kernel_eval((z[0], z[1]), x, p)
        bnd = 4.0 * math.exp(2 * a * (1 + math.sqrt(q)) * float(np.hypot(abs(z[0]), abs(z[1]))))
        assert abs(v) <= bnd


# ---------------------------------------------------------------------------
# forward / inverse
# ---------------------------------------------------------------------------

def test_forward_of_zero():
    p = QParams(q=0.5, alpha=0.5)
    z = GridFunction.zeros(p, LatticeWindow(-2, 3, -2, 3))
    F = forward(z, lambda_window=LatticeWindow(-4, 6, -4, 6))
    assert np.all(F.grid.samples == 0)
    assert F.tail_bound == 0.0


def test_forward_single_point_closed_form():
    p = QParams(q=0.5, alpha=0.5)
    q = p.q
    a_exp, b_exp = 1, 0
    f = single_point(p, a_exp, b_exp)
    w0 = (1 - q) ** 2 * q**a_exp * (q**b_exp) ** (2 * p.alpha + 2)
    K = normalization_K(p)
    F = forward(f, lambda_window=LatticeWindow(-3, 6, -3, 6)).grid
    for sl, m1, m2 in ((1, 0, 0), (-1, 2, 1), (1, -2, 3), (-1, 4, -1), (1, 1, -3)):
        lam = (sl * q**m1, q**m2)
        want = K * w0 * kernel_eval(lam, (q**a_exp, q**b_exp), p)
        got = F.value_at(sl, m1, m2)
        assert abs(got - want) <= 1e-12 * abs(want)


def test_forward_sup_norm_bound():
    # ||F f||_inf <= 4 K / (q;q)_inf^2 * ||f||_1
    p = QParams(q=0.5, alpha=0.5)
    f = make_bump(p, seed=31)
    F = forward(f).grid
    K = normalization_K(p)
    qq = qshifted(p.q, math.inf, p)
    bound = 4.0 * K / qq**2 * lp_norm(f, 1.0)
    assert lp_norm(F, math.inf) <= bound * (1 + 1e-12)


def test_inverse_of_zero():
    p = QParams(q=0.5, alpha=0.5)
    z = GridFunction.zeros(p, LatticeWindow(-4, 8, -4, 8))
    back = inverse(z, x_window=LatticeWindow(-2, 3, -2, 3))
    assert np.all(back.grid.samples == 0)


def test_round_trip_inversion():
    p = QParams(q=0.5, alpha=0.0)
    f = make_bump(p, seed=32, lo1=-3, hi1=5, lo2=-3, hi2=5, pad=1)
    F = forward(f)
    back = inverse(F.grid, x_window=f.window)
    err = lp_norm(f.with_samples(back.grid.samples - f.samples), 2.0) / lp_norm(f, 2.0)
    assert err <= 1e-6


def test_inverse_is_forward_with_reflected_sign():
    # inverse(F)(x1, x2) = forward(F)(-x1, x2) pointwise
    p = QParams(q=0.5, alpha=0.5)
    f = make_bump(p, seed=33)
    F = forward(f).grid
    xw = LatticeWindow(-2, 4, -2, 4)
    a = inverse(F, x_window=xw).grid.samples
    b = forward(F, lambda_window=xw).grid.samples
    assert np.allclose(a, b[::-1, :, :], rtol=0, atol=1e-14 * np.max(np.abs(b)))


def test_plancherel_aligned():
    p = QParams(q=0.5, alpha=0.5)
    for seed in (40, 41):
        f = make_bump(p, seed=seed, lo1=-4, hi1=8, lo2=-4, hi2=8, pad=1)
        F = forward(f)
        ratio = lp_norm(F.grid, 2.0) / lp_norm(f, 2.0)
        assert abs(ratio - 1) <= 1e-8
        assert F.tail_bound < 1e-8


def test_plancherel_near_aligned_q_documented_accuracy():
    # at the double-rounded aligned roots the kernel decay truncates at the
    # alignment residual; the isometry then holds only to ~1e-3
    p = QParams(q=aligned_q(3), alpha=0.5)
    f = make_bump(p, seed=42, lo1=-2, hi1=4, lo2=-2, hi2=4, pad=1)
    F = forward(f)
    ratio = lp_norm(F.grid, 2.0) / lp_norm(f, 2.0)
    assert abs(ratio - 1) <= 5e-2
    assert abs(ratio - 1) > 1e-8   # genuinely limited, not a tolerance artifact


def test_plancherel_fails_at_misaligned_q():
    # documents the obstruction: at generic q the spectral sums diverge and
    # no window achieves an isometry
    p = QParams(q=0.7, alpha=0.5)
    f = make_bump(p, seed=43, lo1=-2, hi1=4, lo2=-2, hi2=4, pad=1)
    F = forward(f)
    ratio = lp_norm(F.grid, 2.0) / lp_norm(f, 2.0)
    assert abs(ratio - 1) > 1e-3
    assert F.tail_bound > 1e-6


def test_riemann_lebesgue_trend():
    p = QParams(q=0.5, alpha=0.5)
    f = make_bump(p, seed=44)
    sups = riemann_lebesgue_trend(f, n_shells=4)
    assert all(sups[i + 1] <= sups[i] * (1 + 1e-9) for i in range(len(sups) - 1))


def test_spectral_vs_literal_weinstein():
    p = QParams(q=0.5, alpha=0.5)
    f = make_bump(p, seed=45, pad=3)
    direct = weinstein_op(f, 1)
    spectral = apply_weinstein_spectrally(f)
    s1, s2 = direct.window.untainted_slices()
    num = np.max(np.abs(direct.samples[:, s1, s2] - spectral.samples[:, s1, s2]))
    den = np.max(np.abs(direct.samples[:, s1, s2]))
    assert num / den <= 1e-6


def test_forward_linearity_and_conjugation():
    p = QParams(q=0.5, alpha=0.5)
    f = make_bump(p, seed=46)
    g = make_bump(p, seed=47)
    w = LatticeWindow(-4, 8, -4, 8)
    a, b = 0.7, -1.2 + 0.4j
    Fsum = forward(f.with_samples(a * f.samples + b * g.samples), lambda_window=w).grid.samples
    Fa = forward(f, lambda_window=w).grid.samples
    Fb = forward(g, lambda_window=w).grid.samples
    assert np.max(np.abs(Fsum - a * Fa - b * Fb)) <= 1e-13 * np.max(np.abs(Fsum))
    # conjugation: transform of conj(f) = conj of inverse-kernel transform
    Fc = forward(f.with_samples(np.conj(f.samples)), lambda_window=w).grid.samples
    Fi = forward(f, lambda_window=w, _conj=True).grid.samples
    assert np.max(np.abs(Fc - np.conj(Fi))) <= 1e-13 * np.max(np.abs(Fc))


# ---------------------------------------------------------------------------
# identities and orthogonality
# ---------------------------------------------------------------------------

def test_identity_suite_zero_function():
    p = QParams(q=0.5, alpha=0.5)
    z = GridFunction.zeros(p, LatticeWindow(-1, 2, -1, 2))
    rep = identity_suite(z)
    assert all(v == 0.0 for v in rep.values())


def test_identity_suite_tolerances():
    p = QParams(q=0.5, alpha=0.5)
    f = make_bump(p, seed=48)
    g = make_bump(p, seed=49)
    rep = identity_suite(f, g)
    assert rep["weinstein_eigen"] <= 1e-7
    assert rep["derivative_to_multiplier"] <= 1e-7
    assert rep["multiplier_to_derivative"] <= 1e-7
    assert rep["pairing_symmetry"] <= 1e-8


def test_orthogonality_diagonal_and_offdiagonal():
    p = QParams(q=0.5, alpha=0.5)
    x = (1, 1, 0)
    res = orthogonality_check(x, x, p)
    assert abs(res.value / res.predicted_diagonal - 1) <= 1e-3
    y = (1, 3, 2)
    res_off = orthogonality_check(x, y, p)
    assert abs(res_off.value) <= 1e-3 * res.predicted_diagonal
    assert res_off.predicted_diagonal == 0.0


def test_orthogonality_sign_separated_points():
    p = QParams(q=0.5, alpha=0.0)
    x = (1, 0, 0)
    res_d = orthogonality_check(x, x, p)
    res_o = orthogonality_check(x, (-1, 0, 0), p)
    assert abs(res_o.value) <= 1e-3 * res_d.predicted_diagonal


def test_family_cache_keyed_on_policy():
    # a call under another TruncationPolicy must not reuse the kernel
    # families cached under the default one
    from qweinstein import TruncationPolicy, transform

    p = QParams(q=0.5, alpha=0.5)
    f = make_bump(p, seed=30)
    loose = TruncationPolicy(series_tol=1e-3)
    transform._FAMILY_CACHE.clear()
    forward(f)
    warm = forward(f, policy=loose).grid.samples
    transform._FAMILY_CACHE.clear()
    cold = forward(f, policy=loose).grid.samples
    assert np.array_equal(warm, cold)


def test_forward_matches_direct_kernel_sum():
    # every lattice point of a bump filled on both signs of x1, summed
    # against the series kernel: a swapped sign in the odd (sine) part of
    # the sign-split contraction shows here
    p = QParams(q=0.5, alpha=0.5)
    q = p.q
    f = make_bump(p, seed=50, lo1=-1, hi1=2, lo2=-1, hi2=2)
    assert np.all(f.samples[:, 1:-1, 1:-1] != 0)
    lam_win = LatticeWindow(-1, 2, -1, 2)
    F = forward(f, lambda_window=lam_win).grid
    K = normalization_K(p)
    want = np.zeros(lam_win.shape, dtype=complex)
    for sl, i1, i2 in np.ndindex(*lam_win.shape):
        lam = ((1 - 2 * sl) * q ** float(lam_win.n1_min + i1), q ** float(lam_win.n2_min + i2))
        for sx, j1, j2 in zip(*np.nonzero(f.samples)):
            n1, n2 = f.window.n1_min + j1, f.window.n2_min + j2
            x = ((1 - 2 * sx) * q ** float(n1), q ** float(n2))
            dmu = (1 - q) ** 2 * q**n1 * q ** ((2 * p.alpha + 2) * n2)
            want[sl, i1, i2] += K * f.samples[sx, j1, j2] * dmu * kernel_eval(lam, x, p)
    assert max_rel(F.samples, want) <= 1e-12


def test_inverse_matches_direct_kernel_sum():
    # the inverse sums against the conjugate kernel e(+i l1 x1) j(l2 x2):
    # a sign slip in the conjugated (sine) part of the contraction shows here
    p = QParams(q=0.5, alpha=0.5)
    q = p.q
    F = make_bump(p, seed=53, lo1=-1, hi1=2, lo2=-1, hi2=2)
    assert np.all(F.samples[:, 1:-1, 1:-1] != 0)
    x_win = LatticeWindow(-1, 2, -1, 2)
    f = inverse(F, x_window=x_win).grid
    K = normalization_K(p)
    want = np.zeros(x_win.shape, dtype=complex)
    for sx, i1, i2 in np.ndindex(*x_win.shape):
        x_conj = (-(1 - 2 * sx) * q ** float(x_win.n1_min + i1), q ** float(x_win.n2_min + i2))
        for sl, j1, j2 in zip(*np.nonzero(F.samples)):
            m1, m2 = F.window.n1_min + j1, F.window.n2_min + j2
            lam = ((1 - 2 * sl) * q ** float(m1), q ** float(m2))
            dmu = (1 - q) ** 2 * q**m1 * q ** ((2 * p.alpha + 2) * m2)
            want[sx, i1, i2] += K * F.samples[sl, j1, j2] * dmu * kernel_eval(x_conj, lam, p)
    assert max_rel(f.samples, want) <= 1e-12


def _edge_decay_tail(G: GridFunction) -> float:
    """The tail rule restated: per window edge, the edge shell's L2 mass times
    r / (1 - r), r the edge-to-next-shell mass ratio (0.9 when the mass does
    not decay, at most 0.95), summed and divided by the total mass."""
    mass = np.abs(G.samples) ** 2 * mu_weights(G)
    shells = [(mass[:, 0, :], mass[:, 1, :]), (mass[:, -1, :], mass[:, -2, :]),
              (mass[:, :, 0], mass[:, :, 1]), (mass[:, :, -1], mass[:, :, -2])]
    tails = 0.0
    for edge, nxt in ((float(e.sum()), float(n.sum())) for e, n in shells):
        if edge != 0.0:
            r = min(edge / nxt if nxt > edge else 0.9, 0.95)
            tails += edge * r / (1.0 - r)
    return tails / float(mass.sum())


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_tail_bound_is_the_edge_shell_decay_rule(alpha):
    p = QParams(q=0.5, alpha=alpha)
    f = make_bump(p, seed=54, lo1=-2, hi1=4, lo2=-2, hi2=4)
    F = forward(f)
    assert F.tail_bound == _edge_decay_tail(F.grid)
    back = inverse(F.grid)
    assert back.tail_bound == _edge_decay_tail(back.grid)
    fixed = forward(f, lambda_window=LatticeWindow(-4, 6, -4, 6))
    assert fixed.tail_bound == _edge_decay_tail(fixed.grid) > 0.0


def test_auto_window_builds_one_weight_table_per_window(monkeypatch):
    # one table for the input's edge check and one for the generous window,
    # whose slice serves the tail report of the trimmed window
    from qweinstein import transform

    def extents(w):
        return (w.n1_min, w.n1_max, w.n2_min, w.n2_max)

    tables = []
    build = transform.mu_table

    def counted(window, params):
        tables.append(extents(window))
        return build(window, params)

    monkeypatch.setattr(transform, "mu_table", counted)
    p = QParams(q=0.5, alpha=0.5)
    G = make_bump(p, seed=55)
    for run in (forward, inverse):
        tables.clear()
        out = run(G).grid
        w = out.window
        assert len(tables) == 2 and tables[0] == extents(G.window)
        lo1, hi1, lo2, hi2 = tables[1]
        assert lo1 <= w.n1_min and hi1 >= w.n1_max and lo2 <= w.n2_min and hi2 >= w.n2_max
        assert tables[1] != extents(w)        # the trimmed window has no table of its own
        G = out


def test_auto_window_transform_matches_fixed_window():
    p = QParams(q=0.5, alpha=0.0)
    f = make_bump(p, seed=51, lo1=-3, hi1=5, lo2=-3, hi2=5)
    F = forward(f).grid
    win = auto_lambda_window(f)
    assert F.window == win
    fixed = forward(f, lambda_window=win).grid.samples
    assert np.max(np.abs(F.samples - fixed)) <= 1e-14 * np.max(np.abs(fixed))
    back = inverse(F).grid
    x_win = auto_lambda_window(F)
    assert back.window == x_win
    fixed = inverse(F, x_window=x_win).grid.samples
    assert np.max(np.abs(back.samples - fixed)) <= 1e-14 * np.max(np.abs(fixed))


def test_auto_window_makes_one_contraction(monkeypatch):
    from qweinstein import transform

    calls = []
    contract = transform._transform_array

    def counted(*args, **kwargs):
        calls.append(1)
        return contract(*args, **kwargs)

    monkeypatch.setattr(transform, "_transform_array", counted)
    p = QParams(q=0.5, alpha=0.5)
    F = forward(make_bump(p, seed=52)).grid
    assert len(calls) == 1
    inverse(F)
    assert len(calls) == 2


def test_identity_suite_builds_each_kernel_once(monkeypatch):
    from collections import Counter

    from qweinstein import transform

    builds = Counter()
    build = transform._kernel_matrices

    def extents(w):
        return (w.n1_min, w.n1_max, w.n2_min, w.n2_max)

    def counted(in_window, out_window, *args):
        builds[extents(in_window), extents(out_window)] += 1
        return build(in_window, out_window, *args)

    monkeypatch.setattr(transform, "_kernel_matrices", counted)
    p = QParams(q=0.5, alpha=0.5)
    f = make_bump(p, seed=61, lo1=-2, hi1=3, lo2=-2, hi2=3, pad=0)
    rep = identity_suite(f)
    pad = 2 * 2 + 2 * 2 + 2     # the suite's x-side padding for n_max = p_max = 2
    w = f.window
    fpad = (w.n1_min - pad, w.n1_max + pad, w.n2_min - pad, w.n2_max + pad)
    assert builds[fpad, extents(rep.lambda_window)] == 1
    assert max(builds.values()) == 1


# ---------------------------------------------------------------------------
# lattice dilation covariance
# ---------------------------------------------------------------------------

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@settings(max_examples=40, deadline=None)
@given(q=st.just(0.5) | st.floats(0.1, 0.9),
       alpha=st.integers(-1, 3).map(lambda k: k / 2) | st.floats(-0.5, 1.5),
       lo1=st.integers(-3, 2), lo2=st.integers(-3, 2), w1=st.integers(0, 3), w2=st.integers(0, 3),
       m1=st.integers(-6, 2), m2=st.integers(-6, 2), v1=st.integers(0, 6), v2=st.integers(0, 6),
       seed=st.integers(0, 2**32 - 1))
@example(q=0.5, alpha=0.0, lo1=-2, lo2=-2, w1=3, w2=3, m1=-4, m2=-4, v1=6, v2=6, seed=1)
@example(q=0.5, alpha=1.5, lo1=-2, lo2=-2, w1=3, w2=3, m1=-4, m2=-4, v1=6, v2=6, seed=2)
@example(q=0.7, alpha=0.5, lo1=-2, lo2=-2, w1=3, w2=3, m1=-4, m2=-4, v1=6, v2=6, seed=3)
@example(q=0.9, alpha=-0.5, lo1=-2, lo2=-2, w1=3, w2=3, m1=-4, m2=-4, v1=6, v2=6, seed=4)
def test_forward_is_covariant_under_lattice_dilation(q, alpha, lo1, lo2, w1, w2, m1, m2, v1, v2,
                                                     seed):
    # g(x) = f(x / q) holds f's samples on the window shifted by +1 in both
    # exponents; the kernel families depend on k = m + n only and the weights
    # are monomials, so forward(g) on the lambda-window shifted by -1 is
    # q^(2a+3) forward(f).  At q = 1/2 with 2a an integer every weight
    # ratio is a power of two and the identity holds bit for bit
    p = QParams(q=q, alpha=alpha)
    f = make_bump(p, seed, lo1, lo1 + w1, lo2, lo2 + w2, pad=2)
    w = f.window
    g = GridFunction(p, LatticeWindow(w.n1_min + 1, w.n1_max + 1, w.n2_min + 1, w.n2_max + 1),
                     EVEN, f.samples)
    lam = LatticeWindow(m1, m1 + v1, m2, m2 + v2)
    lam_g = LatticeWindow(m1 - 1, m1 + v1 - 1, m2 - 1, m2 + v2 - 1)
    lhs = forward(g, lambda_window=lam_g).grid.samples
    rhs = q ** (2.0 * alpha + 3.0) * forward(f, lambda_window=lam).grid.samples
    tol = 0.0 if q == 0.5 and (2.0 * alpha).is_integer() else 4e-15
    assert np.max(np.abs(lhs - rhs)) <= tol * np.max(np.abs(rhs))
