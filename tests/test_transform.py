import functools
import math

import numpy as np
import pytest

from qweinstein import (
    DivergenceError,
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
from qweinstein.transform import embed_zeros, norm_sq_lambda
from .conftest import FOUR_Q, clear_family_memos, dilated, make_bump, max_rel

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


def test_window_past_the_frontier_reports_an_infinite_tail():
    # the transform is exactly 0 past the kernel frontier, so a window there keeps none
    # of a bump's mass: all of it lies beyond; a zero input has no tail at all
    p = QParams(q=0.5, alpha=0.0)
    f = make_bump(p, seed=7, lo1=-2, hi1=4, lo2=-2, hi2=4)
    past = LatticeWindow(-40, -30, -40, -30)
    F = forward(f, lambda_window=past)
    assert np.all(F.grid.samples == 0) and F.tail_bound == math.inf
    assert forward(GridFunction.zeros(p, f.window), lambda_window=past).tail_bound == 0.0


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
        got = F.samples[(1 - sl) // 2, m1 - F.window.n1_min, m2 - F.window.n2_min]
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


@pytest.mark.xfail(strict=True, reason=(
    "the automatic window's inner spectral edge ceil(-ln(tol*1e-3)/ln(1/q)) ignores the "
    "input's n1_min, so a support deep in the lattice gets a window that misses its transform"))
@pytest.mark.parametrize("lo1", [-30, -45])
def test_plancherel_on_a_deep_support(lo1):
    p = QParams(q=0.5, alpha=0.0)
    f = make_bump(p, seed=1, lo1=lo1, hi1=lo1 + 5, lo2=0, hi2=2, pad=1)
    ratio = lp_norm(forward(f).grid, 2.0) / lp_norm(f, 2.0)
    assert abs(ratio - 1) <= 1e-10


def test_plancherel_holds_at_alpha_12():
    # the largest integer alpha whose generous-window weight table is finite at q = 1/2
    f = make_bump(QParams(q=0.5, alpha=12.0), seed=1, lo1=-2, hi1=4, lo2=-2, hi2=4, pad=1)
    ratio = lp_norm(forward(f).grid, 2.0) / lp_norm(f, 2.0)
    assert abs(ratio - 1) <= 1e-12


@pytest.mark.xfail(strict=True, raises=DivergenceError, reason=(
    "the automatic window's generous first window reaches n2 = -36, where the mu weight "
    "(1-q)^2 q^n1 q^(n2 (2 alpha + 2)) is e^722 at alpha = 13, past the float64 range"))
def test_plancherel_at_alpha_13():
    f = make_bump(QParams(q=0.5, alpha=13.0), seed=1, lo1=-2, hi1=4, lo2=-2, hi2=4, pad=1)
    ratio = lp_norm(forward(f).grid, 2.0) / lp_norm(f, 2.0)
    assert abs(ratio - 1) <= 1e-10


def test_riemann_lebesgue_trend():
    # sup of |transform| on the outermost spectral shell for growing windows
    p = QParams(q=0.5, alpha=0.5)
    f = make_bump(p, seed=44)
    w = f.window
    sups = []
    for t in range(4):
        outer = 6 + 2 * t
        win = LatticeWindow(-(outer + w.n1_max), 8, -(outer + w.n2_max), 8)
        F = forward(f, lambda_window=win).grid
        shell = np.concatenate([
            np.abs(F.samples[:, 0, :]).ravel(),
            np.abs(F.samples[:, :, 0]).ravel(),
        ])
        sups.append(float(shell.max()))
    assert all(sups[i + 1] <= sups[i] * (1 + 1e-9) for i in range(len(sups) - 1))


def test_spectral_vs_literal_weinstein():
    p = QParams(q=0.5, alpha=0.5)
    f = make_bump(p, seed=45, pad=3)
    direct = weinstein_op(f, 1)
    # multiply the transform by -||l||^2 and invert
    F = forward(f).grid
    G = F.with_samples(F.samples * -norm_sq_lambda(F.window, p))
    spectral = inverse(G, x_window=f.window).grid
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
    assert all(v == 0.0 for v in rep.discrepancies.values())


def test_identity_suite_tolerances():
    p = QParams(q=0.5, alpha=0.5)
    f = make_bump(p, seed=48)
    g = make_bump(p, seed=49)
    rep = identity_suite(f, g)
    assert rep.discrepancies["weinstein_eigen"] <= 1e-7
    assert rep.discrepancies["derivative_to_multiplier"] <= 1e-7
    assert rep.discrepancies["multiplier_to_derivative"] <= 1e-7
    assert rep.discrepancies["pairing_symmetry"] <= 1e-8


def test_identity_suite_skips_fully_tainted_spectral_rungs():
    # at q = 0.1 the frontier clip leaves a spectral window too shallow for any
    # derivative rung of (b): every order is skipped instead of raising TaintError
    p = QParams(q=0.1, alpha=0.0)
    f = make_bump(p, seed=1, lo1=-2, hi1=3, lo2=-2, hi2=3, pad=0)
    g = make_bump(p, seed=1001, lo1=-2, hi1=3, lo2=-2, hi2=3, pad=0)
    rep = identity_suite(f, g)
    orders = [(n, k) for n in range(3) for k in range(3) if n or k]
    assert rep.skipped_orders == orders + orders     # those of (a), then those of (b)
    assert [rep.discrepancies[k] for k in ("derivative_to_multiplier", "multiplier_to_derivative",
                                           "pairing_symmetry")] == [None, None, None]


def test_orthogonality_diagonal_and_offdiagonal():
    p = QParams(q=0.5, alpha=0.5)
    x = (1, 1, 0)
    res = orthogonality_check(x, x, p)
    assert abs(res.value / res.predicted_diagonal - 1) <= 1e-3
    y = (1, 3, 2)
    res_off = orthogonality_check(x, y, p)
    assert abs(res_off.value) <= 1e-3 * res.predicted_diagonal
    assert res_off.predicted_diagonal == 0.0


@pytest.mark.parametrize("alpha", [15.0, 30.0, 60.0])
def test_orthogonality_at_high_alpha(alpha):
    # the weight q^((2 alpha + 2) m) overflows at the deep shells, where the
    # families are exact zeros: no NaN from 0 * inf
    p = QParams(q=0.5, alpha=alpha)
    x = (1, 1, 0)
    res = orthogonality_check(x, x, p)
    assert math.isfinite(abs(res.value)) and math.isfinite(res.fluctuation)
    assert abs(res.value / res.predicted_diagonal - 1) <= 1e-3
    res_off = orthogonality_check(x, (1, 3, 2), p)
    assert abs(res_off.value) <= 1e-3 * res.predicted_diagonal


def test_orthogonality_sign_separated_points():
    p = QParams(q=0.5, alpha=0.0)
    x = (1, 0, 0)
    res_d = orthogonality_check(x, x, p)
    res_o = orthogonality_check(x, (-1, 0, 0), p)
    assert abs(res_o.value) <= 1e-3 * res_d.predicted_diagonal


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
    not decay, at most 0.95), summed and divided by the total mass.  Shell
    masses sum the two signs of x1 first, then along each axis; the total is
    the sum of the n1 shells."""
    mass = np.abs(G.samples) ** 2 * mu_weights(G)
    both = mass[0] + mass[1]
    rows, cols = both.sum(axis=1), both.sum(axis=0)
    tails = 0.0
    for shells in (rows, rows[::-1], cols, cols[::-1]):
        edge, nxt = float(shells[0]), float(shells[1])
        if edge != 0.0:
            r = min(edge / nxt if nxt > edge else 0.9, 0.95)
            tails += edge * r / (1.0 - r)
    return tails / float(rows.sum())


def _slice_sum_tail(G: GridFunction) -> float:
    """The same rule with each shell summed as one slice over both signs, and the
    total over the whole mass: the same numbers, rounded another way."""
    mass = np.abs(G.samples) ** 2 * mu_weights(G)
    shells = [(mass[:, 0, :], mass[:, 1, :]), (mass[:, -1, :], mass[:, -2, :]),
              (mass[:, :, 0], mass[:, :, 1]), (mass[:, :, -1], mass[:, :, -2])]
    tails = 0.0
    for edge, nxt in ((float(e.sum()), float(n.sum())) for e, n in shells):
        if edge != 0.0:
            r = min(edge / nxt if nxt > edge else 0.9, 0.95)
            tails += edge * r / (1.0 - r)
    return tails / float(mass.sum())


def _slice_sum_edge_share(f: GridFunction) -> float:
    """The input edge share with slice sums: the four edge shells' mass over the total."""
    mass = np.abs(f.samples) ** 2 * mu_weights(f)
    edges = (mass[:, 0, :], mass[:, -1, :], mass[:, :, 0], mass[:, :, -1])
    return sum(float(e.sum()) for e in edges) / float(mass.sum())


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_tail_bound_is_the_edge_shell_decay_rule(alpha):
    p = QParams(q=0.5, alpha=alpha)
    f = make_bump(p, seed=54, lo1=-2, hi1=4, lo2=-2, hi2=4)
    F = forward(f)
    back = inverse(F.grid)
    fixed = forward(f, lambda_window=LatticeWindow(-4, 6, -4, 6))
    assert fixed.tail_bound > 0.0
    for res, inp in ((F, f), (back, F.grid), (fixed, f)):
        assert res.tail_bound == _edge_decay_tail(res.grid)
        # only the rounding of the shell sums differs from slice sums
        ref = _slice_sum_tail(res.grid)
        assert abs(res.tail_bound - ref) <= 1e-13 * ref
        share, ref = res.diagnostics["input_edge_mass_ratio"], _slice_sum_edge_share(inp)
        assert abs(share - ref) <= 1e-13 * ref


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


def test_automatic_window_matches_fixed_window():
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


@pytest.mark.parametrize("q", FOUR_Q)
@pytest.mark.parametrize("alpha", [0.0, 1.5])
@pytest.mark.parametrize("support", [(-2, 4), (-20, 40)], ids=["7x7", "61x61"])
@pytest.mark.parametrize("direction", ["forward", "inverse"])
def test_automatic_window_is_the_fixed_window_transform(q, alpha, support, direction):
    # the automatic window's result R is the transform on R's window: the same
    # window, tail and diagnostics bit for bit.  The samples are compared to
    # 1e-14 of the peak, not bit for bit: the contraction onto the generous
    # window and onto the trimmed one tile their rows differently in OpenBLAS,
    # so on the 61x61 support the inverse at q = 0.7 and 0.9 differs in its last
    # 10 rows of l1 (relative 1.6e-25 at most); at q = 1/2 and aligned_q(2) the bits match
    p = QParams(q=q, alpha=alpha)
    f = make_bump(p, 27, *support, *support)
    if direction == "forward":
        transform, g = forward, f
    else:
        transform, g = functools.partial(inverse, edge_tol=math.inf), forward(f).grid
    R = transform(g)
    S = transform(g, R.grid.window)
    assert S.grid.window == R.grid.window
    assert S.tail_bound == R.tail_bound and S.diagnostics == R.diagnostics
    assert np.max(np.abs(S.grid.samples - R.grid.samples)) <= 1e-14 * np.max(
        np.abs(R.grid.samples))


def test_auto_window_makes_one_contraction(monkeypatch):
    from qweinstein import transform

    calls = []
    contract = transform._contract

    def counted(*args, **kwargs):
        calls.append(1)
        return contract(*args, **kwargs)

    monkeypatch.setattr(transform, "_contract", counted)
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
    pad = 2 * 2 + 2 * 2 + 2     # the suite's x-side padding for its orders n, p <= 2
    w = f.window
    fpad = (w.n1_min - pad, w.n1_max + pad, w.n2_min - pad, w.n2_max + pad)
    assert builds[fpad, extents(rep.lambda_window)] == 1
    assert max(builds.values()) == 1


# ---------------------------------------------------------------------------
# the kernel and weight-table memos
# ---------------------------------------------------------------------------

def _clear_memos():
    from qweinstein import qintegrate, transform

    transform._kernel_matrices.cache_clear()
    qintegrate.mu_table.cache_clear()


def _bits(arrays) -> list:
    return [np.ascontiguousarray(a).view(np.int64) for a in arrays]


def test_memoized_kernels_and_tables_are_read_only():
    from qweinstein import transform
    from qweinstein.qintegrate import mu_table

    p = QParams(q=0.5, alpha=0.5)
    win, lam = LatticeWindow(-2, 3, -2, 3), LatticeWindow(-6, 4, -5, 4)
    for a in transform._kernel_matrices(win, lam, p) + (mu_table(lam, p),):
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1.0


def test_memos_stay_bounded_and_keep_the_recent_entries():
    from qweinstein import qintegrate, transform
    from qweinstein.qintegrate import mu_table

    p = QParams(q=0.5, alpha=0.0)
    win = LatticeWindow(-1, 2, -1, 2)
    lams = [LatticeWindow(-8 - k, 4, -8, 4) for k in range(40)]
    _clear_memos()
    first = transform._kernel_matrices(win, lams[0], p)
    for lam in lams:
        kernel = transform._kernel_matrices(win, lam, p)
        table = mu_table(lam, p)
        # a hit returns the cached arrays themselves, and refreshes the first entry
        assert transform._kernel_matrices(win, lam, p) is kernel
        assert mu_table(lam, p) is table
        assert transform._kernel_matrices(win, lams[0], p) is first
    # the least recently used go first: lams[0], used in every round, stays
    # with the 15 newest, and lams[24] was dropped
    assert transform._kernel_matrices.cache_info().currsize == 16
    misses = transform._kernel_matrices.cache_info().misses
    for lam in lams[25:] + lams[:1]:
        transform._kernel_matrices(win, lam, p)
    assert transform._kernel_matrices.cache_info().misses == misses
    transform._kernel_matrices(win, lams[24], p)
    assert transform._kernel_matrices.cache_info().misses == misses + 1
    assert qintegrate.mu_table.cache_info().currsize == 8


def _memo_outputs(f: GridFunction) -> list:
    """Every array and number that forward, inverse, identity_suite and
    bandwidth_estimate give for f, in a fixed order."""
    from qweinstein import bandwidth_estimate

    out = []
    for res in (forward(f), forward(f, lambda_window=LatticeWindow(-6, 5, -6, 5))):
        back = inverse(res.grid)
        fixed = inverse(res.grid, x_window=f.window)
        for r in (res, back, fixed):
            w = r.grid.window
            out += [r.grid.samples, np.array([r.tail_bound, w.n1_min, w.n1_max, w.n2_min,
                                              w.n2_max], dtype=float)]
    rep = identity_suite(f)
    out.append(np.array(list(rep.discrepancies.values())))
    bw = bandwidth_estimate(forward(f).grid, 12)
    out += [np.array(bw.a_seq), np.array(bw.a_seq_literal), np.array(bw.core_fractions),
            np.array([bw.estimate, bw.oracle_radius, bw.route_max_rel_dev])]
    return out


def test_cold_and_warm_memos_give_the_same_bits():
    p = QParams(q=0.5, alpha=0.5)
    f = make_bump(p, seed=62, lo1=-2, hi1=4, lo2=-2, hi2=4)
    _clear_memos()
    cold = _memo_outputs(f)
    warm = _memo_outputs(f)
    assert len(cold) == len(warm)
    assert all(np.array_equal(a, b) for a, b in zip(_bits(cold), _bits(warm)))


@pytest.mark.parametrize("q", [0.5, aligned_q(2), 0.7, 0.9])
@pytest.mark.parametrize("alpha", [0.0, 1.5])
def test_widened_family_range_gathers_the_same_kernel(q, alpha):
    # a kernel gathered cold has the bits of one gathered after a wider window pair
    # has asked for a wider family range
    from qweinstein import transform

    p = QParams(q=q, alpha=alpha)
    win, lam = LatticeWindow(-3, 4, -3, 4), LatticeWindow(-12, 6, -12, 6)
    clear_family_memos()
    cold = transform._kernel_matrices(win, lam, p)
    clear_family_memos()
    transform._kernel_matrices(LatticeWindow(-3, 40, -3, 40), LatticeWindow(-112, 6, -112, 6), p)
    transform._kernel_matrices.cache_clear()
    warm = transform._kernel_matrices(win, lam, p)
    assert warm is not cold
    assert all(np.array_equal(a, b) for a, b in zip(_bits(cold), _bits(warm)))


# ---------------------------------------------------------------------------
# samples near the float64 range
# ---------------------------------------------------------------------------

def test_edge_guard_holds_for_huge_samples():
    # |f|^2 of 1e200 overflows, and |f| itself of 1.5e308 (1 + i); the edge
    # share must still come out as 1.26
    from qweinstein import DivergenceError

    p = QParams(q=0.5, alpha=0.0)
    w = LatticeWindow(-2, 4, -2, 4)
    f = GridFunction(p, w, EVEN, np.ones(w.shape, dtype=complex))
    for scale in (1.0, 1e200, 1e-200, 1.5e308 * (1 + 1j)):
        with pytest.raises(DivergenceError, match=r"edge share 1\.26e\+00"):
            forward(f.with_samples(f.samples * scale))


@pytest.mark.parametrize("k", [-600, 600])
def test_power_of_two_scaled_input_keeps_window_and_tail(k):
    # forward is linear and 2^k is exact, so the trim and the tail report,
    # both ratios of masses, see the same bits as for the unscaled input
    p = QParams(q=0.5, alpha=0.0)
    f = make_bump(p, seed=63, lo1=-2, hi1=4, lo2=-2, hi2=4)
    scaled = f.with_samples(f.samples * 2.0 ** k)
    for run in (forward, inverse):
        want, got = run(f), run(scaled)
        assert got.grid.window == want.grid.window
        assert got.tail_bound == want.tail_bound > 0.0
        assert got.diagnostics == want.diagnostics
        assert np.array_equal(got.grid.samples, want.grid.samples * 2.0 ** k)


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
    g = dilated(f)
    lam = LatticeWindow(m1, m1 + v1, m2, m2 + v2)
    lam_g = LatticeWindow(m1 - 1, m1 + v1 - 1, m2 - 1, m2 + v2 - 1)
    lhs = forward(g, lambda_window=lam_g).grid.samples
    rhs = q ** (2.0 * alpha + 3.0) * forward(f, lambda_window=lam).grid.samples
    tol = 0.0 if q == 0.5 and (2.0 * alpha).is_integer() else 4e-15
    assert np.max(np.abs(lhs - rhs)) <= tol * np.max(np.abs(rhs))


@settings(max_examples=30, deadline=None)
@given(q=st.sampled_from(FOUR_Q), alpha=st.sampled_from([0.0, 0.5, 1.5]),
       lo1=st.integers(-3, 2), lo2=st.integers(-3, 2), w1=st.integers(0, 3), w2=st.integers(0, 3),
       seed=st.integers(0, 2**32 - 1), fixed=st.booleans())
@example(q=0.7, alpha=0.5, lo1=-2, lo2=-2, w1=3, w2=3, seed=1, fixed=False)
def test_inverse_is_forward_of_the_x1_reflection(q, alpha, lo1, lo2, w1, w2, seed, fixed):
    # e(+i l1 x1) = e(-i l1 (-x1)): inverting F is transforming F with its two
    # signs of x1 swapped, exactly, also at misaligned q where the isometry
    # fails; this pins the sign of the conjugated contraction.  Without a zero
    # pad the samples reach the window edge, so the edge shares are not zero
    p = QParams(q=q, alpha=alpha)
    F = make_bump(p, seed, lo1, lo1 + w1, lo2, lo2 + w2, pad=0)
    w = LatticeWindow(-3, 5, -2, 4) if fixed else None
    a = inverse(F, w, edge_tol=math.inf)
    b = forward(F.with_samples(F.samples[::-1].copy()), w, edge_tol=math.inf)
    assert a.grid.window == b.grid.window and a.tail_bound == b.tail_bound
    assert np.array_equal(a.grid.samples, b.grid.samples)
    edge_a, edge_b = (r.diagnostics["input_edge_mass_ratio"] for r in (a, b))
    assert abs(edge_a - edge_b) <= 1e-15 * edge_a


@settings(max_examples=40, deadline=None)
@given(q=st.sampled_from(FOUR_Q), alpha=st.sampled_from([0.0, 0.5, 1.5]),
       lo1=st.integers(-3, 2), lo2=st.integers(-3, 2), w1=st.integers(0, 4), w2=st.integers(0, 4),
       seed=st.integers(0, 2**32 - 1),
       a=st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0),
       b=st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0))
def test_forward_is_linear(q, alpha, lo1, lo2, w1, w2, seed, a, b):
    # the property beside test_forward_linearity_and_conjugation, on forward(f)'s
    # window; a and b keep the data out of the subnormal range, where a relative
    # bound cannot hold
    p = QParams(q=q, alpha=alpha)
    f = make_bump(p, seed, lo1, lo1 + w1, lo2, lo2 + w2)
    g = make_bump(p, seed + 1, lo1, lo1 + w1, lo2, lo2 + w2)
    F = forward(f).grid
    G = forward(g, lambda_window=F.window).grid.samples
    S = forward(f.with_samples(a * f.samples + b * g.samples), lambda_window=F.window).grid.samples
    want = a * F.samples + b * G
    assert np.max(np.abs(S - want)) <= 1e-13 * max(np.max(np.abs(want)), np.max(np.abs(S)))


@settings(max_examples=40, deadline=None)
@given(alpha=st.sampled_from([0.0, 0.5, 1.5]), lo1=st.integers(-3, 2), lo2=st.integers(-3, 2),
       w1=st.integers(0, 4), w2=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_round_trip_inversion_property(alpha, lo1, lo2, w1, w2, seed):
    # the property beside test_round_trip_inversion, at the one q where the isometry holds
    p = QParams(q=0.5, alpha=alpha)
    f = make_bump(p, seed, lo1, lo1 + w1, lo2, lo2 + w2)
    back = inverse(forward(f).grid, x_window=f.window)
    err = lp_norm(f.with_samples(back.grid.samples - f.samples), 2.0) / lp_norm(f, 2.0)
    assert err <= 1e-6
