import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qweinstein import (
    QParams,
    bessel_j,
    bessel_j_exponent_family,
    qcos,
    qexp,
    qshifted,
    qsin,
    qspecial,
    sonine_weight,
)
from qweinstein.qcore import aligned_q
from qweinstein.qspecial import SERIES_TOL, effective_floor_exponent, qtrig_exponent_families

from .conftest import clear_family_memos

# frozen extended-precision oracles (tests/oracles.py)
QEXP_03_05 = 1.31760113533803881776
J_A05_Q05 = {
    -8: -1.292454787098541556207e-19,
    -7: 4.234728107956196772444e-15,
    -6: -3.467818821756233794983e-11,
    -5: 7.091688643545876519502e-8,
    -4: -3.609662583927207635959e-5,
    -3: 0.004511936396136138627418,
    -2: -0.1307739622362694760424,
    -1: 0.6448459383890751029572,
    0: 0.906393862861614055042,
    1: 0.9762927803758849316906,
    2: 0.9940540178574410685265,
}
SONINE_W1_T05 = 2.119140625   # p=2, t=0.5, alpha=0.5, q=0.5 (exact rational)
# larger alpha: {alpha: {k: j_alpha(q^k; q^2)}} at q = 1/2 and at aligned_q(3)
J_DEEP_Q05 = {
    2.5: {-12: -5.1514428225359032e-57, -8: -4.0813081950655694e-28, -4: -7.4884470881074614e-9,
          -1: 0.68612804076760847, 0: 0.91740750010100058, 3: 0.9986880064437037},
    4.0: {-12: -5.9424649372902689e-67, -8: -1.9284008931564959e-34, -4: -1.4494775751238657e-11,
          -1: 0.68823840187630947, 0: 0.91797027983152502, 3: 0.99869698333543033},
    6.0: {-12: -3.373777627923878e-80, -8: -7.1750860342028617e-43, -4: -3.5345123546914713e-15,
          -1: 0.68851885820926417, 0: 0.91804506844980327, 3: 0.99869817627800317},
}
AQ3 = 0.6823278038280193   # aligned_q(3) as a double
J_DEEP_AQ3 = {
    1.5: {-5: 0.010480220141645546, -3: 0.24797963640241816, 0: 0.8998859756078238},
    2.5: {-5: 0.0020073849344589638, -3: 0.30291179784967692, 0: 0.90827845811909813},
}


def qfact(n, q):
    out = 1.0
    for k in range(1, n + 1):
        out *= (1 - q**k) / (1 - q)
    return out


def trig_series_reference(x, q, kind):
    """Independent [2n]_q!-form series for the q-trig functions."""
    total = 0.0
    for n in range(0, 200):
        if kind == "cos":
            total += (-1) ** n * q ** (n * (n + 1)) * x ** (2 * n) / qfact(2 * n, q)
        else:
            total += (-1) ** n * q ** (n * (n + 1)) * x ** (2 * n + 1) / qfact(2 * n + 1, q)
    return total


def test_bessel_at_zero_is_one():
    p = QParams(q=0.5, alpha=0.5)
    assert bessel_j(0.5, 0.0, p).value == 1.0 + 0j


@pytest.mark.parametrize("q", [0.5, 0.7, 0.9])
@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 1.25])
def test_bessel_even_in_x(q, alpha):
    p = QParams(q=q, alpha=max(alpha, 0.0))
    for x in (0.3, 1.0, 2.0):
        a = bessel_j(alpha, x, p).value
        b = bessel_j(alpha, -x, p).value
        assert a == b


@pytest.mark.parametrize("q", [0.5, 0.7, 0.9])
def test_trig_match_independent_series(q):
    p = QParams(q=q, alpha=0.0)
    for x in (0.25, 1.0, 2.5):
        assert abs(qcos(x, p) - trig_series_reference(x, q, "cos")) < 1e-12
        assert abs(qsin(x, p) - trig_series_reference(x, q, "sin")) < 1e-12


def test_sin_is_odd_cos_at_zero():
    p = QParams(q=0.5, alpha=0.0)
    assert qcos(0.0, p) == 1.0
    for x in (0.4, 1.7):
        assert qsin(-x, p) == -qsin(x, p)


def test_qexp_oracle():
    p = QParams(q=0.5, alpha=0.0)
    v = qexp(0.3, p)
    assert abs(v - QEXP_03_05) < 1e-14
    assert abs(v.imag) < 1e-16


def test_qexp_conjugation_symmetry():
    p = QParams(q=0.5, alpha=0.0)
    for z in (0.3 + 0.4j, -1.0 + 0.2j):
        assert abs(qexp(np.conj(z), p) - np.conj(qexp(z, p))) < 1e-13


def test_bessel_sup_bound_on_aligned_lattice():
    # |j_alpha(x; q^2)| <= 1/(q;q)_inf on {q^k}; requires lattice alignment,
    # exact in binary at q = 1/2
    p = QParams(q=0.5, alpha=0.5)
    bound = 1.0 / qshifted(0.5, math.inf, p).real
    fam = bessel_j_exponent_family(0.5, p, -25, 10)
    assert np.all(np.abs(fam) <= bound * (1 + 1e-12))


def test_qexp_imag_bound_on_aligned_lattice():
    p = QParams(q=0.5, alpha=0.0)
    bound = 2.0 / qshifted(0.5, math.inf, p).real
    cos_v, sin_v = qtrig_exponent_families(p, -25, 8)
    mods = np.hypot(cos_v, sin_v)
    assert np.all(mods <= bound * (1 + 1e-12))


def test_series_tail_invariant():
    p = QParams(q=0.5, alpha=0.5)
    sv = bessel_j(0.5, 3.0, p)
    assert sv.est_tail <= SERIES_TOL


def test_family_matches_frozen_oracle_deep():
    p = QParams(q=0.5, alpha=0.5)
    fam = bessel_j_exponent_family(0.5, p, -8, 2)
    for k, ref in J_A05_Q05.items():
        got = fam[k + 8]
        assert abs(got - ref) / abs(ref) < 5e-13, (k, got, ref)


@pytest.mark.parametrize("q,table", [(0.5, J_DEEP_Q05), (AQ3, J_DEEP_AQ3)])
def test_family_matches_frozen_oracle_at_larger_alpha(q, table):
    # above the recurrence's turning point the family is its subdominant
    # solution, and rounding there grows by ~q^(-2 alpha) per shell
    assert aligned_q(3) == AQ3
    for alpha, refs in table.items():
        k_min = min(refs)
        fam = bessel_j_exponent_family(alpha, QParams(q=q, alpha=alpha), k_min, max(refs))
        for k, ref in refs.items():
            assert abs(fam[k - k_min] - ref) <= 1e-12 * abs(ref), (alpha, k, fam[k - k_min], ref)


@settings(max_examples=60, deadline=None)
@given(j=st.integers(1, 8), alpha=st.floats(-0.5, 6.0), k_min=st.integers(-200, 0))
def test_family_finite_at_aligned_roots(j, alpha, k_min):
    fam = bessel_j_exponent_family(alpha, QParams(q=aligned_q(j), alpha=alpha), k_min, 8)
    assert fam.shape == (9 - k_min,)
    assert np.all(np.isfinite(fam))


def test_family_matches_series_in_shallow_zone():
    for q, alpha in ((0.5, 0.0), (0.9, 0.5)):
        p = QParams(q=q, alpha=alpha)
        fam = bessel_j_exponent_family(alpha, p, 0, 8)
        for k in range(0, 9):
            ref = bessel_j(alpha, q**k, p).value.real
            assert abs(fam[k] - ref) < 1e-13


def test_family_zero_beyond_frontier():
    # misaligned q: the decay frontier is shallow and deeper entries truncate
    p = QParams(q=0.7, alpha=0.5)
    floor = effective_floor_exponent(0.7)
    assert -9 <= floor <= -2
    fam = bessel_j_exponent_family(0.5, p, -12, 4)
    ks = np.arange(-12, 5)
    assert np.all(fam[ks < floor] == 0.0)
    assert np.any(fam[ks >= floor] != 0.0)


def _memo_span(alpha, q):
    """(frontier - 1, K) of the family memo entry at (alpha, q)."""
    entry, lo = qspecial._family_entry(alpha, q)
    return lo, lo + len(entry) - 1


def _matching_point(q):
    return -int(math.floor(math.log(1.0 - q) / math.log(q) + 1e-9))


@settings(max_examples=80, deadline=None)
@given(q=st.sampled_from([0.5, aligned_q(2), AQ3, 0.7, 0.9, 0.3]), alpha=st.floats(-0.5, 6.0),
       data=st.data())
def test_family_requests_agree_on_their_overlap(q, alpha, data):
    # one memo entry per (alpha, q) serves every range: two requests agree bit for bit
    # where they overlap, in either order, also from k_s - 2 and k_s - 1, where a
    # shallow request once took the series instead of the recurrence
    p = QParams(q=q, alpha=alpha)
    lo, K = _memo_span(alpha, q)
    k_s = _matching_point(q)
    span = st.integers(0, 40)

    def draw_range():
        kind = data.draw(st.sampled_from(["k_s - 2", "k_s - 1", "past K", "below", "any"]))
        if kind == "below":
            end = lo - data.draw(span)
            return end - data.draw(span), end
        start = {"k_s - 2": k_s - 2, "k_s - 1": k_s - 1, "past K": K + 1 + data.draw(span),
                 "any": data.draw(st.integers(lo - 20, K + 20))}[kind]
        return start, start + data.draw(span)

    ranges = [draw_range(), draw_range()]
    runs = []
    for order in (ranges, ranges[::-1]):
        clear_family_memos()
        runs.append({r: bessel_j_exponent_family(alpha, p, *r).view(np.int64) for r in order})
    for k_min, k_max in ranges:
        bits = runs[0][k_min, k_max]
        assert np.array_equal(bits, runs[1][k_min, k_max])
        ks = np.arange(k_min, k_max + 1)
        assert np.all(bits.view(np.float64)[ks <= lo] == 0.0)
        assert np.all(bits.view(np.float64)[ks > K] == 1.0)
    (a0, a1), (b0, b1) = ranges
    lo_o, hi_o = max(a0, b0), min(a1, b1)
    if lo_o <= hi_o:
        a, b = runs[0][a0, a1], runs[0][b0, b1]
        assert np.array_equal(a[lo_o - a0:hi_o - a0 + 1], b[lo_o - b0:hi_o - b0 + 1])


@settings(max_examples=60, deadline=None)
@given(q=st.floats(0.02, 0.999), alpha=st.floats(-0.5, 40.0))
def test_series_is_exactly_one_from_the_memo_span_on(q, alpha):
    # the memo fills 1.0 past its last shell K: the series must read exactly that
    p = QParams(q=q, alpha=alpha)
    K = _memo_span(alpha, q)[1]
    assert bessel_j(alpha, q ** float(K - 1), p).value.real != 1.0
    for k in range(K, K + 50):
        assert bessel_j(alpha, q ** float(k), p).value == 1.0, k


def test_family_memo_hands_out_copies():
    p = QParams(q=0.5, alpha=0.5)
    clear_family_memos()
    ref = bessel_j_exponent_family(0.5, p, -8, 4).copy()
    mine = bessel_j_exponent_family(0.5, p, -8, 4)
    mine[:] = 7.0
    assert np.array_equal(bessel_j_exponent_family(0.5, p, -8, 4).view(np.int64),
                          ref.view(np.int64))


def test_sin_equals_x_times_j_half():
    p = QParams(q=0.5, alpha=0.5)
    for x in (0.3, 1.1, 2.2):
        assert abs(qsin(x, p) - x * bessel_j(0.5, x, p).value) < 1e-14


# ---------------------------------------------------------------------------
# Sonine weight (normalized form; the integral representation it serves is
# exercised end to end in test_paleywiener / acceptance)
# ---------------------------------------------------------------------------

def test_sonine_weight_p1_is_constant():
    # for p=1 the finite product is empty: W_0 = (1+q) [alpha+1]_{q^2}
    p = QParams(q=0.5, alpha=0.0)
    q2 = 0.25
    expected = (1 + 0.5) * (1 - q2 ** (p.alpha + 1)) / (1 - q2)
    for t in (0.0, 0.3, 1.0):
        assert abs(sonine_weight(1, t, p) - expected) < 1e-14


def test_sonine_weight_frozen_value():
    p = QParams(q=0.5, alpha=0.5)
    assert abs(sonine_weight(2, 0.5, p) - SONINE_W1_T05) < 1e-13


def test_sonine_weight_normalizes_to_one():
    # integral_0^1 W_{p-1}(t) t^(2a+1) d_q t = 1 (the y=0 case of the identity)
    for q, alpha, pp in ((0.5, 0.0, 1), (0.5, 0.5, 2), (0.7, 0.25, 3)):
        p = QParams(q=q, alpha=alpha)
        total = 0.0
        for j in range(0, 200):
            t = q**j
            total += q**j * sonine_weight(pp, t, p) * t ** (2 * alpha + 1)
        total *= 1 - q
        assert abs(total - 1.0) < 1e-12


def test_sonine_weight_domain():
    p = QParams(q=0.5, alpha=0.0)
    with pytest.raises(Exception):
        sonine_weight(0, 0.5, p)
    with pytest.raises(Exception):
        sonine_weight(1, 1.5, p)


# ---------------------------------------------------------------------------
# extended-precision oracle regeneration (slow path, documented)
# ---------------------------------------------------------------------------

def test_oracle_regeneration_matches_frozen():
    from . import oracles

    assert abs(oracles.jalpha_deep("0.5", "0.5", -6) - J_A05_Q05[-6]) < 1e-22
    assert abs(oracles.jalpha_deep("0.5", "0.5", 1) - J_A05_Q05[1]) < 1e-15


@pytest.mark.parametrize("q,alpha,pp", [(0.5, 0.0, 1), (0.5, 0.5, 3), (0.7, 1.5, 2), (0.9, 0.0, 4)])
def test_sonine_weight_on_an_array_equals_scalar_calls(q, alpha, pp):
    from qweinstein import QDomainError

    p = QParams(q=q, alpha=alpha)
    ts = np.array([q**j for j in range(40)] + [0.0, 0.3])
    arr = sonine_weight(pp, ts, p)
    scalars = [sonine_weight(pp, float(t), p) for t in ts]
    assert all(type(s) is float for s in scalars)
    assert np.array_equal(arr.view(np.int64), np.array(scalars).view(np.int64))
    with pytest.raises(QDomainError):
        sonine_weight(pp, np.array([0.5, 1.5]), p)
    with pytest.raises(QDomainError):
        sonine_weight(pp, np.array([0.5, np.nan]), p)
