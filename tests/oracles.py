"""Extended-precision oracle path (slow; mpmath).

This module regenerates the frozen reference values used by the test
suite.  It is deliberately independent of the package: the series are
summed directly from their definitions at high precision.  Run

    python -m tests.oracles

to print all frozen values for comparison against the constants embedded
in the tests.
"""

import mpmath as mp


def qpoch_inf(x, q, dps=None):
    p = mp.mpf(1) if not isinstance(x, mp.mpc) else mp.mpc(1)
    term = x
    while abs(term) > mp.mpf(10) ** (-(dps or mp.mp.dps) - 6):
        p *= (1 - term)
        term *= q
    return p


def qgamma(x, q):
    return qpoch_inf(q, q) / qpoch_inf(mp.power(q, x), q) * (1 - q) ** (1 - x)


def jalpha(alpha, x, q):
    """Normalized third Jackson q-Bessel series, direct summation."""
    Q = q * q
    s = mp.mpc(0) if isinstance(x, mp.mpc) else mp.mpf(0)
    g = qgamma(alpha + 1, Q)
    for n in range(0, 4000):
        t = (-1) ** n * g * q ** (n * (n + 1)) / (
            (1 + q) ** (2 * n) * qgamma(alpha + n + 1, Q) * qgamma(n + 1, Q)
        ) * x ** (2 * n)
        s += t
        if n > 8 and abs(t) < mp.mpf(10) ** (-mp.mp.dps - 8) * max(mp.mpf(1), abs(s)):
            break
    return s


def jalpha_deep(alpha, qs: str, k: int, dps: int | None = None) -> float:
    """j_alpha(q^k; q^2) at adaptive precision (handles deep negative k)."""
    q_f = float(mp.mpf(qs))
    need = dps or int(2.5 * k * k * (-mp.log10(q_f))) + 60
    old = mp.mp.dps
    mp.mp.dps = max(need, 40)
    try:
        q = mp.mpf(qs)
        return float(jalpha(mp.mpf(alpha), q**k, q))
    finally:
        mp.mp.dps = old


def qexp_real(x, q):
    """e(x; q^2) for real x via the [n]_q! series."""
    def qfact(n):
        p = mp.mpf(1)
        for kk in range(1, n + 1):
            p *= (1 - q**kk) / (1 - q)
        return p

    s = mp.mpf(0)
    for n in range(0, 300):
        s += q ** (n * (n + 1)) * (x ** (2 * n) / qfact(2 * n) + x ** (2 * n + 1) / qfact(2 * n + 1))
    return s


def main():
    mp.mp.dps = 40
    q = mp.mpf("0.5")
    print("qq_inf_05 =", mp.nstr(qpoch_inf(q, q), 20))
    print("qexp_03_05 =", mp.nstr(qexp_real(mp.mpf("0.3"), q), 20))
    alpha = mp.mpf("0.5")
    K = (1 + q) ** (mp.mpf("0.5") - alpha) / (2 * qgamma(mp.mpf("0.5"), q * q) * qgamma(alpha + 1, q * q))
    print("K_05_05 =", mp.nstr(K, 20))
    for k in range(-8, 3):
        print(f"j_a05_q05_k{k} =", mp.nstr(mp.mpf(jalpha_deep("0.5", "0.5", k)), 17))
    # larger alpha, where the recurrence must be matched to the series at
    # the turning point; aligned_q(3) is given as its double-precision value
    for qs, name, alphas, ks in (("0.5", "q05", ("2.5", "4", "6"), (-12, -8, -4, -1, 0, 3)),
                                 ("0.6823278038280193", "aq3", ("1.5", "2.5"), (-5, -3, 0))):
        for a in alphas:
            for k in ks:
                print(f"j_a{a}_{name}_k{k} =", mp.nstr(mp.mpf(jalpha_deep(a, qs, k)), 17))


if __name__ == "__main__":
    main()
