"""Extended-precision oracle path (slow; mpmath).

This module regenerates the frozen reference values used by the test
suite.  It is deliberately independent of the package: the series are
summed directly from their definitions at high precision.  Run

    python -m tests.oracles

to print all frozen values for comparison against the constants embedded
in the tests.  README_FLOW_BANDWIDTH and README_FLOW_FILES_SHA256 are the
exceptions: they hold package outputs, frozen to guard them bit for bit, and
have no mpmath counterpart.
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


# `qweinstein --seed 7 gen --support=-2,4,-2,4`, `transform` (forward, CSV) and
# `bandwidth --N 50 --format json` at q = 1/2, alpha = 0: the README's CLI flow.
# Package outputs, not mpmath values; frozen so that any change to the
# bandwidth engine that moves a digit of this flow is seen.
README_FLOW_BANDWIDTH = {
    "a_n_literal": [
        19.195523845026262, 10.26963565658639, 8.38766626125699, 7.59330484069204,
        7.156933088602749, 6.881132751424964, 6.69100497506643, 6.551975301123942,
        6.445878378764716, 6.362251784040867, 6.294642023166747, 6.238851252571641,
        6.192030627314749, 6.152178624910516, 6.1178478237932525, 6.087965586692002,
        6.0617201502993066, 6.038485878097273, 6.017772817952499, 5.999191818493443,
        5.982429879515378, 5.967232397241166, 5.953390154910411, 5.9407296423212275,
        5.929105751294853, 5.9183961935626845, 5.908497185211537, 5.899320074670678,
        5.890788682053912, 5.8828371807445565, 5.875408396544283, 5.868452431424858,
        5.861925541842881, 5.855789218331133, 5.850009425456728, 5.844555970470145,
        5.83940197592305, 5.834523436815091, 5.829898846875593, 5.8255088817086556,
        5.821336128957797, 5.817364857546726, 5.813580819550277, 5.809971079436717,
        5.8065238663693615, 5.803228446014733, 5.800075008916491, 5.797054572990417,
        5.794158898099467, 5.79138041099824
    ],
    "a_n_spectral": [
        19.19552384502594, 10.269635656589374, 8.387666261267588, 7.59330484063866,
        7.156933088627553, 6.881132751486066, 6.691004975202824, 6.551975301175445,
        6.445878378794435, 6.362251784058399, 6.294642023177255, 6.238851252578015,
        6.192030627318655, 6.152178624912925, 6.117847823794749, 6.087965586692938,
        6.061720150299893, 6.038485878097642, 6.0177728179527366, 5.999191818493593,
        5.9824298795154744, 5.9672323972412284, 5.953390154910413, 5.940729642321229,
        5.929105751294854, 5.918396193562685, 5.908497185211539, 5.899320074670679,
        5.890788682053913, 5.882837180744558, 5.875408396544285, 5.86845243142486,
        5.861925541842882, 5.855789218331135, 5.850009425456729, 5.844555970470147,
        5.83940197592305, 5.834523436815091, 5.829898846875593, 5.8255088817086556,
        5.821336128957797, 5.817364857546726, 5.813580819550277, 5.809971079436717,
        5.8065238663693615, 5.803228446014733, 5.800075008916491, 5.797054572990417,
        5.794158898099467, 5.79138041099824
    ],
    "estimate": 5.6568542494921115,
}

# SHA-256 of the files the README's CLI flow writes at q = 1/2, alpha = 0:
# `qweinstein --seed 7 gen --support=-2,4,-2,4` (f.csv), `--format json transform`
# forward (F.json) and `--window=-3,5,-3,5 transform` inverse of F.json (g.csv).
# Package outputs like README_FLOW_BANDWIDTH, frozen so that any change to the
# transform or the file writers that moves a byte of this flow is seen.
README_FLOW_FILES_SHA256 = {
    "f.csv": "f62e157762db7a0557e88ea4a495d0d33db4b930664fd64ae9ca430b9d2b0106",
    "F.json": "85c3480433ac19f3fe59b6bc5230e41471a81b5cec6285e910a2d64fc0162239",
    "g.csv": "05f8d7a66533bbc10913e73e528f9933b291ecbc90d431781282780efd0b891e",
}


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
