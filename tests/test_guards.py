"""Every guard of the package, triggered once: each case builds a bad input
through the public API and checks the exception's type and message, and the
tests after the table run the branches that otherwise only degenerate input
or a hypothesis draw reaches.

``tools/linecov.py`` checks that the tests run every line of the package.
"""

import math

import numpy as np
import pytest

import qweinstein as qw
from qweinstein import (DivergenceError, GridFunction, LatticeWindow, PWmParams, QDomainError,
                        QParams)
from qweinstein.cli import (FileFormatError, JobConfig, random_even_bump, read_gridfunction,
                            write_gridfunction)
from qweinstein.qcore import LatticePoint, aligned_q

P = QParams(q=0.5, alpha=0.0)
W = LatticeWindow(-1, 1, -1, 1)
P7 = QParams(q=0.7, alpha=0.0)


def _bump(parity="even"):
    samples = np.zeros(W.shape, dtype=np.complex128)
    samples[:, 1, 1] = 1.0
    return GridFunction(P, W, parity, samples)


def _read(tmp_path, text, name="f.csv"):
    path = tmp_path / name
    path.write_text(text)
    return read_gridfunction(str(path))


def _config(tmp_path, text):
    path = tmp_path / "job.cfg"
    path.write_text(text)
    return JobConfig.from_file(str(path))


_HEADER = "# qweinstein v1 q=0.5 alpha=0.0 parity=even n1=[0,0] n2=[0,0]"

# (id, call given tmp_path, exception type, text the message contains)
GUARDS = [
    # cli
    ("cells", lambda t: _read(t, "# qweinstein v1 q=0.99999 alpha=0 parity=even "
                                 "n1=[-8867,500] n2=[-8867,500]\n"),
     FileFormatError,
     "f.csv:1: window n1=[-8867,500] n2=[-8867,500] spans 175518848 cells, more than 134217728"),
    ("window-bounds", lambda t: JobConfig(n1_min=0).window(), QDomainError,
     "window needs all four bounds"),
    ("config-line", lambda t: _config(t, "# a comment\n\nq\n"), FileFormatError,
     "job.cfg:3: expected key=value, got 'q'"),
    ("write-format", lambda t: write_gridfunction(_bump(), str(t / "f.xml"), "xml"),
     FileFormatError, "unknown format 'xml'"),
    ("header-version", lambda t: _read(t, "# qweinstein\n"), FileFormatError,
     "f.csv:1: missing format version"),
    ("header-token", lambda t: _read(t, "# qweinstein v1 q\n"), FileFormatError,
     "f.csv:1: bad header token 'q'"),
    ("header-key", lambda t: _read(t, _HEADER + " z=1\n"), FileFormatError,
     "f.csv:1: unknown header key 'z'"),
    ("header-missing", lambda t: _read(t, "# qweinstein v1 q=0.5\n"), FileFormatError,
     "f.csv:1: header missing 'alpha'"),
    ("empty-file", lambda t: _read(t, ""), FileFormatError, "f.csv:1: empty file"),
    # paleywiener
    ("growth-N", lambda t: qw.norm_growth_sequence(_bump(), 0), QDomainError,
     "norm_growth_sequence needs N >= 1"),
    ("iterates-parity", lambda t: qw.bandwidth_estimate(_bump(), 2, f_hat=_bump("odd")),
     QDomainError, "iterates need an even preimage"),
    ("bandwidth-N", lambda t: qw.bandwidth_estimate(_bump(), 0), QDomainError,
     "bandwidth_estimate needs N >= 1"),
    ("pwm-order", lambda t: PWmParams(m=2, a=1.0, N=1), QDomainError,
     "PWmParams needs 0 <= m <= N"),
    ("pwm-a", lambda t: PWmParams(m=0, a=0.0, N=1), QDomainError, "PWmParams needs a > 0"),
    ("pwm-a-nan", lambda t: PWmParams(m=1, a=math.nan, N=3), QDomainError,
     "PWmParams needs a > 0"),
    ("bandwidth-params", lambda t: qw.bandwidth_estimate(
        _bump(), 2, f_hat=GridFunction(P7, W, "even", _bump().samples)), QDomainError,
     "the preimage f_hat is on QParams(q=0.7, alpha=0.0), "
     "but the transform F on QParams(q=0.5, alpha=0.0)"),
    ("pwm-params", lambda t: qw.pw_m_sup(_bump(), PWmParams(m=2, a=1.0, N=3),
                                         f_hat=GridFunction(P7, W, "even", _bump().samples)),
     QDomainError, "the preimage f_hat is on QParams(q=0.7, alpha=0.0), "
     "but the transform F on QParams(q=0.5, alpha=0.0)"),
    ("radial-order", lambda t: qw.radial_power_bound_check(_bump(), 3, 2, 1, 1), QDomainError,
     "need i, j <= p"),
    ("sup-bound-k", lambda t: qw.weinstein_sup_bound_check(_bump(), -1), QDomainError,
     "weinstein_sup_bound_check needs k >= 0"),
    # qcore
    ("point-sign", lambda t: LatticePoint(0, 1), QDomainError, "sign must be +1 or -1, got 0"),
    ("qshifted-n", lambda t: qw.qshifted(0.5, -1, P), QDomainError,
     "n must be a natural number or inf, got -1"),
    ("qshifted-none", lambda t: qw.qshifted(0.5, None, P), QDomainError,
     "n must be a natural number or inf, got None"),
    ("qfactorial-n", lambda t: qw.qfactorial(-1, P), QDomainError,
     "qfactorial needs n >= 0, got -1"),
    ("aligned-j", lambda t: aligned_q(0), QDomainError, "aligned_q needs j >= 1"),
    # qops
    ("taint", lambda t: LatticeWindow(0, 0, 0, 0, taint_x=-1), QDomainError,
     "taint layers must be >= 0"),
    ("finite", lambda t: GridFunction(P, W, "even", np.full(W.shape, math.nan)), QDomainError,
     "samples must be finite (no NaN/Inf)"),
    ("shape", lambda t: GridFunction(P, W, "even", np.zeros((2, 3, 2))), QDomainError,
     "samples shape (2, 3, 2) != window shape (2, 3, 3)"),
    ("partial-var", lambda t: qw.dq_partial(_bump(), 3), QDomainError,
     "var must be 1 or 2, got 3"),
    ("mixed-order", lambda t: qw.dq_mixed(_bump(), (-1, 0)), QDomainError,
     "derivative orders must be >= 0"),
    ("weinstein-n", lambda t: qw.weinstein_op(_bump(), -1), QDomainError,
     "weinstein_op needs n >= 0"),
    ("weinstein-parity", lambda t: qw.weinstein_op(_bump("odd")), QDomainError,
     "weinstein_op requires even parity"),
    # qspecial
    ("bessel-alpha", lambda t: qw.bessel_j(-1.0, 1.0, P), QDomainError,
     "bessel_j needs alpha >= -1/2, got -1.0"),
    # near q = 1 the terms overflow before the peak that the tail test waits for
    ("bessel-terms", lambda t: qw.bessel_j(0.0, 1e3, QParams(q=0.9999, alpha=0.0)),
     ArithmeticError, "bessel_j series failed to terminate"),
    # one ulp off q = 1/2 the recurrence and the series part at the matching point
    ("family-miller", lambda t: qw.bessel_j_exponent_family(
        7.0, QParams(q=float(np.nextafter(0.5, 1.0)), alpha=7.0), -4, 0),
     ArithmeticError, "bessel_j_exponent_family: Miller normalization failed to converge"),
    # a range past the Miller zone reads the same memo entry, so it raises as well
    ("family-miller-shallow", lambda t: qw.bessel_j_exponent_family(
        7.0, QParams(q=float(np.nextafter(0.5, 1.0)), alpha=7.0), 3, 5),
     ArithmeticError, "bessel_j_exponent_family: Miller normalization failed to converge"),
    ("family-range", lambda t: qw.bessel_j_exponent_family(0.0, P, 2, 1), QDomainError,
     "bessel_j_exponent_family needs k_min <= k_max"),
    # qintegrate
    ("jackson-a", lambda t: qw.jackson_0_to_a(lambda x: 1.0, 0.0, P), QDomainError,
     "jackson_0_to_a needs a > 0, got 0.0"),
    ("jackson-decay", lambda t: qw.jackson_0_to_a(lambda x: x**-2, 1.0, P), DivergenceError,
     "jackson_0_to_a: terms not decaying at the window edge"),
    ("lp-p-nan", lambda t: qw.lp_norm(_bump(), math.nan), QDomainError,
     "lp_norm needs p > 0 or inf, got nan"),
    # transform
    ("forward-parity", lambda t: qw.forward(_bump("odd")), QDomainError,
     "forward requires even parity in the second variable"),
    ("mu-overflow", lambda t: qw.forward(random_even_bump(QParams(q=0.5, alpha=13.0),
                                                          LatticeWindow(-2, 4, -2, 4), 7, pad=1)),
     DivergenceError, "the mu weights overflow on the window n1=[-36,50] n2=[-36,50] at q=0.5, "
     "alpha=13.0: the largest is e^722, past the float64 range"),
    ("identity-params", lambda t: qw.identity_suite(
        _bump(), GridFunction(P7, W, "even", _bump().samples)), QDomainError,
     "identity_suite pairs f on QParams(q=0.5, alpha=0.0) with an even g on the same "
     "parameters, got g on QParams(q=0.7, alpha=0.0) with parity even"),
    ("identity-parity", lambda t: qw.identity_suite(_bump(), _bump("odd")), QDomainError,
     "got g on QParams(q=0.5, alpha=0.0) with parity odd"),
    ("embed-pad", lambda t: qw.embed_zeros(_bump(), -1, 0), QDomainError,
     "embed_zeros needs pads >= 0, got pad1=-1, pad2=0"),
    ("ortho-sign", lambda t: qw.orthogonality_check((1, 1, 0), (0, 1, 0), P), QDomainError,
     "orthogonality_check needs lattice points (sign +-1, integer n1, integer n2), "
     "got (0, 1, 0)"),
    ("ortho-exponent", lambda t: qw.orthogonality_check((1, 1.5, 0), (1, 1, 0), P),
     QDomainError, "got (1, 1.5, 0)"),
]


@pytest.mark.parametrize("call,exc,message", [case[1:] for case in GUARDS],
                         ids=[case[0] for case in GUARDS])
def test_guard_raises(tmp_path, call, exc, message):
    with pytest.raises(exc) as info:
        call(tmp_path)
    assert type(info.value) is exc
    assert message in str(info.value)


def test_config_skips_comments_and_blank_lines(tmp_path):
    assert _config(tmp_path, "# q=0.9\n\n  \nq=0.7\n") == JobConfig(q=0.7)


def test_zero_preimage_has_empty_support_and_zero_sups():
    # a nonzero transform given a preimage that is all zeros: every iterate
    # vanishes, so the fit has no positive a_n and each PW^m step is zero
    F = qw.forward(_bump()).grid
    zero = GridFunction.zeros(P, W)
    rep = qw.bandwidth_estimate(F, 2, f_hat=zero)
    assert (rep.estimate, rep.a_seq, rep.exponent_normalization) == (
        0.0, [0.0, 0.0], "sup||x|| (empty support)")
    assert qw.pw_m_sup(F, PWmParams(m=2, a=1.0, N=3), f_hat=zero) == (0.0, [0.0, 0.0])


def test_fit_at_one_point_is_that_point():
    f = _bump()
    rep = qw.bandwidth_estimate(qw.forward(f).grid, 1, f_hat=f)
    assert rep.estimate == rep.a_seq[0] > 0


def test_first_aligned_root_is_one_half():
    # j = 1 is returned exactly, not by Newton; only hypothesis draws reach it otherwise
    assert aligned_q(1) == 0.5
