import math

import numpy as np
import pytest

from lgasym import quadrature
from lgasym.certificate import (
    DEFAULT_TARGET,
    LOG2,
    Certificate,
    CertificateError,
    NotIntegrableError,
    find_cutoff,
    gronwall_certificate,
    verify_certificate,
)
from lgasym.volterra import solve_kernel


def inverse_square(x):
    return 1.0 / (x * x)


def test_find_cutoff_inverse_square():
    # int_a^inf x^-2 = 1/a, so the cutoff for target log 2 is 1/log 2
    a, tail = find_cutoff(inverse_square, 0.5, target=LOG2)
    assert a == pytest.approx(1.0 / LOG2, rel=2e-3)
    assert tail <= LOG2
    assert tail == pytest.approx(1.0 / a, rel=1e-8)


def test_find_cutoff_certified_side():
    # bisection must stop on the side whose tail is at or under target
    for target in (0.3, 0.1, 0.03):
        a, tail = find_cutoff(inverse_square, 0.5, target=target)
        assert tail <= target * (1 + 1e-9)
        # and not absurdly deep: 1% above the ideal cutoff at most
        assert a <= (1.0 / target) * 1.01


def test_find_cutoff_immediate_return():
    a, tail = find_cutoff(inverse_square, 10.0, target=LOG2)
    assert a == 10.0
    assert tail == pytest.approx(0.1, rel=1e-8)


def test_find_cutoff_divergent():
    with pytest.raises(NotIntegrableError):
        find_cutoff(lambda x: 1.0 / x, 1.0)


def test_find_cutoff_bad_target():
    with pytest.raises(ValueError):
        find_cutoff(inverse_square, 1.0, target=0.0)


def _march_report(mass=0.3):
    h = 0.01
    t = 0.5 * h * np.arange(3001)
    sol = solve_kernel(mass * np.exp(-t), h, 1.0)
    return sol.envelope_report()


def test_certificate_assembly_passes():
    rep = _march_report(0.3)
    cert = gronwall_certificate(2.0, 0.3, rep)
    assert isinstance(cert, Certificate)
    assert cert.passed()
    assert cert.radius == pytest.approx(math.expm1(0.3), rel=1e-12)
    names = [c["name"] for c in cert.checks]
    assert "tail-below-target" in names
    assert "march-envelope" in names
    d = cert.to_json_dict()
    assert d["cutoff"] == 2.0
    assert d["correction_radius"] == cert.radius


def test_certificate_refuses_tail_at_log2():
    rep = _march_report(0.3)
    with pytest.raises(CertificateError):
        gronwall_certificate(1.0, LOG2, rep)
    with pytest.raises(CertificateError):
        gronwall_certificate(1.0, 0.8, rep)


def test_certificate_flags_tail_above_target():
    rep = _march_report(0.3)
    cert = gronwall_certificate(1.0, 0.65, rep)  # below log2, above target
    assert not cert.passed()
    failed = [c for c in cert.checks if not c["passed"]]
    assert [c["name"] for c in failed] == ["tail-below-target"]


def test_default_target_margin():
    assert DEFAULT_TARGET == pytest.approx(0.9 * LOG2)
    assert DEFAULT_TARGET < LOG2


def test_verify_certificate_consistent():
    a, tail = find_cutoff(inverse_square, 0.5, target=DEFAULT_TARGET)
    rep = _march_report(0.2)
    cert = gronwall_certificate(a, tail, rep)
    out = verify_certificate(cert, inverse_square)
    assert out["tail_consistent"]
    assert out["checks_passed"]
    assert out["relative_difference"] < 1e-8


def test_verify_certificate_detects_corruption():
    a, tail = find_cutoff(inverse_square, 0.5, target=DEFAULT_TARGET)
    rep = _march_report(0.2)
    cert = gronwall_certificate(a, tail * 1.01, rep)  # stored tail is off 1%
    out = verify_certificate(cert, inverse_square)
    assert not out["tail_consistent"]
    assert out["relative_difference"] == pytest.approx(0.01, rel=0.05)


def test_verify_certificate_does_not_repeat_the_search_quadrature(
        monkeypatch):
    # bias every single-limit tail, the kind find_cutoff takes, by 1e-5:
    # a verification that repeated the search's quadrature would agree
    # with the biased tail exactly
    l1_tail_norm = quadrature.l1_tail_norm

    def biased(fn, a, **kw):
        r = l1_tail_norm(fn, a, **kw)
        if np.ndim(a) == 0:
            r = quadrature.QuadResult(r.value * (1 + 1e-5), r.error_estimate)
        return r

    monkeypatch.setattr(quadrature, "l1_tail_norm", biased)
    a, tail = find_cutoff(inverse_square, 0.5, target=DEFAULT_TARGET)
    out = verify_certificate(gronwall_certificate(a, tail, _march_report(0.2)),
                             inverse_square)
    assert not out["tail_consistent"]
    assert out["relative_difference"] == pytest.approx(1e-5, rel=1e-3)


def test_verify_certificate_divergent_weight():
    cert = gronwall_certificate(1.0, 0.1, _march_report(0.1))
    with pytest.raises(NotIntegrableError):
        verify_certificate(cert, lambda x: 1.0 / x)
