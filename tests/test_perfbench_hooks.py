"""The benchmark's tracer wraps package attributes by name: each must exist,
and each must be put back when the tracer is uninstalled."""

import pathlib

from lgasym import pipeline, quadrature

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_hooks_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    originals = {(owner, attr): owner.__dict__[attr]
                 for owner, attr, *_ in tracer.TARGETS}
    cell = quadrature.__dict__["_gk_cell"]
    t = tracer.Tracer()
    t.install()
    try:
        assert quadrature._gk_cell is not cell
        r = pipeline.analyze("1", "3/(4*x^2)")
    finally:
        t.uninstall()
    assert r.certificate.passed()
    assert t.calls["pipeline.analyze"] == 1
    assert t.counts["quadrature.samples"] > 0
    for (owner, attr), raw in originals.items():
        assert owner.__dict__[attr] is raw, attr
    assert quadrature.__dict__["_gk_cell"] is cell
