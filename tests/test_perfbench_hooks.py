"""The benchmark tracer (perfbench/tracing.py) still hooks every name it wraps.

A renamed or moved function would otherwise surface only when the benchmark
runs; here it fails the test suite.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_resolves_and_restores_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    targets = tracing._targets()
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in targets if attr not in owner.__dict__]
    assert not missing, f"tracer targets not found: {missing}"
    tracer = tracing.Tracer()
    tracer.install()
    patched = list(tracer._patched)
    try:
        for owner, attr, _, _ in targets:
            assert hasattr(owner.__dict__[attr], "__wrapped__"), f"{owner.__name__}.{attr}"
    finally:
        tracer.uninstall()
    for place, attr, orig in patched:
        assert place.__dict__[attr] is orig, f"{place.__name__}.{attr} not restored"
