"""The benchmark's tracer (perfbench/spans.py) still finds every function it wraps.

A renamed or moved target would otherwise drop out of the per-layer metrics
without any tier-1 test noticing.
"""

from pathlib import Path

import uapaudio.cli  # noqa: F401  (the tracer wraps two CLI commands; the benchmark imports it too)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_target_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    done = spans.install(spans.Tracer())
    try:
        assert done.missing == []
        assert done.patches
    finally:
        done.uninstall()
    assert spans.installed_wrappers() == []
