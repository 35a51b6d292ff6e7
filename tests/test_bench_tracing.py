"""The benchmark tracer patches names by module attribute; each must stay bound.

``bench/tracing.py`` wraps functions where the program looks them up, so a
name that a refactor deletes or stops importing breaks the traced benchmark
run.  This guard installs the tracer, checks that every patched attribute
existed before it was replaced, and checks that restoring puts every original
back.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing as module
    yield module
    sys.modules.pop("tracing", None)


def test_tracer_patches_only_bound_names_and_restores_them(tracing):
    missing = []

    class CheckingTracer(tracing.Tracer):
        def patch(self, module, attr, replacement):
            if not hasattr(module, attr):
                missing.append(f"{module.__name__}.{attr}")
            super().patch(module, attr, replacement)

    tracer = CheckingTracer()
    try:
        tracing.install(tracer)
        patched = list(tracer._patched)
    finally:
        restored = tracer.restore()
    assert not missing
    assert patched and len(restored) == len(patched)
    names = {(module.__name__, attr) for module, attr, _ in patched}
    for module in ("dipolelab.fields", "dipolelab.hamiltonians", "dipolelab.cook"):
        assert (module, "profile_value") in names
    for module, attr, original in restored:
        assert getattr(module, attr) is original


def test_bounds_probe_runs_through_the_traced_names(tracing):
    # the traced probe counts bounds.resolvent calls and times one
    # bounds.contraction span; both need the module-global lookups
    from test_harness import trimmed_config
    from dipolelab import harness

    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        harness.run_bounds_check(trimmed_config())
    finally:
        restored = tracer.restore()
    assert all(getattr(module, attr) is original for module, attr, original in restored)
    names = [rec[tracing.NAME] for rec in tracer.spans]
    assert names.count("bounds.contraction") == 1
    assert names.count("bounds.resolvent") >= 1


def test_traced_probe_resolves_once_per_normal_operator_apply(tracing, monkeypatch):
    # bounds.resolvent_calls in the benchmark counts one resolvent per
    # Lanczos step of the contraction scan
    from test_harness import trimmed_config
    from dipolelab import bounds, harness

    applies = []
    top_eigenpair = bounds._top_eigenpair

    def counting(apply_fn, *args, **kwargs):
        def counted(x):
            applies.append(1)
            return apply_fn(x)
        return top_eigenpair(counted, *args, **kwargs)

    monkeypatch.setattr(bounds, "_top_eigenpair", counting)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        harness.run_bounds_check(trimmed_config())
    finally:
        tracer.restore()
    names = [rec[tracing.NAME] for rec in tracer.spans]
    assert len(applies) > 0
    assert names.count("bounds.resolvent") == len(applies)
