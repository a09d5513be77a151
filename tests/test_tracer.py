"""The benchmark's tracer patches package functions by module attribute, so
renaming or inlining one of them must fail here and not only in a benchmark
run."""

import importlib.util
from pathlib import Path

from ltbounds import cli, functionals, optimize, quad, trial, verify

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = (cli, functionals, optimize, quad, trial, verify)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_patch():
    before = [dict(vars(m)) for m in MODULES]
    tracer = _load_tracer().Tracer()
    with tracer.installed():
        assert optimize.normalize_profile is not before[MODULES.index(optimize)]["normalize_profile"]
        optimize.trial_pair("bump_poly", (4.0, 0.25, 2.0, 4.0))
    assert [dict(vars(m)) for m in MODULES] == before
    totals = tracer.totals()
    assert totals["trial.normalize_profile"]["calls"] == 1
    assert totals["trial.normalize_weight"]["calls"] == 1
    assert tracer.counts["optimize.evals"] == 1
