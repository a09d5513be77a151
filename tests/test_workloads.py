"""The benchmark's workloads call the package by name, so deleting or
renaming something one of them uses must fail here and not only in a
benchmark run; and one full pass of each must report no problem, so a failing
or incorrect op shows here before the benchmark counts it."""

import importlib.util
import sys
from pathlib import Path

from ltbounds import verify

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclass looks itself up there
    spec.loader.exec_module(module)
    return module


def test_every_workload_warms_up_and_passes_its_checks(monkeypatch):
    workloads = _load_workloads(monkeypatch)
    instances = {name: cls(0) for name, cls in workloads.WORKLOADS.items()}
    for workload in instances.values():
        assert workload.inputs(0)
        workload.warm_up()
    certify = instances["certify"]
    assert certify._check_table(*workloads._table()) is None
    pair = certify.inputs(0)[0]
    assert certify._check_pair(pair, *workloads._score(pair)) is None
    case = instances["verify"].inputs(0)[0]  # the first default-suite case
    pot, grid = verify.potential_from_json(case["potential"]), verify.grid_from_json(case["grid"])
    assert workloads.VerifyWorkload._check(pot, *workloads._solve(pot, grid)) is None


class _NoTimer:
    """The op timer a workload pass calls before each op; it measures nothing."""

    def before_op(self) -> None:
        pass


def test_one_full_pass_of_every_workload_reports_no_problem(monkeypatch):
    workloads = _load_workloads(monkeypatch)
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(0)
        workload.warm_up()
        ops = workload.run_pass(0, _NoTimer())
        assert ops, name
        assert [op.problem for op in ops if op.problem is not None] == [], name


def test_optimize_converges_from_perturbed_starts(monkeypatch):
    # pass 0 of seed 0 starts every run exactly at its package start; pass 1
    # perturbs each start by up to 2 %, so a search that stops unconverged
    # from such a start fails here before the benchmark counts it
    workloads = _load_workloads(monkeypatch)
    workload = workloads.OptimizeWorkload(0)
    assert workload.inputs(1) != workload.inputs(0)
    ops = workload.run_pass(1, _NoTimer())
    assert len(ops) == len(workloads.OPT_RUNS)
    assert [op.problem for op in ops if op.problem is not None] == []
