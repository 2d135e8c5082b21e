"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that every metric listed in BENCHMARK.json is produced with its
unit, that tracing restores every patched function, that a traced pass
produces the same outputs as an untraced one, that a missing layer is
reported rather than fatal, and that self times account for the traced time.
It exits 0 on success and raises AssertionError otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import shutil
import sys
import tempfile

import run  # first: pins BLAS threads before numpy is imported


def _bindings():
    return {(name, attr): value
            for name, module in list(sys.modules.items())
            if module is not None and (name == "sppc" or name.startswith("sppc."))
            for attr, value in vars(module).items() if callable(value)}


def _tiny_workloads():
    from workloads import MonteCarlo, SynthesisSweep

    return {
        "example-mc": MonteCarlo("example-mc", {}, trials=2, calls=2, replay_states=40,
                                 repeats=2, l1_trials=1, l1_states=10),
        "long-horizon": MonteCarlo("long-horizon",
                                   {"N": 20, "p_drop": 0.9, "solver": "omp"},
                                   trials=1, calls=1, replay_states=20, repeats=1),
        "synth-sweep": SynthesisSweep("synth-sweep", cases=12),
    }


def check_declared_metrics() -> None:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(run.PER_LAYER)


def check_tracing(workload, work_dir: str) -> None:
    from calibration import Calibration
    from tracer import Target, Tracer

    problems: list[str] = []
    cal = Calibration()
    workload.prepare(3, work_dir)
    before = _bindings()
    plain = workload.run_pass(problems, cal)
    targets = run._targets() + [Target("sppc.solvers", "no_such_function")]
    tracer = Tracer(targets)
    with tracer:
        assert _bindings() != before, "tracing patched nothing"
        traced = workload.run_pass(problems, cal)
    assert _bindings() == before, "tracing left a patched function behind"
    assert tracer.absent == ["no_such_function"], tracer.absent
    assert not problems, problems
    assert traced.outputs == plain.outputs, "traced and untraced outputs differ"
    table, roots = tracer.layers()
    self_total = sum(row[2] for row in table.values())
    assert math.isclose(self_total, roots, rel_tol=1e-9), (self_total, roots)
    assert roots <= traced.total_s


def check_run(name: str, workload, work_dir: str) -> None:
    for trace, declared in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        args = argparse.Namespace(workload=name, seed=3, seconds=1, trace=trace)
        document = run.run(args, workload, work_dir, probes=1)
        assert document["correct"], document["problems"]
        assert document["attempted"] >= 1 and document["failed"] == 0
        metrics = document["metrics"]
        assert list(metrics) == [metric for metric, _ in declared], sorted(metrics)
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            run.report(document)
        lines = printed.getvalue().splitlines()
        for metric, unit in declared:
            assert metrics[metric]["unit"] == unit
            assert math.isfinite(metrics[metric]["value"]), metric
            assert any(line.split()[0] == metric and line.split()[-1] == unit
                       for line in lines if line.strip()), metric
        if trace == 0:
            assert all(metrics[m]["value"] > 0 for m, _ in declared), metrics


def main() -> int:
    run.import_program()
    check_declared_metrics()
    for name, workload in _tiny_workloads().items():
        run.OUT_ROOT.mkdir(exist_ok=True)
        work_dir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_ROOT)
        try:
            check_tracing(workload, work_dir)
            check_run(name, workload, work_dir)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        print(f"selftest {name}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
