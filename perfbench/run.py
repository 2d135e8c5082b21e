"""Benchmark of the sppc library and command line.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/selftest.py      # fast smoke test of this harness

Workloads (see make_workloads below and BENCHMARK.json for why each exists):

  example-mc    ``sppc montecarlo`` in-process on the example experiment
                (n=4, N=10, p_drop=0.5, omp and l1), interleaved with a
                replay of omp_design and l1_design on states of its own
                trajectories.
  long-horizon  the same plant and path with N=20, p_drop=0.9, omp only.
  synth-sweep   synthesize + check_invariants + build_horizon on one random
                reachable plant for each n in 2..20 and N in 4..64.

All load comes from this one process, with the CLI at ``--workers 1`` and BLAS
pinned to one thread. A run prepares its inputs from the seed, runs one
untimed warm-up pass, then repeats identical passes for ``--seconds``
seconds and checks that every pass produced the same outputs.

``--trace 0`` reports the end-to-end metrics:

  ops_per_s             closed-loop steps simulated per second by the CLI calls
                        (summed over solvers and trials); sweep cases per second
                        in synth-sweep. Median over passes.
  latency_p50_us,       median and 99th percentile of one operation's latency:
  latency_p99_us        an omp_design call on a replayed trajectory state, or a
                        whole sweep case. Each of the >= 1000 samples is one
                        state or case: the median of its timings in all passes,
                        so p99 has >= 10 samples beyond it.
  sound_synthesis_frac  share of syntheses that pass every invariant check and
                        keep a margin ratio above workloads.MARGIN_FLOOR.
  peak_rss_mb           peak resident memory of this process.
  setup_s               wall time for a fresh interpreter to import sppc and
                        build the workload's first setup (median of several).

Every time is scaled by the host's speed around the block of work it was
measured in (see calibration.py), because on a shared host the speed of
identical code drifts by tens of percent over seconds to minutes. The unscaled
values and the factors are printed as comments and kept in
``.bench_out/result-<workload>-trace<0|1>.json``.

``--trace 1`` alternates untraced passes with passes in which every public
layer function is wrapped (see tracer.py) and reports per-layer metrics, per
traced pass, plus ``trace.overhead_frac``, the traced pass time over the
untraced one minus 1. Spans are written to ``.bench_out/spans-<workload>.csv``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0 when
every check passed, 1 when one failed, and 2 when the program is missing.
"""

from __future__ import annotations

import os

# BLAS must be pinned before numpy is first imported, here and in every
# interpreter this benchmark starts (they inherit the environment).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from calibration import REF_S, Blocks, Calibration  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"

SETUP_PROBES = 5          # timed fresh-interpreter set-ups per run
PROBE_TIMEOUT_S = 60

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("sound_synthesis_frac", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# Traced function -> (module that defines it, per-layer metric prefix).
TRACED = {
    "omp_design": ("sppc.solvers", "solvers.omp"),
    "l1_design": ("sppc.solvers", "solvers.l1"),
    "solve_least_squares": ("sppc.numerics", "numerics.lstsq"),
    "synthesize": ("sppc.synthesis", "synthesis"),
    "check_invariants": ("sppc.synthesis", "synthesis.check"),
    "build_horizon": ("sppc.lifting", "lifting"),
    "step": ("sppc.plant", "plant.step"),
    "channel_step": ("sppc.netsim", "netsim.channel"),
    "buffer_apply": ("sppc.netsim", "netsim.buffer"),
    "run_trial": ("sppc.netsim", "netsim.trial"),
    "run_montecarlo": ("sppc.netsim", "netsim.montecarlo"),
    "load_config": ("sppc.config", "config"),
    "build_setup": ("sppc.config", "config"),
    "main": ("sppc.cli", "cli"),
}

PER_LAYER = (
    ("solvers.omp.calls", "count"),
    ("solvers.omp.self_s", "s"),
    ("solvers.omp.iterations", "count"),
    ("solvers.omp.zero_state_frac", "ratio"),
    ("solvers.omp.mean_l0", "count"),
    ("numerics.lstsq.calls", "count"),
    ("numerics.lstsq.self_s", "s"),
    ("solvers.l1.calls", "count"),
    ("solvers.l1.self_s", "s"),
    ("solvers.l1.iterations", "count"),
    ("solvers.l1.mean_l0", "count"),
    ("solvers.l1.replay_p50_us", "us"),
    ("solvers.l1.replay_p99_us", "us"),
    ("synthesis.calls", "count"),
    ("synthesis.self_s", "s"),
    ("synthesis.riccati_iterations", "count"),
    ("synthesis.check_s", "s"),
    ("synthesis.failed", "count"),
    ("synthesis.raised", "count"),
    ("synthesis.invariant_failed", "count"),
    ("synthesis.void_margin", "count"),
    ("lifting.calls", "count"),
    ("lifting.self_s", "s"),
    ("plant.step.calls", "count"),
    ("plant.step.self_s", "s"),
    ("netsim.channel.calls", "count"),
    ("netsim.channel.self_s", "s"),
    ("netsim.channel.delivery_ratio", "ratio"),
    ("netsim.buffer.calls", "count"),
    ("netsim.buffer.self_s", "s"),
    ("netsim.buffer.mean_depth", "count"),
    ("netsim.trial.self_s", "s"),
    ("netsim.montecarlo.self_s", "s"),
    ("config.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "B"),
    ("bench.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def _targets():
    from tracer import Target

    def omp(counters, args, kwargs, packet):
        counters["omp.iterations"] += getattr(packet, "iterations", 0)
        # the threshold x^T W x underflowed to exactly zero
        counters["omp.zero_state"] += getattr(packet, "threshold", None) == 0.0

    def l1(counters, args, kwargs, packet):
        counters["l1.iterations"] += getattr(packet, "iterations", 0)

    def synthesis(counters, args, kwargs, result):
        counters["synthesis.riccati_iterations"] += getattr(result, "riccati_iterations", 0)

    def channel(counters, args, kwargs, delivered):
        counters["channel.delivered"] += bool(delivered)

    def buffer(counters, args, kwargs, value):
        buf = args[0] if args else kwargs.get("buf")
        # index of the element just played; 0 for a fresh packet
        counters["buffer.depth"] += getattr(buf, "cursor", 1) - 1

    hooks = {"omp_design": omp, "l1_design": l1, "synthesize": synthesis,
             "channel_step": channel, "buffer_apply": buffer}
    return [Target(module, name, hooks.get(name)) for name, (module, _) in TRACED.items()]


def make_workloads():
    from workloads import MonteCarlo, SynthesisSweep

    # Trial counts make one pass a few seconds long at the seed commit
    # (~37 ms per omp trial and ~74 ms per l1 trial at N=10, ~140 ms per omp
    # trial at N=20, p_drop=0.9), split into CLI calls of about 0.4 s.
    return {
        "example-mc": MonteCarlo("example-mc", {}, trials=40, calls=10,
                                 replay_states=1000, repeats=3,
                                 l1_trials=10, l1_states=300),
        "long-horizon": MonteCarlo("long-horizon",
                                   {"N": 20, "p_drop": 0.9, "solver": "omp"},
                                   trials=24, calls=8, replay_states=1000, repeats=2),
        "synth-sweep": SynthesisSweep("synth-sweep"),
    }


WORKLOAD_NAMES = ("example-mc", "long-horizon", "synth-sweep")


def _per_item_median(passes, attr: str = "latency_us") -> list:
    """Median over passes of each state's or case's latency, in microseconds.

    Passes that timed a different number of items (a failed call) are pooled.
    """
    lists = [getattr(p, attr) for p in passes]
    if len({len(values) for values in lists}) == 1:
        return [statistics.median(column) for column in zip(*lists)]
    return [value for values in lists for value in values]


def measure_setup(probe_args, probes: int, cal: Calibration) -> tuple[float, float]:
    """Median wall time of fresh interpreters doing the set-up, raw and scaled."""
    code = ("import sys; sys.path[:0] = [{src!r}, {bench!r}]; import workloads; "
            "workloads.probe_setup(*sys.argv[1:])").format(src=str(SRC), bench=str(BENCH_DIR))

    def probe() -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, *probe_args], check=True,
                       timeout=PROBE_TIMEOUT_S, cwd=str(ROOT),
                       stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0

    probe()  # the first start fills the bytecode and file caches
    times = Blocks(cal)
    for _ in range(probes):
        times.add("setup", probe())
    times.close()
    return statistics.median(times.raw["setup"]), statistics.median(times.scaled["setup"])


def run_passes(workload, seconds: float, trace: bool, problems: list, cal: Calibration):
    """Untimed warm-up, then passes for `seconds` (alternating traced ones if trace)."""
    from tracer import Tracer

    workload.warm_up(problems, cal)
    plain, traced, tracers = [], [], []
    start = time.perf_counter()
    while True:
        if trace and len(plain) > len(traced):
            tracer = Tracer(_targets())
            with tracer:
                traced.append(workload.run_pass(problems, cal))
            tracers.append(tracer)
        else:
            plain.append(workload.run_pass(problems, cal))
        if time.perf_counter() - start >= seconds and (not trace or len(traced) == len(plain)):
            break
    return plain, traced, tracers


def end_to_end_metrics(plain, setup_s: float, raw: bool = False) -> dict:
    prefix = "raw_" if raw else ""
    latency = _per_item_median(plain, prefix + "latency_us")
    first = plain[0].counts
    syntheses = first.get("synthesis.sound", 0) + first.get("synthesis.failed", 0)
    return {
        "ops_per_s": statistics.median(p.ops / getattr(p, prefix + "work_s") for p in plain),
        "latency_p50_us": float(np.percentile(latency, 50)),
        "latency_p99_us": float(np.percentile(latency, 99)),
        "sound_synthesis_frac": first.get("synthesis.sound", 0) / max(syntheses, 1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


def per_layer_metrics(plain, traced, tracers) -> tuple[dict, dict, dict]:
    """Per-layer metrics averaged over traced passes, a per-span table, and
    the time accounting: summed self times against traced and untraced passes."""
    span_rows: dict[str, list] = {}
    bench_self = 0.0
    for tracer, result in zip(tracers, traced):
        table, roots = tracer.layers()
        bench_self += (result.total_s - roots) * result.speed
        for name, (calls, inclusive, self_s) in table.items():
            acc = span_rows.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += inclusive * result.speed
            acc[2] += self_s * result.speed
    k = len(tracers)
    per_span = {name: [row[0] / k, row[1] / k, row[2] / k] for name, row in span_rows.items()}
    counters: dict[str, float] = {}
    for tracer in tracers:
        for key, value in tracer.counters.items():
            counters[key] = counters.get(key, 0.0) + value / k

    layer_calls: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    for span, (calls, _, self_s) in per_span.items():
        layer = TRACED[span][1]
        layer_calls[layer] = layer_calls.get(layer, 0.0) + calls
        layer_self[layer] = layer_self.get(layer, 0.0) + self_s

    def ratio(num, den):
        return num / den if den else 0.0

    counts = traced[0].counts
    l1_latency = _per_item_median(plain, "l1_latency_us")
    metrics = {
        "solvers.omp.iterations": counters.get("omp.iterations", 0.0),
        "solvers.omp.zero_state_frac": ratio(counters.get("omp.zero_state", 0.0),
                                             layer_calls.get("solvers.omp", 0.0)),
        "solvers.omp.mean_l0": counts.get("omp.mean_l0", 0.0),
        "solvers.l1.iterations": counters.get("l1.iterations", 0.0),
        "solvers.l1.mean_l0": counts.get("l1.mean_l0", 0.0),
        "solvers.l1.replay_p50_us": float(np.percentile(l1_latency, 50)) if l1_latency else 0.0,
        "solvers.l1.replay_p99_us": float(np.percentile(l1_latency, 99)) if l1_latency else 0.0,
        "synthesis.riccati_iterations": counters.get("synthesis.riccati_iterations", 0.0),
        "synthesis.check_s": layer_self.get("synthesis.check", 0.0),
        "netsim.channel.delivery_ratio": ratio(counters.get("channel.delivered", 0.0),
                                               layer_calls.get("netsim.channel", 0.0)),
        "netsim.buffer.mean_depth": ratio(counters.get("buffer.depth", 0.0),
                                          layer_calls.get("netsim.buffer", 0.0)),
        "cli.bytes_written": counts.get("cli.bytes_written", 0),
        "bench.self_s": bench_self / k,
        "trace.overhead_frac": statistics.median(p.total_s * p.speed for p in traced)
        / statistics.median(p.total_s * p.speed for p in plain) - 1.0,
    }
    for key in ("failed", "raised", "invariant_failed", "void_margin"):
        metrics[f"synthesis.{key}"] = counts.get(f"synthesis.{key}", 0)
    for name, _ in PER_LAYER:
        if name in metrics:
            continue
        layer, _, kind = name.rpartition(".")
        metrics[name] = layer_calls.get(layer, 0.0) if kind == "calls" else layer_self.get(layer, 0.0)
    accounting = {
        "self_sum_s": sum(layer_self.values()) + bench_self / k,
        "traced_pass_s": statistics.fmean(p.total_s * p.speed for p in traced),
        "untraced_pass_s": statistics.fmean(p.total_s * p.speed for p in plain),
    }
    return metrics, per_span, accounting


def provenance(args, plain, traced, latency_samples: int, absent) -> dict:
    import scipy
    import workloads

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "passes_untraced": len(plain), "passes_traced": len(traced),
        "latency_samples": latency_samples, "setup_probes": SETUP_PROBES,
        "margin_floor": workloads.MARGIN_FLOOR,
        "absent_layers": absent,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1 or not 0 <= args.seed < 2 ** 63:
        parser.error("--seconds must be >= 1 and --seed in [0, 2**63)")
    return args


def import_program() -> None:
    """Import sppc from this checkout's src/, never from an installed copy."""
    if not (SRC / "sppc" / "__init__.py").is_file():
        print(f"error: {SRC / 'sppc'} not found; run from a full checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import sppc

    if Path(sppc.__file__).resolve().parent != (SRC / "sppc").resolve():
        print(f"error: imported sppc from {sppc.__file__}, not from {SRC}", file=sys.stderr)
        raise SystemExit(2)


def run(args, workload, work_dir: str, *, probes: int = SETUP_PROBES) -> dict:
    """Run one workload and return the result document (metrics and details)."""
    problems: list[str] = []
    cal = Calibration()
    workload.prepare(args.seed, work_dir)
    setup_raw_s, setup_s = (measure_setup(workload.probe_args(), probes, cal)
                            if not args.trace else (0.0, 0.0))
    plain, traced, tracers = run_passes(workload, args.seconds, bool(args.trace),
                                        problems, cal)
    reference = plain[0].outputs
    for label, result in [("untraced", p) for p in plain] + [("traced", p) for p in traced]:
        if result.outputs != reference:
            problems.append(f"{label} pass outputs differ from the first pass")
    passes = plain + traced
    document = {
        "correct": not problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "problems": problems,
    }
    latency_samples = len(_per_item_median(plain))
    if args.trace:
        values, per_span, accounting = per_layer_metrics(plain, traced, tracers)
        units = PER_LAYER
        document["spans_per_pass"] = per_span
        document["time_accounting"] = accounting
        document["tracers"] = tracers
    else:
        values = end_to_end_metrics(plain, setup_s)
        document["unscaled_metrics"] = end_to_end_metrics(plain, setup_raw_s, raw=True)
        units = END_TO_END
    document["metrics"] = {name: {"value": float(values[name]), "unit": unit}
                           for name, unit in units}
    absent = sorted({span for t in tracers for span in t.absent})
    document["provenance"] = provenance(args, plain, traced, latency_samples, absent)
    document["provenance"]["calibration"] = {
        "ref_s": REF_S, "marks": len(cal.factors),
        "factor_quartiles": [round(q, 4) for q in statistics.quantiles(cal.factors, n=4)],
        "pass_factors": [round(p.speed, 4) for p in passes]}
    return document


def report(document) -> None:
    prov = document["provenance"]
    for name, metric in document["metrics"].items():
        print(f"{name:32s} {metric['value']:.6g} {metric['unit']}")
    if "spans_per_pass" in document:
        print(f"# {'span':22s} {'calls/pass':>11s} {'incl us/call':>13s} {'self us/call':>13s}")
        for name, (calls, incl, self_s) in sorted(document["spans_per_pass"].items()):
            print(f"# {name:22s} {calls:11.1f} {incl / calls * 1e6:13.2f} {self_s / calls * 1e6:13.2f}")
        print("# time per pass: " + ", ".join(
            f"{key} {value:.4f}" for key, value in document["time_accounting"].items()))
    for name, value in document.get("unscaled_metrics", {}).items():
        print(f"# unscaled {name:23s} {value:.6g}")
    for problem in document["problems"][:20]:
        print(f"# CHECK FAILED: {problem}")
    print("# provenance " + json.dumps(prov, sort_keys=True))


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    workload = make_workloads()[args.workload]
    OUT_ROOT.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_ROOT)
    try:
        document = run(args, workload, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    tracers = document.pop("tracers", [])
    if tracers:
        with open(OUT_ROOT / f"spans-{args.workload}.csv", "w", encoding="utf-8") as handle:
            handle.write("pass,id,name,start,end,parent\n")
            for index, tracer in enumerate(tracers):
                tracer.write_csv(handle, str(index))
    with open(OUT_ROOT / f"result-{args.workload}-trace{args.trace}.json", "w",
              encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
    report(document)
    print(json.dumps({key: document[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if document["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
