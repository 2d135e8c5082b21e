import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sppc.cli as cli
from sppc import config, solvers
from sppc.errors import BufferExhausted


SCALAR_DOC = {
    "plant": {"A": [[2.0]], "B": [[1.0]]},
    "N": 2,
    "x0": [1.0],
    "lambda": 1.0,
    "p_drop": 0.5,
    "steps": 3,
    "trials": 2,
    "seed": 7,
}

EXAMPLE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "example.json"


def write_config(tmp_path, name="config.json", **overrides):
    doc = dict(SCALAR_DOC)
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_manifest(out_dir):
    with open(out_dir / "manifest.json", encoding="utf-8") as handle:
        return json.load(handle)


def drop_times(csv_text):
    """trace.csv minus its wall-clock column, which is not deterministic."""
    return [line.rsplit(",", 1)[0] for line in csv_text.splitlines()]


def test_synthesize_writes_manifest(tmp_path, capsys):
    out = tmp_path / "run"
    code = cli.main(["synthesize", "--config", write_config(tmp_path),
                     "--out", str(out)])
    assert code == 0
    assert "manifest.json" in capsys.readouterr().out
    doc = read_manifest(out)
    assert doc["command"] == "synthesize"
    assert doc["all_checks_passed"] is True
    assert doc["synthesis"]["P"] == [[1.0]]
    assert doc["synthesis"]["rho"] == 0.0
    assert doc["synthesis"]["c"] == pytest.approx(29.142135623730951, rel=1e-12)
    assert doc["synthesis"]["W"][0][0] == pytest.approx(0.017157287525380992,
                                                        rel=1e-12)
    names = [c["name"] for c in doc["checks"]]
    assert "w_positive_definite" in names and "eps_inside_cone" in names


def test_synthesize_unreachable_plant_fails_numeric(tmp_path, capsys):
    path = write_config(tmp_path,
                        plant={"A": [[1.0, 0.0], [0.0, 1.0]], "B": [1.0, 1.0]},
                        x0=[1.0, 0.0])
    code = cli.main(["synthesize", "--config", path, "--out", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NotReachable"


def test_invalid_config_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"plant": {"A": [[2.0]], "B": [[1.0]]}}))
    code = cli.main(["synthesize", "--config", str(path), "--out", str(tmp_path)])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def test_unreadable_config_exits_one(tmp_path, capsys):
    code = cli.main(["synthesize", "--config", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path)])
    assert code == 1


def test_usage_errors_exit_one(tmp_path, capsys):
    assert cli.main(["synthesize"]) == 1
    assert cli.main(["replicate", "--config", "x.json"]) == 1
    capsys.readouterr()


def test_simulate_trace_shape(tmp_path):
    out = tmp_path / "sim"
    code = cli.main(["simulate", "--config", write_config(tmp_path),
                     "--out", str(out)])
    assert code == 0
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "k,norm_x,l0_u,dropped,input,design_time_us"
    assert len(lines) == SCALAR_DOC["steps"] + 2
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2", "3"]
    first = lines[1].split(",")
    assert float(first[1]) == 1.0
    last = lines[-1].split(",")
    assert (last[2], last[3], last[4]) == ("0", "0", "0")


def test_simulate_deterministic_modulo_clock(tmp_path):
    cfg = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out_a)]) == 0
    assert cli.main(["simulate", "--config", cfg, "--out", str(out_b)]) == 0
    text_a = (out_a / "trace.csv").read_text()
    text_b = (out_b / "trace.csv").read_text()
    assert drop_times(text_a) == drop_times(text_b)


def test_simulate_rejects_both(tmp_path, capsys):
    path = write_config(tmp_path, solver="both")
    out = tmp_path / "out"
    code = cli.main(["simulate", "--config", path, "--out", str(out)])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert list(out.iterdir()) == []


def test_simulate_failed_trial_writes_nothing(tmp_path, monkeypatch, capsys):
    # the trial runs before any file is written, so no manifest reads like a success
    monkeypatch.setattr(solvers, "L1_MAX_ITERATIONS", 0)
    out = tmp_path / "out"
    code = cli.main(["simulate", "--config", write_config(tmp_path, solver="l1"),
                     "--out", str(out)])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "NoConvergence"
    assert list(out.iterdir()) == []


def test_simulate_requires_x0(tmp_path, capsys):
    doc = dict(SCALAR_DOC)
    del doc["x0"]
    path = tmp_path / "no_x0.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path)])
    assert code == 1
    capsys.readouterr()


def test_montecarlo_single_solver_columns(tmp_path):
    out = tmp_path / "mc"
    code = cli.main(["montecarlo", "--config", write_config(tmp_path),
                     "--out", str(out)])
    assert code == 0
    lines = (out / "aggregate.csv").read_text().splitlines()
    assert lines[0] == "k,mean_norm_x_omp,mean_l0_omp"
    assert len(lines) == SCALAR_DOC["steps"] + 2
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {"omp"}
    assert set(summary["omp"]) == {"log_decay_slope", "mean_l0",
                                   "mean_design_time_us"}


def test_montecarlo_zero_steps_exits_one(tmp_path, capsys):
    # a rejected run leaves no output, so no manifest reads like a success
    runs = {"steps0": (write_config(tmp_path, "steps0.json", steps=0), []),
            "workers0": (write_config(tmp_path), ["--workers", "0"]),
            "seed-range": (write_config(tmp_path), ["--seed", str(2 ** 64 - 1), "--trials", "3"])}
    for name, (cfg, extra) in runs.items():
        out = tmp_path / name
        code = cli.main(["montecarlo", "--config", cfg, "--out", str(out)] + extra)
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        for output in ("manifest.json", "aggregate.csv", "summary.json"):
            assert not (out / output).exists()


def test_montecarlo_l1_solver_columns(tmp_path):
    out = tmp_path / "mc_l1"
    code = cli.main(["montecarlo", "--config",
                     write_config(tmp_path, solver="l1"), "--out", str(out)])
    assert code == 0
    lines = (out / "aggregate.csv").read_text().splitlines()
    assert lines[0] == "k,mean_norm_x_l1,mean_l1_l0"


def test_montecarlo_both_solver_columns(tmp_path):
    out = tmp_path / "mc_both"
    code = cli.main(["montecarlo", "--config",
                     write_config(tmp_path, solver="both"), "--out", str(out)])
    assert code == 0
    lines = (out / "aggregate.csv").read_text().splitlines()
    assert lines[0] == "k,mean_norm_x_omp,mean_l0_omp,mean_norm_x_l1,mean_l1_l0"
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {"omp", "l1"}


def test_montecarlo_single_trial_matches_simulate(tmp_path):
    cfg = write_config(tmp_path, trials=1)
    out_sim, out_mc = tmp_path / "sim", tmp_path / "mc"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out_sim)]) == 0
    assert cli.main(["montecarlo", "--config", cfg, "--out", str(out_mc)]) == 0
    trace = (out_sim / "trace.csv").read_text().splitlines()[1:]
    agg = (out_mc / "aggregate.csv").read_text().splitlines()[1:]
    for trace_line, agg_line in zip(trace, agg):
        assert trace_line.split(",")[1] == agg_line.split(",")[1]


def test_montecarlo_rerun_byte_identical(tmp_path):
    cfg = write_config(tmp_path, solver="both", trials=3)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["montecarlo", "--config", cfg, "--out", str(out_a)]) == 0
    assert cli.main(["montecarlo", "--config", cfg, "--out", str(out_b)]) == 0
    assert (out_a / "aggregate.csv").read_bytes() == (out_b / "aggregate.csv").read_bytes()


def test_montecarlo_workers_do_not_change_output(tmp_path):
    cfg = write_config(tmp_path, solver="both", trials=4)
    out_a, out_b = tmp_path / "seq", tmp_path / "par"
    assert cli.main(["montecarlo", "--config", cfg, "--out", str(out_a)]) == 0
    assert cli.main(["montecarlo", "--config", cfg, "--out", str(out_b),
                     "--workers", "2"]) == 0
    assert (out_a / "aggregate.csv").read_bytes() == (out_b / "aggregate.csv").read_bytes()
    summaries = []
    for out in (out_a, out_b):
        summary = json.loads((out / "summary.json").read_text())
        for entry in summary.values():
            del entry["mean_design_time_us"]    # wall clock
        summaries.append(summary)
    assert summaries[0] == summaries[1]


def test_overrides_reach_manifest(tmp_path):
    out = tmp_path / "o"
    code = cli.main(["montecarlo", "--config", write_config(tmp_path),
                     "--out", str(out), "--seed", "99", "--trials", "5",
                     "--solver", "l1"])
    assert code == 0
    doc = read_manifest(out)
    assert doc["config"]["seed"] == 99
    assert doc["config"]["trials"] == 5
    assert doc["config"]["solver"] == "l1"


def test_override_replaces_invalid_file_value(tmp_path):
    out = tmp_path / "o"
    code = cli.main(["montecarlo", "--config", write_config(tmp_path, trials=0),
                     "--out", str(out), "--trials", "2"])
    assert code == 0
    assert read_manifest(out)["config"]["trials"] == 2


def test_manifest_embeds_the_canonical_document(tmp_path):
    # json.dump keeps dict order, so the key order is part of the manifest's bytes
    path, out = tmp_path / "scrambled.json", tmp_path / "o"
    path.write_text(json.dumps({"steps": 4, "seed": 3, "N": 2,
                                "plant": {"A": [[2]], "B": [1]}}))
    overrides = {"seed": 99, "trials": 5, "solver": "l1"}
    flags = [f"--{key}={value}" for key, value in overrides.items()]
    assert cli.main(["synthesize", "--config", str(path), "--out", str(out), *flags]) == 0
    embedded = read_manifest(out)["config"]
    assert embedded == config.load_config(str(path), **overrides)
    assert list(embedded) == ["plant", "N", "Q", "alpha", "solver", "p_drop", "steps",
                              "trials", "seed"]      # x0 and lambda are unset
    assert (embedded["plant"], embedded["seed"]) == ({"A": [[2.0]], "B": [[1.0]]}, 99)


def test_non_conjugate_poles_exit_one(tmp_path, capsys):
    out = tmp_path / "o"
    path = write_config(tmp_path, plant={"poles": [[1.0, 1.0], 0.5]},
                        x0=[1.0, 0.0])
    code = cli.main(["synthesize", "--config", path, "--out", str(out)])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "NonConjugatePoles"
    assert list(out.iterdir()) == []


def test_buffer_exhaustion_exits_three(tmp_path, monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise BufferExhausted("buffer of length 2 ran dry")

    monkeypatch.setattr(cli, "run_trial", explode)
    code = cli.main(["simulate", "--config", write_config(tmp_path),
                     "--out", str(tmp_path)])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"] == "BufferExhausted"


def test_out_directory_created(tmp_path):
    out = tmp_path / "deep" / "nested" / "dir"
    code = cli.main(["synthesize", "--config", write_config(tmp_path),
                     "--out", str(out)])
    assert code == 0
    assert (out / "manifest.json").exists()


def test_module_entry_point(tmp_path):
    cfg = write_config(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "sppc", "synthesize", "--config", cfg,
         "--out", str(tmp_path / "entry")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "manifest.json" in proc.stdout


def spy_on(monkeypatch, name):
    """Pass cli's `name` through, recording each result it returns."""
    real, seen = getattr(cli, name), []

    def spy(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(cli, name, spy)
    return seen


def read_columns(path, int_columns):
    """A CSV's header and its columns parsed as floats; integer cells are digits only."""
    text = path.read_bytes().decode("utf-8")
    assert text.endswith("\n") and "\r" not in text
    header, *rows = text.splitlines()
    cells = [row.split(",") for row in rows]
    assert all(row[i].isdigit() for row in cells for i in int_columns)
    return header, [[float(cell) for cell in column] for column in zip(*cells)]


@pytest.mark.parametrize("config", ["scalar", "example"])
def test_csv_round_trips_exact_doubles(tmp_path, monkeypatch, config):
    cfg = write_config(tmp_path) if config == "scalar" else str(EXAMPLE_CONFIG)
    traces = spy_on(monkeypatch, "run_trial")
    results = spy_on(monkeypatch, "run_montecarlo")
    assert cli.main(["simulate", "--config", cfg, "--solver", "omp",
                     "--out", str(tmp_path / "sim")]) == 0
    assert cli.main(["montecarlo", "--config", cfg, "--trials", "20",
                     "--out", str(tmp_path / "mc")]) == 0
    (trace,), (result,) = traces, results

    header, columns = read_columns(tmp_path / "sim" / "trace.csv", (0, 2, 3))
    assert header == "k,norm_x,l0_u,dropped,input,design_time_us"
    expected = [np.arange(trace.steps + 1), trace.norm_x, trace.l0, trace.dropped,
                trace.inputs, trace.design_time_us]
    assert columns == [values.tolist() for values in expected]

    header, columns = read_columns(tmp_path / "mc" / "aggregate.csv", (0,))
    expected = [np.arange(trace.steps + 1)]
    for agg in result.values():
        expected += [agg.mean_norm_x, agg.mean_l0]
    assert columns == [values.tolist() for values in expected]
    if config == "example":
        # before its OMP mean norm reaches exact zero, the tail runs below 1e-140
        assert header.count(",") == 4
        assert min(v for v in columns[1] if v > 0.0) < 1e-140


def test_csv_round_trips_extreme_doubles(tmp_path, capsys):
    extremes = np.array([5e-324, 1e-300, 2.2250738585072014e-308, -0.0,
                         1.7976931348623157e308, 0.1 + 0.2, -1.0 / 3.0])
    path = tmp_path / "extremes.csv"
    cli._write_csv(str(path), {"k": np.arange(extremes.size), "value": extremes})
    assert capsys.readouterr().out == f"wrote {path}\n"
    header, columns = read_columns(path, (0,))
    assert header == "k,value"
    assert np.array(columns[1]).tobytes() == extremes.tobytes()
