"""Self-test of the benchmark: every workload's code path at a tiny size.

Run with ``python -m pytest -q perfbench``. Each workload runs once untraced
and once traced on the 6-cell model for a few milliseconds against a
reference computed on the spot; the test checks that every metric is
emitted with its declared unit and that the counter self-checks hold.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
perf = importlib.util.module_from_spec(spec)
spec.loader.exec_module(perf)
perf.load_mqsolve()


def test_benchmark_json_matches_emitted_metrics():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} \
        == perf.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} \
        == perf.PER_LAYER
    assert {w["name"] for w in declared["workloads"]} \
        == set(perf.WORKLOADS) - {"pod-8"}


@pytest.mark.parametrize("workload", list(perf.WORKLOADS))
def test_workload_at_tiny_size(workload):
    config = perf.workload_config(workload, 42, tiny=True)
    reference = perf.compute_reference(config.cells, config.t_end)
    untraced, traced, tracer = perf.measure(workload, 42, 0.0, True,
                                             reference, tiny=True)
    rows = untraced + traced
    assert [(row["seed"], row["ok"]) for row in rows] == [(42, True)] * 2
    # identical deterministic and per-layer counters, traced or not
    again, _ = perf.traced_execute(config, reference, perf.HostProbe(), 1)
    again["mode"] = "traced"
    perf.check_repeats(rows + [again])
    assert untraced[0]["counters"] == again["counters"]
    assert tracer.spans and all(span is not None for span in tracer.spans)

    layers = perf.per_layer_metrics(traced, untraced)
    assert set(layers) == set(perf.PER_LAYER)
    explicit = config.integrator == "explicit"
    perf.check_counters(layers, traced[0]["operator_applies"], explicit)
    if explicit:
        assert layers["schur.steps"] == traced[0]["steps"] > 0
        assert layers["startvec.start_calls"] > 0
    else:
        assert layers["implicit.newton_iters"] > 0
        assert layers["model.kc_jacobian_calls"] > 0

    e2e = perf.end_to_end_metrics(untraced)
    assert set(e2e) == set(perf.END_TO_END)
    assert all(value > 0 for value in e2e.values())


def test_host_factor_uses_the_local_median_probe():
    # probes every second; one interrupted probe at t=2, a slow host from t=4
    probes = [(0.0, 2e-3), (1.0, 2e-3), (2.0, 9e-3), (3.0, 2e-3),
              (4.0, 4e-3), (5.0, 4e-3), (6.0, 4e-3)]
    factors = perf.host_factors(probes, np.array([0.2, 1.9, 2.4, 5.4, 7.0]))
    scale = perf.PROBE_NOMINAL_S / 2e-3
    assert factors == pytest.approx([scale, scale, scale, scale / 2,
                                     scale / 2])


def test_times_are_panel_means_of_per_seed_medians():
    def row(seed, run_s, steps):
        return {"ok": True, "seed": seed, "run_s": run_s,
                "setup_s": run_s / 10, "step_segments": np.array(steps),
                "probe_err": 1e-4, "peak_rss_mb": 70.0}
    rows = [row(1, 2.0, [1.0, 3.0]), row(2, 4.0, [2.0]),
            row(1, 3.0, [1.0]), row(1, 9.0, [5.0])]
    metrics = perf.end_to_end_metrics(rows)
    assert metrics["run_s"] == pytest.approx((3.0 + 4.0) / 2)
    assert metrics["setup_s"] == pytest.approx((0.3 + 0.4) / 2)
    assert metrics["step_ms"] == pytest.approx(2000.0)
    assert metrics["peak_rss_mb"] == 70.0


def test_untraced_invocation_runs_the_whole_seed_panel():
    seeds = perf.panel_seeds(42)
    assert seeds[0] == 42 and len(set(seeds)) == perf.PANEL
    assert perf.panel_seeds(42) == seeds != perf.panel_seeds(43)
    config = perf.workload_config("cspe-8", 42, tiny=True)
    reference = perf.compute_reference(config.cells, config.t_end)
    untraced, traced, _ = perf.measure("cspe-8", 42, 0.0, False, reference,
                                       tiny=True)
    assert [row["seed"] for row in untraced] == seeds and not traced
    assert all(row["ok"] for row in untraced)


def test_self_check_rejects_a_broken_identity():
    layers = {name: 0 for name in perf.PER_LAYER}
    layers.update({"sparse.matvecs": 5, "krylov.iterations": 4,
                   "krylov.initial_residuals": 1,
                   "schur.kn_applies.pcg": 4, "schur.kn_applies.initial": 1})
    perf.check_counters(layers, 5, explicit=True)
    with pytest.raises(perf.SelfCheckError):
        perf.check_counters(layers, 6, explicit=True)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cspe-8",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
