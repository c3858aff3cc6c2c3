"""Run configuration, model manifests, trace output, and the CLI."""

import dataclasses
import inspect
import json

import numpy as np
import pytest

from mqsolve import (ExplicitConfig, NewtonConfig, TransientResult, bench,
                     builtin_model, cli, estimate_cfl, export_model,
                     run_explicit, run_implicit)
from mqsolve.bench import (TRACE_HEADER, ConfigError, RunConfig, load_model,
                           run_benchmark, run_single, trace_bytes,
                           write_trace)
from mqsolve.cli import main as cli_main


def tiny_config(**kwargs):
    base = dict(cells=6, t_end=2e-3, output_period=5e-4)
    base.update(kwargs)
    return RunConfig(**base)


def synthetic_result():
    return TransientResult(
        times=np.array([0.0, 1e-3]),
        probe_b=np.array([0.0, 0.25]),
        iters_src=np.array([0.0, 2.5]),
        iters_cpl_prev=np.array([0.0, 3.0]),
        basis_cols=np.array([0, 4]),
        pod_k=np.array([0, 2]),
        pod_info=np.array([1.0, 0.999]),
        final_a_c=np.zeros(1),
        final_a_n=np.zeros(1),
        aggregates={})


def test_trace_header_is_frozen():
    assert TRACE_HEADER == ("t,B_probe,iters_src,iters_cpl_prev,"
                            "basis_cols,pod_k,pod_info")


def test_trace_bytes_renders_rows_exactly():
    data = trace_bytes(synthetic_result())
    text = data.decode("ascii")
    assert text == (TRACE_HEADER + "\n"
                    "0.0,0.0,0.0,0.0,0,0,1.0\n"
                    "0.001,0.25,2.5,3.0,4,2,0.999\n")


def test_trace_bytes_refuses_empty():
    empty = TransientResult(
        times=np.zeros(0), probe_b=np.zeros(0), iters_src=np.zeros(0),
        iters_cpl_prev=np.zeros(0),
        basis_cols=np.zeros(0, dtype=int), pod_k=np.zeros(0, dtype=int),
        pod_info=np.zeros(0), final_a_c=np.zeros(1), final_a_n=np.zeros(1),
        aggregates={})
    with pytest.raises(ValueError):
        trace_bytes(empty)


def test_write_trace_roundtrip(tmp_path):
    path = write_trace(synthetic_result(), tmp_path / "sub" / "trace.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    assert len(lines) == 3


def test_config_layering(tmp_path, monkeypatch):
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps(
        {"cells": 7, "tol": 1e-7, "strategy": "pod", "dt": 1e-5,
         "linear": True}))
    # the environment is not a settings source
    monkeypatch.setenv("MQS_TOL", "1e-5")
    config = RunConfig.from_sources(
        config_file, overrides={"strategy": "cspe", "seed": None,
                                "dt": "auto"})
    assert config.cells == 7          # file
    assert config.tol == 1e-7         # file, environment ignored
    assert config.linear is True      # JSON bool
    assert config.dt == "auto"        # override beats file
    assert config.strategy == "cspe"  # override beats file
    assert config.seed == 42          # None override skipped
    with pytest.raises(ConfigError, match="dt"):
        RunConfig.from_sources(overrides={"dt": "auto-cfl"})
    config_file.write_text(json.dumps({"linear": "yes"}))
    with pytest.raises(ConfigError, match="linear"):
        RunConfig.from_sources(config_file)
    # coercion is exact: no truncation, no bool as a number and no number
    # as a string, from a file or an override
    for key, value in (("cells", 7.9), ("n_pod", 2.5), ("seed", 4.2),
                       ("max_newton", True), ("tol", True), ("dt", True),
                       ("dt", [1e-5]), ("strategy", 3), ("linear", 1)):
        config_file.write_text(json.dumps({key: value}))
        for sources in (dict(config_file=config_file),
                        dict(overrides={key: value})):
            with pytest.raises(ConfigError, match=key):
                RunConfig.from_sources(**sources)
    config = RunConfig.from_sources(overrides={"tol": 1, "dt": "1e-5"})
    assert config.tol == 1.0 and isinstance(config.tol, float)
    assert config.dt == 1e-5


def test_config_rejects_unknown_keys(tmp_path):
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps({"bananas": 3}))
    with pytest.raises(ConfigError):
        RunConfig.from_sources(bad_file)
    with pytest.raises(ConfigError):
        RunConfig.from_sources(overrides={"bananas": 3})
    with pytest.raises(ConfigError):
        RunConfig.from_sources(tmp_path / "missing.json")
    not_json = tmp_path / "broken.json"
    not_json.write_text("{nope")
    with pytest.raises(ConfigError):
        RunConfig.from_sources(not_json)


@pytest.mark.parametrize("key", ["power_iters", "power_tol", "cfl_steps",
                                 "cfl_tol"])
def test_config_rejects_the_power_iteration_keys(tmp_path, capsys, key):
    old_file = tmp_path / "old.json"
    old_file.write_text(json.dumps({key: 100}))
    with pytest.raises(ConfigError, match=key):
        RunConfig.from_sources(old_file)
    assert cli_main(["cfl", "--cells", "6", "--config", str(old_file)]) == 2
    assert key in capsys.readouterr().err


def test_config_rejects_the_derived_solver_keys(tmp_path, capsys):
    # Jacobi is the one preconditioner and n_c the CSPE basis cap, so an
    # old config file that sets either fails as any unknown key does
    for key, value in (("preconditioner", "jacobi"), ("max_basis", 20)):
        old_file = tmp_path / f"{key}.json"
        old_file.write_text(json.dumps({key: value}))
        assert cli_main(["run", "--cells", "6", "--config",
                         str(old_file)]) == 2
        assert capsys.readouterr().err == (
            f"error: unknown config key {key!r}\n")


def test_cfl_settings_reach_the_estimate(builtin6):
    settings = RunConfig().explicit_config()
    est = estimate_cfl(builtin6.system, pcg=settings.pcg, cfl_tol=1e-5,
                       cfl_steps=40)
    assert est.residual <= 1e-5 * est.lambda_max
    assert 0 < est.power_iters <= 40


def test_config_validation_errors():
    nan, inf = float("nan"), float("inf")
    # a run argument's error names its config key
    run_arguments = [
        dict(t_end=0.0), dict(t_end=nan), dict(t_end=inf),
        dict(output_period=0.0), dict(output_period=nan), dict(dt=0.0),
        dict(dt=nan), dict(dt=True), dict(dt="Auto"), dict(dt="1e-5"),
        dict(implicit_dt=0.0), dict(implicit_dt=nan)]
    for fields in run_arguments:
        with pytest.raises(ConfigError, match=f"^{next(iter(fields))} "):
            RunConfig(**fields).validate()
    cases = [dict(integrator="leapfrog"), dict(strategy="banana"),
             dict(tol=0.0), dict(newton_tol=0.0),
             dict(eps_pod=0.0), dict(eps_pod=1.0), dict(n_pod=0),
             dict(max_newton=0), dict(model=""), dict(safety=1.5),
             dict(safety=0.0), dict(seed=-1), dict(reestimate_every=-5)]
    for fields in cases:
        with pytest.raises(ConfigError):
            RunConfig(**fields).validate()
    # a tolerance must be finite, and its error names its config key
    for key in ("tol", "newton_tol"):
        with pytest.raises(ConfigError, match=f"^{key} "):
            RunConfig(**{key: inf}).validate()
    # 0 disables refreshes; a safety of exactly 1 keeps no margin
    RunConfig(reestimate_every=0, safety=1.0).validate()


@pytest.mark.parametrize("setting", [
    {"safety": 1.5}, {"seed": -1}, {"reestimate_every": -5},
    {"implicit_dt": float("nan")}, {"n_pod": 0}, {"eps_pod": 1.0},
    {"safety": 0.0}, {"eps_pod": 0.0}, {"tol": 0.0}, {"strategy": "banana"},
    {"newton_tol": 0.0}, {"max_newton": 0}, {"output_period": 0.0},
    {"t_end": float("nan")}, {"dt": float("nan")}, {"implicit_dt": 0.0},
    {"tol": float("inf")}, {"newton_tol": float("inf")},
    {"output_period": float("inf")}])
def test_cli_rejects_an_out_of_range_run_setting(tmp_path, capsys,
                                                 monkeypatch, setting):
    # the check runs before any model is built
    def no_model(**_):
        raise AssertionError("a model was built")

    monkeypatch.setattr(bench, "builtin_model", no_model)
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps(setting))
    assert cli_main(["cfl", "--cells", "6", "--config",
                     str(config_file)]) == 2
    err = capsys.readouterr().err
    # the message names the key the user wrote
    assert err.startswith(f"error: {next(iter(setting))} ")


def test_run_config_defaults_are_the_library_settings():
    # only the inner solve tolerance differs, on purpose
    library = ExplicitConfig()
    assert (RunConfig.tol, library.pcg.rel_tol) == (1e-6, 1e-8)
    assert RunConfig().explicit_config() == dataclasses.replace(
        library, pcg=dataclasses.replace(library.pcg, rel_tol=RunConfig.tol))
    assert RunConfig().newton_config() == NewtonConfig()
    # the output period of both integrators and the builtin model's
    # parameters
    config = RunConfig()
    for run in (run_explicit, run_implicit):
        period = inspect.signature(run).parameters["output_period"].default
        assert config.output_period == period
    model = inspect.signature(builtin_model).parameters
    for key in ("cells", "h", "kappa", "amps", "tau", "linear"):
        assert getattr(config, key) == model[key].default, key
    # and the seed of the Lanczos diagnostic
    assert config.seed == inspect.signature(
        estimate_cfl).parameters["seed"].default


def test_config_solver_mappings():
    config = RunConfig(tol=1e-5, newton_tol=1e-9, max_newton=7)
    pcg = config.explicit_config().pcg
    assert pcg.rel_tol == 1e-5
    newton = config.newton_config()
    assert newton.tol == 1e-9
    assert newton.max_newton == 7
    # the Newton settings are these two; each update's PCG solve stops at
    # a fraction of the Newton target, not at a setting of its own
    assert [f.name for f in dataclasses.fields(newton)] == ["tol",
                                                            "max_newton"]


def test_load_model_roundtrip_builtin(builtin6, tmp_path):
    directory = export_model(builtin6, tmp_path / "model").parent
    system, model, manifest = load_model(directory)
    assert model is not None
    assert model.builtin_params["cells"] == 6
    assert np.array_equal(system.kn.values, builtin6.system.kn.values)
    assert manifest["partition"]["n_conducting"] == 96


def test_load_model_roundtrip_frozen_linear(corner_toy, tmp_path, rng):
    directory = export_model(corner_toy, tmp_path / "model").parent
    system, model, _ = load_model(directory)
    assert model is None
    assert system.n_c == 3
    kc0 = corner_toy.system.kc_matrix(np.zeros(3)).to_dense()
    junk = rng.standard_normal(3)
    assert np.array_equal(system.kc_matrix(junk).to_dense(), kc0)


def test_load_model_rejects_non_diagonal_conductivity(corner_toy, tmp_path):
    from mqsolve import CsrMatrix, write_matrix_market
    directory = export_model(corner_toy, tmp_path / "model").parent
    mc = corner_toy.system.mc.to_dense()
    mc[0, 1] = mc[1, 0] = 0.5 * mc[0, 0]
    write_matrix_market(directory / "m_c.mtx", CsrMatrix.from_dense(mc),
                        symmetry="general")
    with pytest.raises(ConfigError, match="diagonal"):
        load_model(directory)


def test_load_model_error_paths(corner_toy, builtin6, tmp_path):
    with pytest.raises(ConfigError):
        load_model(tmp_path / "nowhere")

    directory = export_model(corner_toy, tmp_path / "m1").parent
    manifest_file = directory / "manifest.json"
    manifest = json.loads(manifest_file.read_text())

    bad = dict(manifest, format="other")
    manifest_file.write_text(json.dumps(bad))
    with pytest.raises(ConfigError, match="format"):
        load_model(directory)

    bad = json.loads(json.dumps(manifest))
    del bad["blocks"]["k_n"]
    manifest_file.write_text(json.dumps(bad))
    with pytest.raises(ConfigError, match="k_n"):
        load_model(directory)

    bad = json.loads(json.dumps(manifest))
    bad["waveform"]["kind"] = "sawtooth"
    manifest_file.write_text(json.dumps(bad))
    with pytest.raises(ConfigError, match="waveform"):
        load_model(directory)

    def rejects(directory, original, edit, match):
        bad = json.loads(json.dumps(original))
        edit(bad)
        (directory / "manifest.json").write_text(json.dumps(bad))
        with pytest.raises(ConfigError, match=match):
            load_model(directory)

    for edit, match in [
            (lambda m: m["waveform"].update(tau="abc"), "tau"),
            (lambda m: m["waveform"].update(tau="0.5"), "tau"),
            (lambda m: m["waveform"].update(tau=-1.0), "tau"),
            (lambda m: m["waveform"].update(tau=float("nan")), "tau"),
            (lambda m: m["waveform"].update(tau=float("inf")), "tau"),
            (lambda m: m.update(blocks=list(m["blocks"])), "blocks"),
            (lambda m: m.update(waveform="exponential_ramp"), "waveform"),
            (lambda m: m["blocks"].update(k_c="k_c.mtx"), "k_c"),
            (lambda m: m["blocks"]["k_c"].update(file=7), "k_c")]:
        rejects(directory, manifest, edit, match)

    manifest_file.write_text(json.dumps(manifest))
    load_model(directory)  # restored manifest loads again

    # a builtin section with a missing or malformed entry
    builtin_dir = export_model(builtin6, tmp_path / "mb").parent
    builtin_manifest = json.loads((builtin_dir / "manifest.json").read_text())
    for edit, match in [
            (lambda m: m["builtin"].pop("h"), "'h'"),
            (lambda m: m["builtin"].update(cells="six"), "cells"),
            # manifest values are typed as config values are
            (lambda m: m["builtin"].update(cells=6.7), "'cells'"),
            (lambda m: m["builtin"].update(cells="6"), "'cells'"),
            (lambda m: m["builtin"].update(cells=6.0), "'cells'"),
            (lambda m: m["builtin"].update(amps="50000"), "'amps'"),
            (lambda m: m["builtin"].update(kappa=True), "'kappa'"),
            (lambda m: m["builtin"].update(brauer=[49.4, 1.46, True]),
             "'brauer'"),
            (lambda m: m["builtin"].update(brauer=[1.0, 2.0, 3.0, 4.0]),
             "'brauer'"),
            (lambda m: m["builtin"].update(probe_cells=[1.5]),
             "'probe_cells'"),
            (lambda m: m["builtin"].update(probe_cells="12"),
             "'probe_cells'"),
            (lambda m: m["builtin"].update(linear="false"), "linear"),
            (lambda m: m["builtin"].update(brauer=["x", 1, 2]), "brauer"),
            (lambda m: m["builtin"].update(brauer="abc"), "brauer"),
            (lambda m: m["builtin"].update(brauer=[1.0, 2.0]), "brauer"),
            (lambda m: m["builtin"].update(probe_cells={"a": 1}), "builtin"),
            (lambda m: m.update(builtin=[6]), "builtin")]:
        rejects(builtin_dir, builtin_manifest, edit, match)

    # asymmetric stored block
    from mqsolve import CsrMatrix, write_matrix_market
    kn = corner_toy.system.kn.to_dense()
    kn[0, 1] += np.abs(kn).max()
    write_matrix_market(directory / "k_n.mtx", CsrMatrix.from_dense(kn),
                        symmetry="general")
    with pytest.raises(ConfigError, match="asymmetric"):
        load_model(directory)


def test_load_model_rejects_tampered_builtin_block(builtin6, tmp_path):
    from mqsolve import CsrMatrix, write_matrix_market
    directory = export_model(builtin6, tmp_path / "mb").parent
    mc = builtin6.system.mc.to_dense() * 2.0
    write_matrix_market(directory / "m_c.mtx", CsrMatrix.from_dense(mc))
    with pytest.raises(ConfigError, match="disagrees"):
        load_model(directory)


def test_run_single_explicit_monotone_field():
    result, meta = run_single(tiny_config(t_end=5e-3, output_period=1e-3))
    assert meta["integrator"] == "explicit"
    assert meta["model"] == "builtin"
    assert len(meta["model_checksum"]) == 64
    b = result.probe_b
    assert b[0] == 0.0
    assert np.all(np.diff(b) >= 0)
    assert b[-1] > 0


def test_run_single_implicit():
    result, meta = run_single(tiny_config(integrator="implicit", t_end=1e-3,
                                          output_period=2.5e-4))
    assert meta["integrator"] == "implicit"
    assert result.aggregates["steps"] == 4
    assert result.probe_b[-1] > 0


SHARED_KEYS = {"solves", "iterations", "mean_iterations", "max_basis_cols",
               "min_pod_info", "operator_applies"}


@pytest.mark.parametrize("options", [{"strategy": "cspe"}, {"strategy": "pod"},
                                     {"integrator": "implicit"}],
                         ids=["cspe", "pod", "implicit"])
def test_aggregates_repeat_exactly(options):
    # repeat runs must agree on every key but the timings, compared with
    # ``==``, and both integrators carry the shared keys; the seed sets only
    # the start vector of ``mqsolve cfl``, so a second seed changes nothing
    runs = [run_single(tiny_config(t_end=2e-3, seed=seed, **options))[0]
            for seed in (42, 7)]
    first, second = ({key: value for key, value in r.aggregates.items()
                      if key not in ("wall_seconds", "solver_seconds")}
                     for r in runs)
    assert first == second
    assert SHARED_KEYS <= first.keys()
    assert not any(isinstance(v, np.ndarray) for v in first.values())


def test_model_checksum_tracks_parameters():
    short = dict(t_end=2e-4, output_period=1e-4)
    _, meta_a = run_single(tiny_config(**short))
    _, meta_b = run_single(tiny_config(**short))
    _, meta_c = run_single(tiny_config(amps=2e4, **short))
    assert meta_a["model_checksum"] == meta_b["model_checksum"]
    assert meta_a["model_checksum"] != meta_c["model_checksum"]


@pytest.fixture(scope="module")
def bench_pair(tmp_path_factory):
    config = tiny_config(t_end=2e-3, output_period=5e-4)
    dirs = []
    summaries = []
    for name in ("bench_a", "bench_b"):
        out = tmp_path_factory.mktemp(name)
        summaries.append(run_benchmark(tiny_config(t_end=2e-3,
                                                   output_period=5e-4), out))
        dirs.append(out)
    return dirs, summaries, config


def test_benchmark_artifacts_and_rows(bench_pair):
    dirs, summaries, _ = bench_pair
    out = dirs[0]
    summary = summaries[0]
    for name in ("trace_previous.csv", "trace_cspe.csv", "trace_pod.csv",
                 "trace_implicit.csv", "summary.csv", "summary.txt",
                 "timings.json"):
        assert (out / name).exists()
    assert [row.name for row in summary.rows] == ["previous", "cspe", "pod",
                                                  "implicit"]
    explicit_steps = {row.steps for row in summary.rows[:3]}
    assert len(explicit_steps) == 1
    csv_text = (out / "summary.csv").read_text()
    lines = csv_text.splitlines()
    assert lines[0].startswith("strategy,steps,")
    assert lines[-1].startswith("# shared settings:")
    assert len(lines) == 7  # header, four rows, separator, settings comment
    timings = json.loads((out / "timings.json").read_text())
    assert set(timings) >= {"previous", "cspe", "pod", "implicit"}


def test_benchmark_is_deterministic(bench_pair):
    dirs, _, _ = bench_pair
    a, b = dirs
    for name in ("trace_previous.csv", "trace_cspe.csv", "trace_pod.csv",
                 "trace_implicit.csv", "summary.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_benchmark_metadata(bench_pair):
    _, summaries, _ = bench_pair
    meta = summaries[0].metadata
    assert meta["model"] == "builtin"
    assert meta["strategies"] == list(("previous", "cspe", "pod"))
    # the config's dt: with "auto" each run takes its own auto step
    assert meta["dt"] == "auto"
    assert meta["tol"] == 1e-6


def test_run_single_matches_benchmark_traces(tmp_path):
    # both entry points map the config to run_explicit the same way, also
    # under dt "auto", where each run refreshes its own step
    for dt in (2e-5, "auto"):
        config = tiny_config(dt=dt, reestimate_every=20)
        out = tmp_path / str(dt)
        run_benchmark(config, out)
        for strategy in ("previous", "cspe", "pod"):
            result, _ = run_single(dataclasses.replace(config,
                                                       strategy=strategy))
            expected = (out / f"trace_{strategy}.csv").read_bytes()
            assert trace_bytes(result) == expected, (dt, strategy)


def test_benchmark_strategy_rows_ignore_the_config_integrator(tmp_path):
    # the strategy rows are explicit runs whatever integrator the config names
    explicit, implicit = tmp_path / "explicit", tmp_path / "implicit"
    run_benchmark(tiny_config(dt=2e-5), explicit)
    run_benchmark(tiny_config(dt=2e-5, integrator="implicit"), implicit)
    for name in ("summary.csv", "trace_previous.csv", "trace_cspe.csv",
                 "trace_pod.csv", "trace_implicit.csv"):
        same = (implicit / name).read_bytes() == (explicit / name).read_bytes()
        assert same, name


def test_cli_generate_and_run_roundtrip(tmp_path, capsys):
    model_dir = tmp_path / "model"
    assert cli_main(["generate", "--cells", "6", "--out",
                     str(model_dir)]) == 0
    out = capsys.readouterr().out
    assert "96 conducting" in out
    assert (model_dir / "manifest.json").exists()

    trace = tmp_path / "trace.csv"
    code = cli_main(["run", "--model", str(model_dir), "--t-end", "2e-3",
                     "--dt", "1e-5", "--out", str(trace)])
    assert code == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    lines = trace.read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    assert len(lines) > 2

    # a malformed manifest is a configuration error, not a traceback
    manifest_file = model_dir / "manifest.json"
    manifest = json.loads(manifest_file.read_text())
    manifest["waveform"]["tau"] = "abc"
    manifest_file.write_text(json.dumps(manifest))
    trace.unlink()
    code = cli_main(["run", "--model", str(model_dir), "--out", str(trace)])
    assert code == 2
    assert "tau" in capsys.readouterr().err
    assert not trace.exists()


def test_cli_run_builtin_explicit(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    code = cli_main(["run", "--cells", "6", "--t-end", "1e-3",
                     "--out", str(trace)])
    assert code == 0
    assert "final B" in capsys.readouterr().out
    assert trace.exists()


def test_cli_run_rejects_zero_dt(tmp_path, capsys):
    code = cli_main(["run", "--dt", "0", "--cells", "6",
                     "--out", str(tmp_path / "t.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_run_rejects_small_grid(tmp_path, capsys):
    code = cli_main(["run", "--cells", "4", "--out", str(tmp_path / "t.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    # so does any other builtin parameter the model rejects, NaN included
    config_file = tmp_path / "run.json"
    for setting, word in (({"kappa": float("nan")}, "conductivity"),
                          ({"tau": float("nan")}, "time constant"),
                          ({"h": float("inf")}, "grid spacing")):
        config_file.write_text(json.dumps(setting))
        code = cli_main(["run", "--cells", "6", "--config", str(config_file),
                         "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {word} ")
    assert not (tmp_path / "t.csv").exists()


def test_cli_run_unstable_dt_exits_numerical(tmp_path, capsys):
    code = cli_main(["run", "--cells", "6", "--dt", "1e-3", "--t-end", "0.12",
                     "--out", str(tmp_path / "t.csv")])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_cli_run_implicit_newton_failure_exits_numerical(tmp_path, capsys):
    config_file = tmp_path / "run.json"
    # at step 1 one Newton iteration cannot reduce the residual by 1e-12
    config_file.write_text(json.dumps({"max_newton": 1, "newton_tol": 1e-12}))
    trace = tmp_path / "t.csv"
    code = cli_main(["run", "--integrator", "implicit", "--cells", "6",
                     "--t-end", "2e-3", "--config", str(config_file),
                     "--out", str(trace)])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("numerical failure: step 1: ")
    assert not trace.exists()


def test_cli_rejects_unknown_strategy(tmp_path):
    with pytest.raises(SystemExit):
        cli_main(["run", "--strategy", "banana",
                  "--out", str(tmp_path / "t.csv")])


def test_cli_cfl(capsys):
    code = cli_main(["cfl", "--cells", "6", "--linear"])
    assert code == 0
    out = capsys.readouterr().out
    for label in ("bound", "dt_max", "lambda_max", "residual",
                  "Lanczos steps"):
        assert label in out
    # the printed step is the one a run with dt "auto" takes, here in a run
    # shorter than one refresh period
    [line] = [line for line in out.splitlines() if line.startswith("dt_max")]
    printed = float(line.split()[2])
    result, _ = run_single(tiny_config(linear=True, t_end=1e-3))
    assert len(result.aggregates["cfl_history"]) == 0
    assert printed == result.aggregates["dt"]


@pytest.mark.parametrize("command", ["run", "bench", "generate"])
def test_only_cfl_takes_a_seed(tmp_path, capsys, monkeypatch, command):
    # no run reads the seed, so only the Lanczos diagnostic offers it
    with pytest.raises(SystemExit) as exit_info:
        cli_main([command, "--seed", "7", "--out", str(tmp_path / "x")])
    assert exit_info.value.code == 2
    assert "--seed" in capsys.readouterr().err
    seeds = []

    def estimate(system, a_c_ref=None, **settings):
        seeds.append(settings["seed"])
        return original(system, a_c_ref, **settings)

    original = cli.estimate_cfl
    monkeypatch.setattr(cli, "estimate_cfl", estimate)
    assert cli_main(["cfl", "--cells", "6", "--linear", "--seed", "7"]) == 0
    assert seeds == [7]


def test_cli_bench(tmp_path, capsys):
    out_dir = tmp_path / "bench"
    code = cli_main(["bench", "--cells", "6", "--t-end", "1e-3",
                     "--out", str(out_dir)])
    assert code == 0
    out = capsys.readouterr().out
    assert "artifacts in" in out
    assert (out_dir / "summary.csv").exists()
