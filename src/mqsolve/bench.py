"""Run configuration, model file IO, trace output, and the benchmark harness.

Artifacts are text: Matrix Market blocks under a JSON manifest for models,
CSV for traces and benchmark summaries. Trace and summary CSVs are
byte-deterministic; wall-clock timings are reported in the aligned text
rendering and a separate JSON file so the CSV determinism guarantee stays
testable.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import numbers
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .implicit import NewtonConfig, run_implicit
from .model import Model, builtin_model
from .schur import (OUTPUT_PERIOD, ExplicitConfig, PartitionedSystem,
                    ScaledPatternSource, TransientResult, check_run_arguments,
                    estimate_cfl, exponential_ramp, run_explicit)
from .sparse import read_dense_vector, read_matrix_market, symmetric_check
from .startvec import STRATEGIES, StrategyConfig

__all__ = [
    "ConfigError",
    "RunConfig",
    "StrategyRow",
    "BenchmarkSummary",
    "load_model",
    "model_from_config",
    "write_trace",
    "trace_bytes",
    "run_single",
    "run_benchmark",
    "TRACE_HEADER",
]

TRACE_HEADER = "t,B_probe,iters_src,iters_cpl_prev,basis_cols,pod_k,pod_info"


class ConfigError(ValueError):
    """Invalid run configuration or model manifest."""


def _parse_dt(value):
    """A flag or file dt as a float or "auto"; validate judges the rest."""
    if isinstance(value, str):
        if value.strip().lower() == "auto":
            return "auto"
        try:
            return float(value)
        except ValueError:
            return value
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    return value


# RunConfig keys of the settings whose library checks name them otherwise
_RUN_KEYS = {"kind": "strategy", "rel_tol": "tol", "tol": "newton_tol"}

# builtin_model's parameters; the RunConfig fields named alike set them
_MODEL = inspect.signature(builtin_model).parameters

# the values each field type accepts; bool is an int subclass and is
# rejected where a number is expected
_FIELD_KINDS = {"int": numbers.Integral, "float": numbers.Real, "str": str,
                "bool": bool}


def _typed(kind, value):
    """*value* as a value of the field type *kind*; TypeError if it is not
    one. A kind ``(item, length)`` is a JSON array of *item* values, of any
    length when *length* is None. The one rule for config values and
    manifest entries alike.
    """
    if isinstance(kind, tuple):
        item, length = kind
        if not isinstance(value, list) or length not in (None, len(value)):
            raise TypeError(value)
        return [_typed(item, x) for x in value]
    if not isinstance(value, _FIELD_KINDS[kind]) or (
            isinstance(value, bool) and kind != "bool"):
        raise TypeError(value)
    if kind == "float":
        return float(value)
    return int(value) if kind == "int" else value


@dataclass
class RunConfig:
    """One run's worth of settings.

    Sources are layered: dataclass defaults, then a JSON config file, then
    explicit flag overrides.
    The model source is either the string ``builtin`` or a path to a model
    manifest (directory or manifest.json). Defaults are the library's where
    it has one, except ``tol``; the library checks run arguments and settings.
    """

    model: str = "builtin"
    integrator: str = "explicit"
    strategy: str = StrategyConfig.kind
    dt: float | str = "auto"
    t_end: float = 0.12
    output_period: float = OUTPUT_PERIOD
    # benchmark default; library-level solves default to 1e-8
    tol: float = 1e-6
    newton_tol: float = NewtonConfig.tol
    max_newton: int = NewtonConfig.max_newton
    implicit_dt: float = 2.5e-4
    eps_pod: float = StrategyConfig.eps_pod
    n_pod: int = StrategyConfig.n_pod
    # the Lanczos start vector of ``mqsolve cfl``; no run reads it
    seed: int = inspect.signature(estimate_cfl).parameters["seed"].default
    out: str = "."
    # builtin model parameters
    cells: int = _MODEL["cells"].default
    h: float = _MODEL["h"].default
    kappa: float = _MODEL["kappa"].default
    amps: float = _MODEL["amps"].default
    tau: float = _MODEL["tau"].default
    linear: bool = _MODEL["linear"].default
    # explicit integrator knobs
    safety: float = ExplicitConfig.safety
    reestimate_every: int = ExplicitConfig.reestimate_every

    def validate(self) -> "RunConfig":
        """Check every setting, whatever the integrator, before a model."""
        if self.integrator not in ("explicit", "implicit"):
            raise ConfigError(f"unknown integrator {self.integrator!r}")
        if not self.model:
            raise ConfigError("model source must not be empty")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        arguments = partial(check_run_arguments, self.t_end,
                            output_period=self.output_period)
        # the implicit step is the library's dt of the implicit run
        for check, keys in ((partial(arguments, self.dt), _RUN_KEYS),
                            (partial(arguments, self.implicit_dt, auto=False),
                             {"dt": "implicit_dt"}),
                            (self.explicit_config, _RUN_KEYS),
                            (self.newton_config, _RUN_KEYS)):
            try:
                check()
            except ValueError as err:
                name, _, rest = str(err).partition(" ")
                raise ConfigError(f"{keys.get(name, name)} {rest}") from None
        return self

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in dataclasses.fields(cls))

    @classmethod
    def _coerce(cls, name: str, value):
        if name == "dt":
            return _parse_dt(value)
        ftype = {f.name: f.type for f in dataclasses.fields(cls)}[name]
        try:
            return _typed(ftype, value)
        except TypeError:
            raise ConfigError(f"bad value for {name}: {value!r}") from None

    @classmethod
    def from_sources(cls, config_file=None, overrides=None) -> "RunConfig":
        """Layer defaults < config file < overrides."""
        values: dict = {}
        if config_file is not None:
            path = Path(config_file)
            if not path.exists():
                raise ConfigError(f"config file not found: {path}")
            try:
                loaded = json.loads(path.read_text())
            except json.JSONDecodeError as err:
                raise ConfigError(f"config file is not valid JSON: {err}")
            if not isinstance(loaded, dict):
                raise ConfigError("config file must hold a JSON object")
            for key, value in loaded.items():
                if key not in cls.field_names():
                    raise ConfigError(f"unknown config key {key!r}")
                values[key] = cls._coerce(key, value)
        for key, value in (overrides or {}).items():
            if value is None:
                continue
            if key not in cls.field_names():
                raise ConfigError(f"unknown option {key!r}")
            values[key] = cls._coerce(key, value)
        return cls(**values).validate()

    def newton_config(self) -> NewtonConfig:
        return NewtonConfig(tol=self.newton_tol, max_newton=self.max_newton)

    def explicit_config(self) -> ExplicitConfig:
        strategy = StrategyConfig(self.strategy, n_pod=self.n_pod,
                                  eps_pod=self.eps_pod)
        pcg = dataclasses.replace(ExplicitConfig.pcg, rel_tol=self.tol)
        return ExplicitConfig(strategy=strategy, pcg=pcg, safety=self.safety,
                              reestimate_every=self.reestimate_every)


def _require(manifest: dict, key: str, context: str):
    if key not in manifest:
        raise ConfigError(f"{context} is missing {key!r}")
    return manifest[key]


def _section(manifest: dict, key: str, context: str) -> dict:
    value = _require(manifest, key, context)
    if not isinstance(value, dict):
        raise ConfigError(f"{context} entry {key!r} must be a JSON object, "
                          f"got {value!r}")
    return value


def _field(section: dict, key: str, context: str, kind="float"):
    value = _require(section, key, context)
    try:
        return _typed(kind, value)
    except TypeError:
        raise ConfigError(f"{context} has a bad {key!r}: {value!r}") from None


def load_model(path) -> tuple[PartitionedSystem, Model | None, dict]:
    """Load a model directory written by :func:`mqsolve.model.export_model`.

    Returns ``(system, model, manifest)``. When the manifest carries builtin
    parameters the model is rebuilt (restoring the nonlinearity and probe)
    and the stored blocks are checked against the rebuilt ones; otherwise the
    stored blocks define a frozen-linear system and ``model`` is None. Blocks
    that form no valid system, such as a non-diagonal ``m_c``, raise
    ConfigError.
    """
    path = Path(path)
    manifest_path = path / "manifest.json" if path.is_dir() else path
    if not manifest_path.exists():
        raise ConfigError(f"manifest not found: {manifest_path}")
    directory = manifest_path.parent
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"manifest is not valid JSON: {err}")
    if not isinstance(manifest, dict) or (manifest.get("format")
                                          != "mqsolve-model"):
        raise ConfigError("manifest format marker missing or unknown")
    blocks = _section(manifest, "blocks", "manifest")
    loaded = {}
    for name in ("m_c", "k_c", "k_cn", "k_n", "source_pattern"):
        entry = _section(blocks, name, "manifest blocks section")
        file_path = directory / _field(entry, "file", f"block {name!r}",
                                          "str")
        if not file_path.exists():
            raise ConfigError(f"block {name!r} file not found: {file_path}")
        if name == "source_pattern":
            loaded[name] = read_dense_vector(file_path)
        else:
            loaded[name] = read_matrix_market(file_path)

    m_c, k_c, k_cn, k_n = (loaded["m_c"], loaded["k_c"], loaded["k_cn"],
                           loaded["k_n"])
    pattern = loaded["source_pattern"]
    n_c, n_n = k_cn.shape
    for name, block, shape in (("m_c", m_c, (n_c, n_c)),
                               ("k_c", k_c, (n_c, n_c)),
                               ("k_n", k_n, (n_n, n_n))):
        if block.shape != shape:
            raise ConfigError(f"block {name!r} has shape {block.shape}, "
                              f"expected {shape}")
    if pattern.size != n_n:
        raise ConfigError(f"block 'source_pattern' has length {pattern.size}, "
                          f"expected {n_n}")
    for name, block in (("k_c", k_c), ("k_n", k_n)):
        scale = np.abs(block.values).max() if block.nnz else 1.0
        if not symmetric_check(block, 1e-12 * scale):
            raise ConfigError(f"block {name!r} is asymmetric beyond "
                              f"a relative tolerance of 1e-12")
    waveform_info = _section(manifest, "waveform", "manifest")
    if waveform_info.get("kind") != "exponential_ramp":
        raise ConfigError(
            f"unknown waveform kind {waveform_info.get('kind')!r}")
    tau = _field(waveform_info, "tau", "waveform section")
    if not 0 < tau < np.inf:
        raise ConfigError(f"waveform section 'tau' must be finite and "
                          f"positive, got {tau!r}")

    if manifest.get("builtin"):
        builtin = _section(manifest, "builtin", "manifest")
        params = {key: _field(builtin, key, "builtin section", kind)
                  for key, kind in (("cells", "int"), ("h", "float"),
                                    ("kappa", "float"),
                                    ("brauer", ("float", 3)),
                                    ("amps", "float"), ("tau", "float"),
                                    ("linear", "bool"))}
        if builtin.get("probe_cells") is not None:
            params["probe_cells"] = _field(builtin, "probe_cells",
                                           "builtin section", ("int", None))
        try:
            model = builtin_model(**params)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"builtin section is unusable: {err}") from err
        rebuilt = {"m_c": model.system.mc,
                   "k_c": model.system.kc_matrix(np.zeros(model.n_c)),
                   "k_cn": model.system.kcn, "k_n": model.system.kn}
        for name, ours in rebuilt.items():
            stored = loaded[name]
            same = (stored.shape == ours.shape
                    and np.array_equal(stored.row_ptr, ours.row_ptr)
                    and np.array_equal(stored.col_idx, ours.col_idx)
                    and np.array_equal(stored.values, ours.values))
            if not same:
                raise ConfigError(
                    f"stored block {name!r} disagrees with the builtin "
                    f"parameters in the manifest")
        if not np.array_equal(pattern, model.pattern_n):
            raise ConfigError("stored source pattern disagrees with the "
                              "builtin parameters in the manifest")
        return model.system, model, manifest

    source = ScaledPatternSource(pattern, exponential_ramp(tau))
    try:
        system = PartitionedSystem.linear(mc=m_c, kcn=k_cn, kn=k_n, kc=k_c,
                                          source=source)
    except ValueError as err:
        raise ConfigError(f"model blocks are unusable: {err}") from err
    return system, None, manifest


def model_from_config(config: RunConfig) -> tuple[PartitionedSystem,
                                                  Model | None]:
    """The config's model: the builtin one or a loaded model directory."""
    if config.model == "builtin":
        model = builtin_model(**{key: getattr(config, key) for key in _MODEL
                                 if key in config.field_names()})
        return model.system, model
    system, model, _ = load_model(config.model)
    return system, model


def _model_checksum(system: PartitionedSystem) -> str:
    """Stable content hash over the system blocks at the zero state."""
    pattern = getattr(system.source, "pattern", np.zeros(0))
    digest = hashlib.sha256()
    kc0 = system.kc_matrix(np.zeros(system.n_c))
    for block in (system.mc, kc0, system.kcn, system.kn):
        digest.update(np.asarray(block.shape, dtype=np.int64).tobytes())
        digest.update(block.row_ptr.tobytes())
        digest.update(block.col_idx.tobytes())
        digest.update(block.values.tobytes())
    digest.update(pattern.tobytes())
    return digest.hexdigest()


def trace_bytes(result: TransientResult) -> bytes:
    """CSV rendering of a transient result, one row per output time."""
    if result.n_rows == 0:
        raise ValueError("refusing to write an empty trace")
    lines = [TRACE_HEADER]
    for i in range(result.n_rows):
        lines.append(",".join([
            repr(float(result.times[i])),
            repr(float(result.probe_b[i])),
            repr(float(result.iters_src[i])),
            repr(float(result.iters_cpl_prev[i])),
            str(int(result.basis_cols[i])),
            str(int(result.pod_k[i])),
            repr(float(result.pod_info[i])),
        ]))
    return ("\n".join(lines) + "\n").encode("ascii")


def write_trace(result: TransientResult, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(trace_bytes(result))
    return path


def run_single(config: RunConfig) -> tuple[TransientResult, dict]:
    """Run one integrator per the config; returns (result, run metadata)."""
    config.validate()
    system, model = model_from_config(config)
    probe = model.probe_callable() if model is not None else None
    if config.integrator == "implicit":
        dt = config.implicit_dt if config.dt == "auto" else float(config.dt)
        run, settings = run_implicit, config.newton_config()
    else:
        dt, run, settings = config.dt, run_explicit, config.explicit_config()
    result = run(system, config.t_end, dt, settings, probe=probe,
                 output_period=config.output_period)
    meta = {
        "model": config.model,
        "model_checksum": _model_checksum(system),
        "integrator": config.integrator,
    }
    return result, meta


@dataclass(frozen=True)
class StrategyRow:
    """One benchmark line: iteration averages and cost counters."""

    name: str
    steps: int
    mean_iters_src: float
    mean_iters_cpl_prev: float
    operator_applies: int
    wall_seconds: float
    solver_seconds: float
    trace_sha256: str


@dataclass
class BenchmarkSummary:
    """All strategies plus the implicit reference under shared settings."""

    rows: list[StrategyRow]
    metadata: dict = field(default_factory=dict)

    _CSV_COLUMNS = ("strategy", "steps", "mean_iters_src",
                    "mean_iters_cpl_prev", "operator_applies", "trace_sha256")

    def to_csv(self) -> str:
        """Deterministic summary: no timing columns (see module docstring)."""
        lines = [",".join(self._CSV_COLUMNS)]
        for row in self.rows:
            lines.append(",".join([
                row.name, str(row.steps),
                repr(float(row.mean_iters_src)),
                repr(float(row.mean_iters_cpl_prev)),
                str(row.operator_applies), row.trace_sha256,
            ]))
        meta = self.metadata
        lines.append("")
        lines.append("# shared settings: " + json.dumps(
            {k: meta[k] for k in sorted(meta) if k not in ("timings",)},
            sort_keys=True))
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        """Aligned table including (non-deterministic) wall times."""
        header = (f"{'strategy':<10} {'steps':>6} {'it/src':>8} "
                  f"{'it/prev':>8} {'op applies':>11} "
                  f"{'wall [s]':>9} {'solver [s]':>10}")
        lines = [header, "-" * len(header)]
        for row in self.rows:
            lines.append(
                f"{row.name:<10} {row.steps:>6d} {row.mean_iters_src:>8.2f} "
                f"{row.mean_iters_cpl_prev:>8.2f} "
                f"{row.operator_applies:>11d} {row.wall_seconds:>9.2f} "
                f"{row.solver_seconds:>10.2f}")
        meta = self.metadata
        shared = (f"model={meta.get('model')} dt={meta.get('dt')} "
                  f"tol={meta.get('tol')} t_end={meta.get('t_end')}")
        lines.append("")
        lines.append("shared: " + shared)
        lines.append(f"model checksum: {meta.get('model_checksum')}")
        lines.append(f"implicit reference dt: {meta.get('implicit_dt')}")
        return "\n".join(lines) + "\n"


def _result_row(name: str, result: TransientResult) -> StrategyRow:
    agg = result.aggregates
    mean = agg["mean_iterations"]
    return StrategyRow(
        name=name, steps=int(agg["steps"]),
        mean_iters_src=mean["source"],
        mean_iters_cpl_prev=mean["coupling_previous"],
        operator_applies=agg["operator_applies"],
        wall_seconds=float(agg["wall_seconds"]),
        solver_seconds=float(agg["solver_seconds"]),
        trace_sha256=hashlib.sha256(trace_bytes(result)).hexdigest())


def run_benchmark(config: RunConfig, out_dir) -> BenchmarkSummary:
    """Run the three start strategies plus the implicit reference.

    Every run is a :func:`run_single` call, so a strategy row is the run
    ``mqsolve run`` makes with that strategy. The explicit runs share the
    config's dt (with ``"auto"``, each takes and refreshes its own auto
    step) and tolerance; equal step counts across strategies are asserted.
    The reference runs at ``implicit_dt``. Artifacts land in *out_dir*:
    ``trace_<name>.csv``, ``summary.csv``, ``summary.txt``, ``timings.json``.
    """
    config.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    for strategy in STRATEGIES:
        result, meta = run_single(
            dataclasses.replace(config, integrator="explicit",
                                strategy=strategy))
        write_trace(result, out_dir / f"trace_{strategy}.csv")
        rows.append(_result_row(strategy, result))

    step_counts = {row.steps for row in rows}
    if len(step_counts) != 1:
        raise RuntimeError(f"strategies diverged in step count: {step_counts}")

    result, _ = run_single(dataclasses.replace(
        config, integrator="implicit", dt=config.implicit_dt))
    write_trace(result, out_dir / "trace_implicit.csv")
    rows.append(_result_row("implicit", result))

    summary = BenchmarkSummary(rows=rows, metadata={
        "model": config.model,
        "model_checksum": meta["model_checksum"],
        "dt": config.dt,
        "t_end": config.t_end,
        "tol": config.tol,
        "implicit_dt": config.implicit_dt,
        "strategies": list(STRATEGIES),
    })
    (out_dir / "summary.csv").write_text(summary.to_csv())
    (out_dir / "summary.txt").write_text(summary.to_text())
    timings = {row.name: {"wall_seconds": row.wall_seconds,
                          "solver_seconds": row.solver_seconds}
               for row in rows}
    (out_dir / "timings.json").write_text(json.dumps(timings, indent=1,
                                                     sort_keys=True) + "\n")
    return summary
