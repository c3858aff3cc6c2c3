#!/usr/bin/env python3
"""Outside-in benchmark of one transient run of the builtin model.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload cspe-8 --seed 42 --seconds 60 --trace 0
    python3 perfbench/run.py --write-references

Each run is one ``mqsolve.bench.run_single(RunConfig(...))`` call, the entry
point behind ``mqsolve run`` and the acceptance suite. The load is a closed
loop with one client: the next run starts when the previous one has
finished. BLAS and OpenMP are pinned to one thread before numpy is loaded.

``--trace 0`` times untraced runs and prints the end-to-end metrics. The
seed picks the power-iteration start vector of each stability estimate and
changes a run's operator applications by up to 1.8x on cspe-8, so
each pass of the loop runs a fixed panel of ``PANEL`` seeds derived from
``--seed`` (``panel_seeds``), and passes repeat while a whole pass still fits
in ``--seconds`` (at least one). Times are host-normalised (``HostProbe``)
and combined as ``end_to_end_metrics`` describes.

``--trace 1`` alternates untraced and traced runs at ``--seed`` itself and
prints the per-layer metrics of the traced runs. Spans are recorded from
outside the package by wrapping public functions where their callers look
them up; they stay in memory and are written to ``perfbench/results/`` when
the benchmark ends.

Every run's probe trace is checked against a stored implicit reference
(acceptance criterion 1's bounds). The counter identities of
``check_counters`` are checked on every traced run, and ``check_repeats``
checks that every run of an invocation repeats the same counts; a broken
identity exits with status 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
if __name__ == "__main__":
    # BLAS reads its thread count once, when numpy first loads it
    for _var in THREAD_VARS:
        os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy
import scipy.sparse as sp

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "references"
RESULTS_DIR = HERE / "results"

# acceptance criterion 1: relative L2 of the probe trace and endpoint error
MAX_PROBE_L2 = 0.05
MAX_PROBE_ENDPOINT = 0.02
# reference integrator: implicit Euler at a quarter of the default step
REFERENCE_DT = 6.25e-5

WORKLOADS = {
    "cspe-8": {"strategy": "cspe"},
    "implicit-8": {"integrator": "implicit"},
    # runnable by name, but not in BENCHMARK.json: its runs are too long for
    # the time budget to hold its timings inside the bounds on a noisy host
    "pod-8": {"strategy": "pod"},
}
# every workload's code path at a size that runs in well under a second
TINY = {"cells": 6, "t_end": 0.003}
# seeds in one pass of an untraced invocation: --seed and PANEL - 1 derived
PANEL = 8
# the host probe runs at the first step start this long after the last one
PROBE_INTERVAL_S = 0.1
# probe time that normalised times are scaled to; about the probe's time on
# an idle core of a 2-vCPU Intel Xeon virtual machine
PROBE_NOMINAL_S = 2.0e-3

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "step_ms": "ms",
    "probe_err": "1",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "bench.operator_applies": "count",
    "sparse.matvecs": "count",
    "sparse.matvec_s": "s",
    "sparse.matvec_gb": "GB-computed",
    "sparse.matvec_gbps": "GB/s-computed",
    "sparse.spmv_calls": "count",
    "sparse.spmv_s": "s",
    "sparse.csr_builds": "count",
    "sparse.csr_build_s": "s",
    "krylov.solves": "count",
    "krylov.iterations": "count",
    "krylov.iters_per_solve": "iter/solve",
    "krylov.zero_iter_solves": "count",
    "krylov.initial_residuals": "count",
    "krylov.self_s": "s",
    "krylov.precond_s": "s",
    "krylov.precond_build_s": "s",
    "krylov.failures": "count",
    "startvec.start_calls": "count",
    "startvec.start_s": "s",
    "startvec.observe_s": "s",
    "startvec.upkeep_matvecs": "count",
    "startvec.inserts_accepted": "count",
    "startvec.inserts_dropped": "count",
    "startvec.stepping_solves": "count",
    "startvec.zero_iter_ratio": "1",
    "startvec.pod_modes": "modes",
    "schur.steps": "count",
    "schur.dt": "s-simulated",
    "schur.cfl_calls": "count",
    "schur.cfl_power_iters": "count",
    "schur.cfl_s": "s",
    "schur.kn_applies.pcg": "count",
    "schur.kn_applies.initial": "count",
    "schur.kn_applies.cfl": "count",
    "schur.kn_applies.upkeep": "count",
    "schur.step_self_s": "s",
    "schur.solve_kn_self_s": "s",
    "schur.recover_s": "s",
    "schur.loop_self_s": "s",
    "model.assemble_s": "s",
    "model.kc_apply_calls": "count",
    "model.kc_apply_s": "s",
    "model.kc_jacobian_calls": "count",
    "model.kc_jacobian_s": "s",
    "implicit.newton_iters": "count",
    "implicit.linear_iters": "count",
    "implicit.step_self_s": "s",
    "implicit.loop_self_s": "s",
    "bench.self_s": "s",
    "trace.run_s": "s",
    "trace.overhead_pct": "%",
}

# per-layer metrics that count work; they must repeat exactly at one seed
PER_LAYER_COUNTS = tuple(name for name, unit in PER_LAYER.items()
                         if unit in ("count", "iter/solve", "1", "modes",
                                     "GB-computed", "s-simulated"))


class SelfCheckError(RuntimeError):
    """A counter identity of the benchmark does not hold."""


def load_mqsolve():
    """Import mqsolve from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "mqsolve" / "__init__.py").is_file():
        raise ImportError(f"no mqsolve sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import mqsolve
    if Path(mqsolve.__file__).resolve().parent != (src / "mqsolve").resolve():
        raise ImportError(f"mqsolve was imported from {mqsolve.__file__}, "
                          f"not from {src}")
    import mqsolve.bench
    return mqsolve


def panel_seeds(seed: int) -> list[int]:
    """``seed``, then PANEL - 1 seeds derived from it, always the same."""
    derived = np.random.SeedSequence(seed).generate_state(PANEL - 1)
    return [seed, *(int(s) for s in derived)]


def workload_config(name: str, seed: int, tiny: bool = False):
    from mqsolve.bench import RunConfig
    overrides = dict(WORKLOADS[name])
    if tiny:
        overrides.update(TINY)
    return RunConfig(seed=seed, **overrides)


# -- reference probe traces ------------------------------------------------


def reference_path(cells: int, t_end: float) -> Path:
    return REFERENCE_DIR / f"probe_cells{cells}_t{t_end!r}.csv"


def compute_reference(cells: int, t_end: float) -> tuple[np.ndarray, np.ndarray]:
    """Implicit Euler at a quarter of the default step, same model and span."""
    from mqsolve.bench import RunConfig, run_single
    result, _ = run_single(RunConfig(integrator="implicit", cells=cells,
                                     t_end=t_end, implicit_dt=REFERENCE_DT))
    if result.aggregates.get("aborted"):
        raise RuntimeError(f"reference run aborted: "
                           f"{result.aggregates.get('abort_reason')}")
    return result.times, result.probe_b


def write_references() -> list[Path]:
    written = []
    for key in sorted({(cfg.get("cells", 8), cfg.get("t_end", 0.12))
                       for cfg in WORKLOADS.values()}):
        times, probe = compute_reference(*key)
        path = reference_path(*key)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = [f"# implicit Euler, dt={REFERENCE_DT!r}, cells={key[0]}, "
                 f"t_end={key[1]!r}; regenerate with "
                 "python3 perfbench/run.py --write-references", "t,B_probe"]
        lines += [f"{t!r},{b!r}" for t, b in zip(times.tolist(),
                                                    probe.tolist())]
        path.write_text("\n".join(lines) + "\n")
        written.append(path)
    return written


def load_reference(cells: int, t_end: float) -> tuple[np.ndarray, np.ndarray]:
    path = reference_path(cells, t_end)
    data = np.loadtxt(path, delimiter=",", comments="#", skiprows=2, ndmin=2)
    return data[:, 0], data[:, 1]


def probe_errors(result, reference) -> tuple[float, float]:
    """Relative L2 and endpoint error of the probe trace, as criterion 1."""
    ref_t, ref_b = reference
    b = np.interp(ref_t, result.times, result.probe_b)
    rel_l2 = float(np.linalg.norm(b - ref_b) / np.linalg.norm(ref_b))
    endpoint = float(abs(result.probe_b[-1] - ref_b[-1]) / abs(ref_b[-1]))
    return rel_l2, endpoint


# -- monkeypatching --------------------------------------------------------


@contextmanager
def patched(replacements):
    """Temporarily set ``owner.attr = value`` for each triple; restore after.

    A missing attribute raises KeyError, so a renamed boundary breaks the
    benchmark loudly instead of silently going unmeasured.
    """
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


# -- host speed ------------------------------------------------------------


class HostProbe:
    """A fixed sparse kernel, timed between steps to track the host's speed.

    A shared host runs the program up to 1.8x slower for stretches of under
    a second to several minutes. The slowdown is contention for the physical
    core, not time taken from the process: CPU time grows as much as wall
    time. The probe is what the runs mostly do, sparse products and vector
    updates: 20 products with a 2D Laplacian of 10,000 unknowns, then 15
    CG iterations on it. It uses numpy and scipy only, so a change to
    mqsolve does not change it. Over ten runs of cspe-8 at one seed, raw
    run times varied by 11.6% (coefficient of variation) and normalised
    ones by 3.7%.
    """

    def __init__(self):
        n = 100
        line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.identity(n)
        self.matrix = (sp.kron(eye, line) + sp.kron(line, eye)
                       + 0.01 * sp.identity(n * n)).tocsr()
        self.rhs = np.random.default_rng(0).standard_normal(n * n)

    def __call__(self) -> None:
        a, b = self.matrix, self.rhs
        for _ in range(20):
            a @ b
        x = np.zeros_like(b)
        r = b.copy()
        p = r.copy()
        rr = r @ r
        for _ in range(15):
            q = a @ p
            alpha = rr / (p @ q)
            x += alpha * p
            r -= alpha * q
            rr_next = r @ r
            p = r + (rr_next / rr) * p
            rr = rr_next


def host_factors(probes: list[tuple[float, float]],
                 mids: np.ndarray) -> np.ndarray:
    """PROBE_NOMINAL_S over the local probe time, at each segment midpoint.

    *probes* are ``(midpoint, duration)`` pairs in time order, at least two.
    The local probe time is the median of the nearest probe and its two
    neighbours, so one interrupted probe does not skew a stretch of steps.
    """
    at = np.array([t for t, _ in probes])
    took = np.array([d for _, d in probes])
    padded = np.concatenate([took[:1], took, took[-1:]])
    local = np.median(np.lib.stride_tricks.sliding_window_view(padded, 3),
                      axis=1)
    right = np.clip(np.searchsorted(at, mids), 1, len(at) - 1)
    left = right - 1
    nearest = np.where(mids - at[left] <= at[right] - mids, left, right)
    return PROBE_NOMINAL_S / local[nearest]


# -- one run ---------------------------------------------------------------


def deterministic_counters(result) -> dict:
    """Everything a run reports that must repeat exactly at one seed."""
    from mqsolve.bench import trace_bytes
    counters = {key: value for key, value in result.aggregates.items()
                if key not in ("wall_seconds", "solver_seconds")}
    counters["trace_sha256"] = hashlib.sha256(trace_bytes(result)).hexdigest()
    return counters


def operator_applies(aggregates) -> int:
    """The ``summary.csv`` column: K_n applications, or Newton PCG iterations."""
    if aggregates["integrator"] == "implicit":
        return int(aggregates["linear_iterations"])
    return int(aggregates["operator_applies"])


def execute(config, reference, probe, call=None, wrap=None) -> dict:
    """One ``run_single`` call with step starts recorded; never raises.

    *probe* (a ``HostProbe``) runs before and after the call and at a step
    start once PROBE_INTERVAL_S has passed since the last probe; its time is
    left out of the segments. *call* replaces ``run_single`` and *wrap*
    wraps the probe (the traced run passes wrapped ones).
    """
    from mqsolve import bench, implicit, schur
    call = call or bench.run_single
    timed_probe = wrap(probe) if wrap else probe
    # (end of the segment before, start of the segment after) at each
    # boundary: run start, every step start, run end
    marks: list[tuple[float, float]] = []
    probes: list[tuple[float, float]] = []

    def take_probe() -> float:
        start = time.perf_counter()
        timed_probe()
        end = time.perf_counter()
        probes.append(((start + end) / 2, end - start))
        return end

    def record(fn):
        def stepping(*args, **kwargs):
            now = time.perf_counter()
            due = now - probes[-1][0] >= PROBE_INTERVAL_S
            marks.append((now, take_probe() if due else now))
            return fn(*args, **kwargs)
        return stepping

    row = {"seed": config.seed, "ok": False}
    hooks = [(owner, attr, record(getattr(owner, attr)))
             for owner, attr in ((schur, "explicit_euler_step"),
                                 (implicit, "implicit_euler_step"))]
    try:
        with patched(hooks):
            take_probe()
            began = time.perf_counter()
            marks.append((began, began))
            result, _ = call(config)
            ended = time.perf_counter()
            marks.append((ended, ended))
            take_probe()
    except Exception:
        row["error"] = traceback.format_exc()
        print(row["error"], file=sys.stderr)
        return row
    agg = result.aggregates
    rel_l2, endpoint = probe_errors(result, reference)
    # set-up, the interval from each step start to the next, and the tail
    ends = np.array([end for end, _ in marks[1:]])
    starts = np.array([start for _, start in marks[:-1]])
    raw = ends - starts
    segments = raw * host_factors(probes, (starts + ends) / 2)
    row.update(
        run_s=float(segments.sum()),
        setup_s=float(segments[0]),
        step_ms=1e3 * float(np.median(segments[1:-1])),
        step_segments=segments[1:-1],
        wall_s=ended - began,
        raw_run_s=float(raw.sum()),
        raw_step_ms=1e3 * float(np.median(raw[1:-1])),
        probes=len(probes),
        probe_ms=1e3 * float(np.median([d for _, d in probes])),
        steps=int(agg["steps"]),
        operator_applies=operator_applies(agg),
        probe_err=rel_l2, probe_endpoint_err=endpoint,
        # high-water mark of the process so far; it creeps up run by run
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        counters=deterministic_counters(result))
    row["ok"] = (not agg.get("aborted") and rel_l2 <= MAX_PROBE_L2
                 and endpoint <= MAX_PROBE_ENDPOINT)
    if not row["ok"]:
        print(f"run at seed {config.seed} failed the gate: aborted="
              f"{agg.get('aborted')} probe L2 {rel_l2:.3e} (<= {MAX_PROBE_L2})"
              f", endpoint {endpoint:.3e} (<= {MAX_PROBE_ENDPOINT})",
              file=sys.stderr)
    return row


# -- tracing ---------------------------------------------------------------


def csr_bytes(m) -> int:
    return int(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)


class Tracer:
    """Spans at layer boundaries of one traced run, plus counters.

    A span is ``(run_id, name, start, end, parent)``. Hot leaf calls
    (operator and preconditioner applications, ``spmv``) are timed and
    counted without a span record; their time still counts as child time of
    the enclosing span, so self times stay exact.
    """

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list[list] = []
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.pod_modes: list[int] = []
        self.kn_bytes = 0
        self.matvec_bytes = 0
        self.cfl_depth = 0
        self.step_depth = 0

    def span(self, name: str, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            frame = [index, 0.0]
            self.spans.append(None)
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (self.run_id, name, start, end, parent)
                self._account(name, end - start, frame[1])
        return traced

    def leaf(self, name: str, fn):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._account(name, time.perf_counter() - start, 0.0)
        return timed

    def _account(self, name: str, duration: float, child: float) -> None:
        self.calls[name] += 1
        self.inclusive[name] += duration
        self.self_time[name] += duration - child
        if self._stack:
            self._stack[-1][1] += duration

    def hooks(self) -> list:
        """Every (owner, attribute, wrapper) the traced run installs."""
        from mqsolve import bench, implicit, krylov, schur, sparse, startvec
        tracer = self

        def as_operator(a):
            apply, n = original_as_operator(a)
            if isinstance(a, sparse.CsrMatrix):
                m = a.to_scipy()
                nbytes = csr_bytes(m) + 16 * m.shape[0]
            else:
                nbytes = tracer.kn_bytes
            timed = tracer.leaf("sparse.matvec", apply)

            def counted(x):
                tracer.matvec_bytes += nbytes
                return timed(x)
            return counted, n

        def pcg_solve(original):
            inner = tracer.span("krylov.pcg_solve", original)

            def solve(a, b, x0=None, config=None, preconditioner=None):
                if preconditioner is not None:
                    # pcg_solve only calls apply on its preconditioner
                    preconditioner = SimpleNamespace(apply=tracer.leaf(
                        "krylov.precond", preconditioner.apply))
                try:
                    x, report = inner(a, b, x0=x0, config=config,
                                      preconditioner=preconditioner)
                except Exception:
                    tracer.counts["krylov.failures"] += 1
                    raise
                initial = int(x0 is not None)
                tracer.counts["krylov.iterations"] += report.iterations
                tracer.counts["krylov.initial_residuals"] += initial
                tracer.counts["krylov.zero_iter_solves"] += report.iterations == 0
                tracer.counts["krylov.failures"] += not report.converged
                if tracer.cfl_depth:
                    tracer.counts["kn.cfl"] += report.iterations + initial
                else:
                    tracer.counts["kn.pcg"] += report.iterations
                    tracer.counts["kn.initial"] += initial
                if tracer.step_depth:
                    tracer.counts["stepping_solves"] += 1
                    tracer.counts["stepping_zero"] += report.iterations == 0
                return x, report
            return solve

        def estimate_cfl(original):
            inner = tracer.span("schur.estimate_cfl", original)

            def estimate(*args, **kwargs):
                tracer.cfl_depth += 1
                try:
                    est = inner(*args, **kwargs)
                finally:
                    tracer.cfl_depth -= 1
                tracer.counts["cfl_power_iters"] += est.power_iters
                return est
            return estimate

        def explicit_step(original):
            inner = tracer.span("schur.explicit_euler_step", original)

            def step(*args, **kwargs):
                tracer.step_depth += 1
                try:
                    return inner(*args, **kwargs)
                finally:
                    tracer.step_depth -= 1
            return step

        def builtin_model(original):
            inner = tracer.span("model.builtin_model", original)

            def build(*args, **kwargs):
                model = inner(*args, **kwargs)
                system = model.system
                tracer.kn_bytes = (csr_bytes(system.kn.to_scipy())
                                   + 16 * system.n_n)
                system.kc_apply = tracer.span("model.kc_apply",
                                              system.kc_apply)
                system.kc_jacobian = tracer.span("model.kc_jacobian",
                                                 system.kc_jacobian)
                return model
            return build

        def insert(original):
            def counted(cache, vector):
                accepted = original(cache, vector)
                tracer.counts["inserts_accepted" if accepted
                              else "inserts_dropped"] += 1
                return accepted
            return counted

        def pod_start_vector(original):
            def counted(*args, **kwargs):
                out = original(*args, **kwargs)
                tracer.pod_modes.append(out[1])
                return out
            return counted

        original_as_operator = krylov._as_operator
        from_scipy = vars(sparse.CsrMatrix)["from_scipy"].__func__
        hooks = [
            # pcg_solve turns whatever operator it was handed into a callable
            # here; wrapping it times every application whatever the caller
            (krylov, "_as_operator", as_operator),
            (bench, "builtin_model", builtin_model(bench.builtin_model)),
            (bench, "run_explicit", self.span("schur.run_explicit",
                                              bench.run_explicit)),
            (bench, "run_implicit", self.span("implicit.run_implicit",
                                              bench.run_implicit)),
            (schur, "pcg_solve", pcg_solve(schur.pcg_solve)),
            (implicit, "pcg_solve", pcg_solve(implicit.pcg_solve)),
            (schur, "build_preconditioner",
             self.span("krylov.build_preconditioner",
                       schur.build_preconditioner)),
            (implicit, "build_preconditioner",
             self.span("krylov.build_preconditioner",
                       implicit.build_preconditioner)),
            (schur, "spmv", self.leaf("sparse.spmv", schur.spmv)),
            (schur, "spmv_transpose",
             self.leaf("sparse.spmv", schur.spmv_transpose)),
            (sparse.CsrMatrix, "from_scipy",
             classmethod(self.span("sparse.csr_build", from_scipy))),
            (schur, "estimate_cfl", estimate_cfl(schur.estimate_cfl)),
            (schur, "explicit_euler_step",
             explicit_step(schur.explicit_euler_step)),
            (schur, "recover_an", self.span("schur.recover_an",
                                            schur.recover_an)),
            (schur.SchurOperator, "solve_kn",
             self.span("schur.solve_kn", schur.SchurOperator.solve_kn)),
            (implicit, "implicit_euler_step",
             self.span("implicit.implicit_euler_step",
                       implicit.implicit_euler_step)),
            (startvec.SubspaceCache, "insert",
             insert(startvec.SubspaceCache.insert)),
            (startvec, "pod_start_vector",
             pod_start_vector(startvec.pod_start_vector)),
        ]
        for cls in (startvec.StartVectorStrategy,
                    *startvec.StartVectorStrategy.__subclasses__()):
            for method, name in (("start_vector", "startvec.start_vector"),
                                 ("observe", "startvec.observe")):
                if method in vars(cls):
                    hooks.append((cls, method,
                                  self.span(name, vars(cls)[method])))
        return hooks

    def metrics(self, aggregates) -> dict:
        """Per-layer metrics of this run (trace.* are filled in by the caller)."""
        calls, incl, self_t, n = (self.calls, self.inclusive, self.self_time,
                                  self.counts)
        explicit = aggregates["integrator"] == "explicit"
        solves = calls["krylov.pcg_solve"]
        matvec_gb = self.matvec_bytes / 1e9
        upkeep = int(aggregates["maintenance_applies"]) if explicit else 0
        return {
            "sparse.matvecs": calls["sparse.matvec"],
            "sparse.matvec_s": incl["sparse.matvec"],
            "sparse.matvec_gb": matvec_gb,
            "sparse.matvec_gbps": (matvec_gb / incl["sparse.matvec"]
                                   if incl["sparse.matvec"] else 0.0),
            "sparse.spmv_calls": calls["sparse.spmv"],
            "sparse.spmv_s": incl["sparse.spmv"],
            "sparse.csr_builds": calls["sparse.csr_build"],
            "sparse.csr_build_s": incl["sparse.csr_build"],
            "krylov.solves": solves,
            "krylov.iterations": n["krylov.iterations"],
            "krylov.iters_per_solve": (n["krylov.iterations"] / solves
                                       if solves else 0.0),
            "krylov.zero_iter_solves": n["krylov.zero_iter_solves"],
            "krylov.initial_residuals": n["krylov.initial_residuals"],
            "krylov.self_s": self_t["krylov.pcg_solve"],
            "krylov.precond_s": incl["krylov.precond"],
            "krylov.precond_build_s": incl["krylov.build_preconditioner"],
            "krylov.failures": n["krylov.failures"],
            "startvec.start_calls": calls["startvec.start_vector"],
            "startvec.start_s": incl["startvec.start_vector"],
            "startvec.observe_s": incl["startvec.observe"],
            "startvec.upkeep_matvecs": upkeep,
            "startvec.inserts_accepted": n["inserts_accepted"],
            "startvec.inserts_dropped": n["inserts_dropped"],
            "startvec.stepping_solves": n["stepping_solves"],
            "startvec.zero_iter_ratio": (n["stepping_zero"]
                                         / n["stepping_solves"]
                                         if n["stepping_solves"] else 0.0),
            "startvec.pod_modes": (float(np.mean(self.pod_modes))
                                   if self.pod_modes else 0.0),
            "schur.steps": int(aggregates["steps"]) if explicit else 0,
            "schur.dt": float(aggregates["dt"]) if explicit else 0.0,
            "schur.cfl_calls": calls["schur.estimate_cfl"],
            "schur.cfl_power_iters": n["cfl_power_iters"],
            "schur.cfl_s": incl["schur.estimate_cfl"],
            "schur.kn_applies.pcg": n["kn.pcg"] if explicit else 0,
            "schur.kn_applies.initial": n["kn.initial"] if explicit else 0,
            "schur.kn_applies.cfl": n["kn.cfl"] if explicit else 0,
            "schur.kn_applies.upkeep": upkeep,
            "schur.step_self_s": self_t["schur.explicit_euler_step"],
            "schur.solve_kn_self_s": self_t["schur.solve_kn"],
            "schur.recover_s": incl["schur.recover_an"],
            "schur.loop_self_s": self_t["schur.run_explicit"],
            "model.assemble_s": incl["model.builtin_model"],
            "model.kc_apply_calls": calls["model.kc_apply"],
            "model.kc_apply_s": incl["model.kc_apply"],
            "model.kc_jacobian_calls": calls["model.kc_jacobian"],
            "model.kc_jacobian_s": incl["model.kc_jacobian"],
            "implicit.newton_iters": (0 if explicit
                                      else int(aggregates["newton_iterations"])),
            "implicit.linear_iters": (0 if explicit
                                      else int(aggregates["linear_iterations"])),
            "implicit.step_self_s": self_t["implicit.implicit_euler_step"],
            "implicit.loop_self_s": self_t["implicit.run_implicit"],
            "bench.self_s": self_t["bench.run_single"],
            "bench.operator_applies": operator_applies(aggregates),
        }


def check_counters(metrics: dict, applies: int, explicit: bool) -> None:
    """Counter identities of one traced run; raise SelfCheckError if broken."""
    failures = []

    def expect(label, left, right):
        if left != right:
            failures.append(f"{label}: {left} != {right}")

    expect("sparse.matvecs == krylov.iterations + krylov.initial_residuals",
           metrics["sparse.matvecs"],
           metrics["krylov.iterations"] + metrics["krylov.initial_residuals"])
    if explicit:
        expect("sum of schur.kn_applies.* == operator_applies",
               sum(metrics[f"schur.kn_applies.{cause}"]
                   for cause in ("pcg", "initial", "cfl", "upkeep")), applies)
        expect("krylov.iterations + krylov.initial_residuals + "
               "startvec.upkeep_matvecs == operator_applies",
               metrics["krylov.iterations"] + metrics["krylov.initial_residuals"]
               + metrics["startvec.upkeep_matvecs"], applies)
    else:
        expect("krylov.iterations == operator_applies",
               metrics["krylov.iterations"], applies)
        expect("implicit.linear_iters == operator_applies",
               metrics["implicit.linear_iters"], applies)
    if failures:
        raise SelfCheckError("counter self-check failed: "
                             + "; ".join(failures))


def check_repeats(rows: list[dict]) -> None:
    """Deterministic counters must agree across runs at one seed."""
    first_at: dict[int, dict] = {}
    for row in rows:
        first = first_at.setdefault(row["seed"], row)
        mine, theirs = row["counters"], first["counters"]
        diff = sorted(key for key in set(mine) | set(theirs)
                      if mine.get(key) != theirs.get(key))
        if diff:
            raise SelfCheckError(
                f"deterministic counters differ between runs at seed "
                f"{row['seed']} ({first['mode']} vs {row['mode']}): "
                + ", ".join(diff))
    layers = [row["layers"] for row in rows if "layers" in row]
    for other in layers[1:]:
        diff = [name for name in PER_LAYER_COUNTS
                if other[name] != layers[0][name]]
        if diff:
            raise SelfCheckError("per-layer counts differ between traced "
                                 "runs: " + ", ".join(diff))


def traced_execute(config, reference, probe,
                   run_id: int) -> tuple[dict, Tracer]:
    from mqsolve import bench
    tracer = Tracer(run_id)
    with patched(tracer.hooks()):
        # the probe is a leaf, so its time is not self time of any layer
        row = execute(config, reference, probe,
                      call=tracer.span("bench.run_single", bench.run_single),
                      wrap=lambda fn: tracer.leaf("host.probe", fn))
    if row["ok"]:
        layers = tracer.metrics(row["counters"])
        check_counters(layers, row["operator_applies"],
                       row["counters"]["integrator"] == "explicit")
        row["layers"] = layers
    return row, tracer


# -- invocation ------------------------------------------------------------


def run_metadata(workload: str, seed: int, trace: int) -> dict:
    try:
        # the ceiling keeps git from reporting an enclosing repository
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=True,
            env=os.environ | {"GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mqsolve").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "overrides": WORKLOADS[workload],
        "seed": seed,
        "seeds": [seed] if trace else panel_seeds(seed),
        "trace": trace,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "load": "closed loop, one client",
        "probe_nominal_s": PROBE_NOMINAL_S,
    }


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end_metrics(rows: list[dict]) -> dict:
    """Combine the runs of one invocation.

    Each segment of a run (set-up, every step, the tail) is scaled by the
    host factor beside it (``host_factors``), so the times read as on a host
    where the probe takes PROBE_NOMINAL_S. ``run_s``, ``setup_s`` and
    ``probe_err`` are the mean over the panel's seeds of each seed's median
    over its runs; ``step_ms`` is the median of every step of every run.
    ``peak_rss_mb`` is read after the first run, before the allocator's
    slow creep over later runs.
    """
    good = [row for row in rows if row["ok"]]
    by_seed: defaultdict = defaultdict(list)
    for row in good:
        by_seed[row["seed"]].append(row)

    def panel_mean(key: str) -> float:
        return float(np.mean([median(r[key] for r in runs)
                              for runs in by_seed.values()]))
    steps = np.concatenate([row["step_segments"] for row in good])
    return {
        "run_s": panel_mean("run_s"),
        "setup_s": panel_mean("setup_s"),
        "step_ms": 1e3 * float(np.median(steps)),
        "probe_err": panel_mean("probe_err"),
        "peak_rss_mb": good[0]["peak_rss_mb"],
    }


def per_layer_metrics(traced: list[dict], untraced: list[dict]) -> dict:
    good = [row for row in traced if row["ok"]]
    out = {}
    for name in PER_LAYER:
        if name.startswith("trace."):
            continue
        values = [row["layers"][name] for row in good]
        out[name] = values[-1] if name in PER_LAYER_COUNTS else median(values)
    traced_s = median(r["run_s"] for r in good)
    untraced_s = median(r["run_s"] for r in untraced if r["ok"])
    out["trace.run_s"] = traced_s
    out["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    return out


def warm_up(workload: str, seed: int) -> None:
    """Untimed tiny run of the same code path: imports and first calls."""
    from mqsolve.bench import run_single
    run_single(workload_config(workload, seed, tiny=True))


def measure(workload: str, seed: int, seconds: float, trace: bool,
            reference, tiny: bool = False) -> tuple[list[dict], list[dict],
                                                      Tracer | None]:
    """Closed loop of passes for about *seconds*, at least one pass.

    A pass runs every seed of ``panel_seeds(seed)`` once; a new pass starts
    only if it would end within *seconds*. Traced mode runs *seed* alone
    and alternates an untraced and a traced run. Returns (untraced, traced,
    last tracer).
    """
    probe = HostProbe()
    probe()
    seeds = [seed] if trace else panel_seeds(seed)
    configs = [workload_config(workload, s, tiny) for s in seeds]
    untraced: list[dict] = []
    traced: list[dict] = []
    tracer = None
    began = time.perf_counter()
    index = 0
    while True:
        started = time.perf_counter()
        for config in configs:
            row = execute(config, reference, probe)
            row["mode"] = "untraced"
            untraced.append(row)
            if trace:
                t_row, tracer = traced_execute(config, reference, probe, index)
                t_row["mode"] = "traced"
                traced.append(t_row)
                index += 1
        check_repeats([r for r in untraced + traced if r["ok"]])
        cycle = time.perf_counter() - started
        if time.perf_counter() - began + cycle > seconds:
            break
    return untraced, traced, tracer


def write_results(meta: dict, untraced, traced, tracer, metrics) -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{meta['workload']}-seed{meta['seed']}-trace{meta['trace']}"
    path = RESULTS_DIR / f"{stem}.json"
    path.write_text(json.dumps({"metadata": meta, "metrics": metrics,
                                "runs": [{k: v for k, v in row.items()
                                          if k != "step_segments"}
                                         for row in untraced + traced]},
                               indent=1,
                               default=str) + "\n")
    if tracer is not None:
        # spans of the last traced run: [run_id, name, start, end, parent]
        with open(RESULTS_DIR / f"{stem}-spans.jsonl", "w") as out:
            for span in tracer.spans:
                out.write(json.dumps(span) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-references", action="store_true",
                        help="rebuild the stored reference probe traces")
    args = parser.parse_args(argv)
    try:
        load_mqsolve()
    except ImportError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    if args.write_references:
        for path in write_references():
            print(f"wrote {path.relative_to(ROOT)}")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    config = workload_config(args.workload, args.seed)
    reference = load_reference(config.cells, config.t_end)
    meta = run_metadata(args.workload, args.seed, args.trace)
    warm_up(args.workload, args.seed)
    try:
        untraced, traced, tracer = measure(args.workload, args.seed,
                                           args.seconds, bool(args.trace),
                                           reference)
    except SelfCheckError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    rows = untraced + traced
    failed = sum(not row["ok"] for row in rows)
    if failed == len(rows) or (traced and not any(r["ok"] for r in traced)):
        print("perfbench: every run failed", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer_metrics(traced, untraced)
        units = PER_LAYER
    else:
        metrics = end_to_end_metrics(untraced)
        units = END_TO_END
    path = write_results(meta, untraced, traced, tracer, metrics)
    for row in rows:
        if row["ok"]:
            print(f"{row['mode']:>8} seed {row['seed']:>10}: "
                  f"run {row['run_s']:.3f} s, setup {row['setup_s']:.3f} s, "
                  f"step {row['step_ms']:.4f} ms (raw {row['raw_run_s']:.3f}"
                  f" s, {row['raw_step_ms']:.4f} ms; probe "
                  f"{row['probe_ms']:.3f} ms), "
                  f"{row['operator_applies']} applies, "
                  f"probe err {row['probe_err']:.3e}")
        else:
            print(f"{row['mode']:>8} seed {row['seed']:>10}: FAILED")
    print("metadata: " + json.dumps(meta, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:<28} {value:>16.6g} {units[name]}")
    print(f"results: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
