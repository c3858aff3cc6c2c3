"""The package's public names, and what importing and running it loads."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mqsolve

SRC = Path(mqsolve.__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def run_fresh(script, *args, **env):
    """Run *script* in a new interpreter with no BLAS thread variable set
    except those in *env*; returns its stdout."""
    environ = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    environ.update(env)
    environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([environ["PYTHONPATH"]] if "PYTHONPATH" in environ
                      else []))
    done = subprocess.run([sys.executable, "-c", script, *args], env=environ,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_each_public_name_is_listed_once_and_resolves():
    names = mqsolve.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(mqsolve, name) is not None, name
    assert {"FAMILIES", "InconsistentRhsError", "SubspaceCache",
            "run_explicit", "__version__"} <= set(names)


def test_pcg_solve_keeps_the_keywords_that_perfbench_passes():
    # perfbench/run.py traces a run through a wrapper that passes every
    # argument of pcg_solve after b by keyword; a rename would break only
    # the traced run
    parameters = inspect.signature(mqsolve.pcg_solve).parameters
    assert list(parameters) == ["a", "b", "x0", "config", "preconditioner"]


def test_a_solve_report_keeps_the_fields_that_perfbench_reads():
    # perfbench/run.py counts iterations and failures from each report that
    # pcg_solve returns
    assert {"iterations", "converged"} <= set(mqsolve.SolveReport._fields)


THREADS = """
import json, os, sys
import mqsolve
import numpy as np
a = np.random.default_rng(0).standard_normal((400, 400))
a @ a
status = "/proc/self/status"
threads = None
if os.path.exists(status):
    with open(status) as f:
        threads = [line.split()[1] for line in f if line.startswith("Threads:")]
print(json.dumps({"threads": threads,
                  "env": {var: os.environ.get(var) for var in sys.argv[1:]}}))
"""


def test_importing_the_package_pins_blas_to_one_thread():
    seen = json.loads(run_fresh(THREADS, *THREAD_VARS))
    assert seen["env"] == {var: "1" for var in THREAD_VARS}
    if seen["threads"] is None:
        pytest.skip("no /proc/self/status to count threads")
    assert seen["threads"] == ["1"]


def test_a_thread_count_set_before_import_is_kept():
    seen = json.loads(run_fresh(THREADS, *THREAD_VARS,
                                OPENBLAS_NUM_THREADS="2"))
    assert seen["env"]["OPENBLAS_NUM_THREADS"] == "2"
    assert seen["env"]["OMP_NUM_THREADS"] == "1"


IMPORTS = """
import json, sys
HEAVY = ("scipy.io", "scipy.ndimage", "scipy.linalg")

def loaded():
    return [name for name in HEAVY if name in sys.modules]

steps = {}
import mqsolve.cli
steps["import"] = loaded()
from mqsolve.bench import RunConfig, load_model, run_single
from mqsolve.model import builtin_model, export_model
tiny = dict(cells=6, t_end=0.003)
run_single(RunConfig(integrator="implicit", **tiny))
steps["implicit"] = loaded()
run_single(RunConfig(**tiny))
steps["explicit"] = loaded()
load_model(export_model(builtin_model(6), sys.argv[1]))
steps["model_dir"] = loaded()
print(json.dumps(steps))
"""


def test_a_run_loads_only_the_scipy_modules_it_calls(tmp_path):
    # a fresh process, since this one already holds scipy.linalg
    steps = json.loads(run_fresh(IMPORTS, str(tmp_path / "model")))
    assert steps["import"] == []
    assert steps["implicit"] == []
    # the auto step's stability bound is the only scipy.linalg call
    assert steps["explicit"] == ["scipy.linalg"]
    # Matrix Market IO; the check of the rebuilt model needs no ndimage
    assert steps["model_dir"] == ["scipy.io", "scipy.linalg"]
