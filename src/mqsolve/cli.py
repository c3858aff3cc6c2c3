"""Command line interface.

Subcommands: ``generate`` (write a model directory), ``run`` (one integrator
run to a CSV trace), ``bench`` (three start strategies plus the implicit
reference), ``cfl`` (print the auto step, its bound and a Lanczos estimate
of the eigenvalue it bounds). Settings layer as defaults < --config JSON <
flags. Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from .bench import (ConfigError, RunConfig, model_from_config,
                    run_benchmark, run_single, write_trace)
from .implicit import NewtonFailureError
from .krylov import IndefiniteOperatorError
from .model import ModelError, export_model
from .schur import (SchurOperator, StepFailureError, estimate_cfl,
                    stability_bound)
from .startvec import STRATEGIES

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file merged below "
                                         "flags")
    parser.add_argument("--model", help="'builtin' or path to a model "
                                        "manifest directory")
    parser.add_argument("--cells", type=int, help="builtin grid cells per "
                                                  "direction")
    parser.add_argument("--linear", action="store_const", const=True,
                        help="freeze the builtin conductor at its "
                             "unsaturated reluctivity")
    parser.add_argument("--seed", type=int, help="random seed")
    parser.add_argument("--out", help="output file or directory")


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--integrator", choices=("explicit", "implicit"))
    parser.add_argument("--strategy", choices=STRATEGIES)
    parser.add_argument("--dt", help="step size in seconds or 'auto'")
    parser.add_argument("--t-end", dest="t_end", type=float)
    parser.add_argument("--tol", type=float, help="PCG relative tolerance")
    parser.add_argument("--eps-pod", dest="eps_pod", type=float)
    parser.add_argument("--n-pod", dest="n_pod", type=int)
    parser.add_argument("--max-basis", dest="max_basis", type=int)
    parser.add_argument("--preconditioner", choices=("none", "jacobi"))
    parser.add_argument("--implicit-dt", dest="implicit_dt", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mqsolve",
        description="Transient eddy-current solver benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write the builtin model as Matrix "
                                          "Market blocks plus manifest")
    _add_common(gen)
    gen.add_argument("--amps", type=float)
    gen.add_argument("--tau", type=float)
    gen.add_argument("--kappa", type=float)
    gen.add_argument("--h", dest="h", type=float)

    run = sub.add_parser("run", help="run one integrator, write a CSV trace")
    _add_common(run)
    _add_run_options(run)

    bench = sub.add_parser("bench", help="compare start strategies against "
                                         "the implicit reference")
    _add_common(bench)
    _add_run_options(bench)

    cfl = sub.add_parser("cfl", help="print the largest stable explicit step")
    _add_common(cfl)
    cfl.add_argument("--tol", type=float)
    cfl.add_argument("--preconditioner", choices=("none", "jacobi"))
    return parser


def _overrides(args: argparse.Namespace) -> dict:
    skip = {"command", "config"}
    return {key: value for key, value in vars(args).items()
            if key not in skip and value is not None}


def _config(args: argparse.Namespace) -> RunConfig:
    return RunConfig.from_sources(config_file=args.config,
                                  overrides=_overrides(args))


def _cmd_generate(args) -> int:
    config = _config(args)
    if config.model != "builtin":
        raise ConfigError("generate only writes the builtin model")
    _, model = model_from_config(config)
    out = config.out if config.out != "." else "model"
    manifest = export_model(model, out)
    print(f"wrote {manifest.parent} ({model.n_c} conducting + "
          f"{model.n_n} nonconducting unknowns)")
    return EXIT_OK


def _cmd_run(args) -> int:
    config = _config(args)
    result, meta = run_single(config)
    out = config.out
    if out == ".":
        out = "trace.csv"
    path = write_trace(result, out)
    agg = result.aggregates
    print(f"wrote {path}: {agg['steps']} steps, integrator "
          f"{meta['integrator']}, final B "
          f"{float(result.probe_b[-1]):.6g}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    config = _config(args)
    out = config.out if config.out != "." else "bench"
    summary = run_benchmark(config, out)
    sys.stdout.write(summary.to_text())
    print(f"artifacts in {out}/")
    return EXIT_OK


def _cmd_cfl(args) -> int:
    config = _config(args)
    system, _ = model_from_config(config)
    settings = config.explicit_config()
    bound = stability_bound(system)
    print(f"bound      = {bound:.6e}  (lambda_max of M_c^-1/2 K_c M_c^-1/2)")
    print(f"dt_max     = {settings.stable_step(bound)!r}  (safety "
          f"{settings.safety}: the step of run --dt auto)")
    estimate = estimate_cfl(SchurOperator(system, settings))
    print(f"lambda_max = {estimate.lambda_max:.6e}  "
          f"(Ritz value, {estimate.power_iters} Lanczos steps)")
    print(f"residual   = {estimate.residual:.6e}")
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "run": _cmd_run,
    "bench": _cmd_bench,
    "cfl": _cmd_cfl,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ModelError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (StepFailureError, NewtonFailureError,
            IndefiniteOperatorError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
