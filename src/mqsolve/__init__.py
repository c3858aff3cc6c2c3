"""Transient magneto-quasistatic field solver on structured hex grids.

The conducting/nonconducting partition of the edge unknowns turns the
spatially discretized problem into an ODE for the conducting block whose
right-hand side needs two inner conjugate-gradient solves with the singular
nonconducting curl-curl matrix per explicit step. Subspace recycling
(previous solution, cached-subspace extrapolation, proper orthogonal
decomposition) supplies the inner start vectors; an implicit Euler/Newton
integrator over the monolithic system serves as the reference.
"""

from .implicit import (MonolithicJacobian, NewtonConfig, NewtonFailureError,
                       NewtonStepReport, implicit_euler_step, run_implicit)
from .krylov import (IndefiniteOperatorError, JacobiPreconditioner, PcgConfig,
                     SolveReport, build_preconditioner, pcg_solve)
from .model import (AIR, CONDUCTOR, VACUUM_RELUCTIVITY, Excitation,
                    GridSpec, Material, Model, ModelError, air_material,
                    assemble, builtin_model, default_steel, export_model,
                    gradient_incidence, probe_b, reluctivity)
from .schur import (FAMILIES, CflEstimate, ExplicitConfig, PartitionedSystem,
                    ScaledPatternSource, SchurOperator, StepFailureError,
                    TransientResult, estimate_cfl, explicit_euler_step,
                    exponential_ramp, recover_an, run_explicit,
                    stability_bound)
from .sparse import (CsrMatrix, NonFiniteError, as_vector,
                     read_dense_vector, read_matrix_market, spmv,
                     spmv_transpose, symmetric_check, write_dense_vector,
                     write_matrix_market)
from .startvec import (CspeStrategy, PodStrategy, PreviousSolutionStrategy,
                       RhsFamily, StartVectorStrategy, StrategyConfig,
                       SubspaceCache, make_strategy, pod_start_vector)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # sparse
    "CsrMatrix", "NonFiniteError", "as_vector", "spmv", "spmv_transpose",
    "symmetric_check", "read_matrix_market", "write_matrix_market",
    "read_dense_vector", "write_dense_vector",
    # krylov
    "PcgConfig", "SolveReport", "JacobiPreconditioner",
    "IndefiniteOperatorError", "build_preconditioner", "pcg_solve",
    # start vectors
    "RhsFamily", "StrategyConfig", "SubspaceCache", "pod_start_vector",
    "StartVectorStrategy", "PreviousSolutionStrategy", "CspeStrategy",
    "PodStrategy", "make_strategy",
    # partitioned system and explicit integrator
    "FAMILIES", "StepFailureError", "exponential_ramp", "ScaledPatternSource",
    "PartitionedSystem", "ExplicitConfig", "SchurOperator", "CflEstimate",
    "stability_bound", "estimate_cfl", "explicit_euler_step", "recover_an", "TransientResult", "run_explicit",
    # implicit reference
    "NewtonConfig", "NewtonStepReport", "NewtonFailureError",
    "MonolithicJacobian", "implicit_euler_step", "run_implicit",
    # model generation
    "AIR", "CONDUCTOR", "VACUUM_RELUCTIVITY", "Material", "GridSpec",
    "Excitation", "Model", "ModelError", "reluctivity", "assemble",
    "builtin_model", "default_steel", "air_material", "gradient_incidence",
    "probe_b", "export_model",
]
