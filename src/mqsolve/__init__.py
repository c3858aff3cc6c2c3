"""Transient magneto-quasistatic field solver on structured hex grids.

The conducting/nonconducting partition of the edge unknowns turns the
spatially discretized problem into an ODE for the conducting block whose
right-hand side needs two inner conjugate-gradient solves with the singular
nonconducting curl-curl matrix per explicit step. Subspace recycling
(previous solution, cached-subspace extrapolation, proper orthogonal
decomposition) supplies the inner start vectors; an implicit Euler/Newton
integrator over the monolithic system serves as the reference.

Importing the package pins BLAS and OpenMP to one thread unless the
environment already sets a count: each variable below is set to "1" only
where it is unset. BLAS reads it once, when numpy first loads, so the pin
has no effect in a process that imported numpy before mqsolve.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from . import implicit, krylov, model, schur, sparse, startvec
from .implicit import *  # noqa: F401,F403
from .krylov import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .schur import *  # noqa: F401,F403
from .sparse import *  # noqa: F401,F403
from .startvec import *  # noqa: F401,F403

__version__ = "0.1.0"

# each public name is listed once, in its module's __all__
__all__ = ["__version__"] + [
    name for module in (sparse, krylov, startvec, schur, implicit, model)
    for name in module.__all__]
