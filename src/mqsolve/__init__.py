"""Transient magneto-quasistatic field solver on structured hex grids.

The conducting/nonconducting partition of the edge unknowns turns the
spatially discretized problem into an ODE for the conducting block whose
right-hand side needs two inner conjugate-gradient solves with the singular
nonconducting curl-curl matrix per explicit step. Subspace recycling
(previous solution, cached-subspace extrapolation, proper orthogonal
decomposition) supplies the inner start vectors; an implicit Euler/Newton
integrator over the monolithic system serves as the reference.
"""

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
