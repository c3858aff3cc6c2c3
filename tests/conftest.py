"""Shared fixtures: manufactured linear systems and small assembled models."""

import numpy as np
import pytest
import scipy.linalg

from mqsolve import (CsrMatrix, Excitation, GridSpec, PartitionedSystem,
                     ScaledPatternSource, assemble, builtin_model,
                     default_steel, exponential_ramp, pcg_solve)
from mqsolve.model import CONDUCTOR
from mqsolve.sparse import spmv, spmv_transpose


def random_spd(rng, n, lo=1.0, hi=10.0):
    """Dense SPD matrix with eigenvalues drawn uniformly from [lo, hi]."""
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    dense = (q * rng.uniform(lo, hi, n)) @ q.T
    return 0.5 * (dense + dense.T)


def linear_partitioned(rng, n_c=3, n_n=5, *, singular=False, tau=0.5):
    """Manufactured linear DAE blocks with a consistent separable source.

    The blocks come from partitioning one positive (semi)definite matrix, so
    the monolithic stiffness and its Schur complement inherit the definiteness
    of the assembled problem. With ``singular`` the matrix gets a nullspace
    vector supported on the nonconducting block; the source pattern is
    projected onto its orthogonal complement so every inner solve stays
    consistent, mirroring the gauge structure of the assembled problem.
    """
    n = n_c + n_n
    mc_diag = rng.uniform(1.0, 2.0, n_c)
    if singular:
        g = rng.standard_normal(n_n)
        g /= np.linalg.norm(g)
        z = np.concatenate([np.zeros(n_c), g])
        basis = scipy.linalg.null_space(z[None, :])
        full = (basis * rng.uniform(0.5, 5.0, n - 1)) @ basis.T
        pattern = (np.eye(n_n) - np.outer(g, g)) @ rng.standard_normal(n_n)
    else:
        g = None
        full = random_spd(rng, n)
        pattern = rng.standard_normal(n_n)
    full = 0.5 * (full + full.T)
    kc = full[:n_c, :n_c]
    kcn = full[:n_c, n_c:]
    kn = full[n_c:, n_c:]
    system = PartitionedSystem.linear(
        mc=CsrMatrix.from_diagonal(mc_diag),
        kcn=CsrMatrix.from_dense(kcn),
        kn=CsrMatrix.from_dense(kn),
        kc=CsrMatrix.from_dense(kc),
        source=ScaledPatternSource(pattern, exponential_ramp(tau)))
    blocks = {"mc_diag": mc_diag, "kc": kc, "kcn": kcn, "kn": kn,
              "full": full, "pattern": pattern, "nullvec": g, "tau": tau}
    return system, blocks


class CountingOperator:
    """Callable wrapper that counts applications of a matrix or function."""

    def __init__(self, inner):
        self._inner = inner
        self.count = 0

    def __call__(self, x):
        self.count += 1
        if callable(self._inner):
            return self._inner(x)
        return self._inner @ x


def detached_schur(op, x, state):
    """K_S(state) x with one detached inner solve: (K_S x, K_n^+ K_cn^T x).

    K_c enters as ``kc_matrix(state)``; the inner solve is plain CG to the
    tolerances of ``op.config.pcg`` from zero, so on a singular K_n it
    returns the minimum-norm solution, and leaves no history in ``op``.
    """
    system = op.system
    y, _ = pcg_solve(system.kn, spmv_transpose(system.kcn, x),
                     config=op.config.pcg)
    return system.kc_matrix(state) @ x - spmv(system.kcn, y), y


@pytest.fixture
def rng():
    return np.random.default_rng(20250819)


@pytest.fixture(scope="session")
def make_spd():
    return random_spd


@pytest.fixture(scope="session")
def make_linear_system():
    return linear_partitioned


@pytest.fixture(scope="session")
def counting_operator():
    return CountingOperator


@pytest.fixture(scope="session")
def schur_action():
    return detached_schur


def corner_model(*, linear=False, amps=1e4):
    """Smallest assembled model: one conductor cell, three conducting dofs."""
    n = 4
    material = np.zeros((n, n, n), dtype=np.int8)
    material[0, 0, 0] = CONDUCTOR
    grid = GridSpec(n, n, n, 5e-3, material)
    excitation = Excitation(1, 3, 1, 3, 2, amps=amps)
    steel = default_steel()
    if linear:
        conductor = type(steel)(kappa=steel.kappa, brauer_k1=0.0,
                                brauer_k2=0.0,
                                brauer_k3=steel.brauer_k1 + steel.brauer_k3)
    else:
        conductor = steel
    return assemble(grid, conductor, excitation)


@pytest.fixture(scope="session")
def corner_toy():
    # drive strong enough to push the conductor cell past the saturation knee
    return corner_model(amps=1e6)


@pytest.fixture(scope="session")
def corner_toy_linear():
    return corner_model(linear=True, amps=1e6)


@pytest.fixture(scope="session")
def builtin6():
    return builtin_model(cells=6)


@pytest.fixture(scope="session")
def builtin6_linear():
    return builtin_model(cells=6, linear=True)
