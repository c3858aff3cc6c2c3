"""Structured-grid eddy-current model generator.

Discretization is a finite-integration scheme on a uniform hexahedral grid
with spacing h. Degrees of freedom are edge line integrals of the vector
potential; face fluxes are exact circulations b = C a with the pure incidence
curl C. The curl-curl stiffness is K = C^T diag(nu_f / h) C where nu_f
averages the adjacent cell reluctivities, and the conductivity matrix is
diagonal with edge-averaged kappa times h. The outer boundary is perfect
electric conductor: edges lying in a boundary plane are eliminated, which
leaves every retained face with exactly two adjacent cells.

Cell flux density uses the mean of squared face values per direction,
B2_cell = sum_d (B_f1^2 + B_f2^2) / 2 with B_f = phi_f / h^2. That choice
makes the nonlinear residual the exact gradient of the stored magnetic energy,
so the Newton Jacobian K_c + C^T H C (H assembled from rank-one cell blocks
scaled by the Brauer derivative) is symmetric by construction.

Partition rule: an edge is conducting when it borders at least one conductor
cell. Every face of a conductor cell then has only conducting edges, which
confines the material nonlinearity to the conducting block and keeps the
coupling and nonconducting blocks constant.

The conducting force K_c(a) a, its matrix and its Jacobian live on the force
faces only: the faces with at least one conducting edge, plus the six faces
of every conductor cell. The second set matters where the conductor touches
the PEC boundary: a face lying in a boundary plane keeps no edge, so its
flux is zero, yet it still enters its cell's B^2. Every other face has
neither a conducting edge nor a conductor cell, so dropping it removes only
empty rows and leaves every sum with the same terms in the same order. The
per-step cost of the force thus follows the conductor, not the grid (252 of
1,728 faces at 8 cells, 828 of 43,200 at 24).

The Brauer constants are folded into the force's operators once, at
assembly (``_force_operators``). One product x = Q (phi * phi) gives
k2 B^2 per conductor cell, with k2 / (2 h^4) on each cell's six faces in Q.
The face weights w / h = w0 + A1 e^x then come from one product that adds
into a copy of w0, with A1 = k1 / h times the conductor-cell averaging and
w0 = (the averaging of k3 plus the non-conductor weights) / h; the
derivative is dnu/dB^2 = k1 k2 e^x. One function, ``_face_weights``, serves
the force, its matrix and its Jacobian, which passes its value maps of A1
and w0 instead. The folded form rounds differently from the pairwise
nu = k1 exp(k2 B^2) + k3 (within about 8 eps (1 + k2 B^2) relative), so
traces follow it only to rounding level. The linear law's weights are w0,
bitwise its pairwise weights, so its force and Jacobian keep their bits.

The excitation is a closed rectangular loop of edges carrying the coil
current; a closed loop is discretely divergence-free, which keeps the
nonconducting right-hand side consistent with the singular curl-curl block.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .schur import PartitionedSystem, ScaledPatternSource, exponential_ramp
from .sparse import (CsrMatrix, _csr_matvec, _matvec, write_dense_vector,
                     write_matrix_market)

__all__ = [
    "AIR",
    "CONDUCTOR",
    "VACUUM_RELUCTIVITY",
    "Material",
    "GridSpec",
    "Excitation",
    "Model",
    "ModelError",
    "reluctivity",
    "assemble",
    "builtin_model",
    "default_steel",
    "air_material",
    "gradient_incidence",
    "probe_b",
    "export_model",
]

AIR, CONDUCTOR = 0, 1

VACUUM_RELUCTIVITY = 1.0 / (4e-7 * np.pi)


class ModelError(ValueError):
    """Invalid grid, material layout, or excitation."""


@dataclass(frozen=True)
class Material:
    """Per-region material data.

    Reluctivity follows the exponential saturation curve
    nu(B^2) = k1 * exp(k2 * B^2) + k3; k1 = 0 gives a linear material with
    nu = k3. Conductivity kappa is constant per region.
    """

    kappa: float = 0.0
    brauer_k1: float = 0.0
    brauer_k2: float = 0.0
    brauer_k3: float = VACUUM_RELUCTIVITY

    def __post_init__(self):
        if not 0 <= self.kappa < np.inf:
            raise ModelError("conductivity must be finite and nonnegative")
        if not (0 <= self.brauer_k1 < np.inf
                and 0 <= self.brauer_k2 < np.inf):
            raise ModelError("saturation coefficients must be finite and "
                             "nonnegative")
        if not 0 < self.brauer_k3 < np.inf:
            raise ModelError("base reluctivity must be finite and positive")

    @property
    def is_linear(self) -> bool:
        return self.brauer_k1 == 0.0


# Brauer coefficients (k1, k2, k3) of the steel: unsaturated nu(0) = 570 m/H,
# relative permeability about 1400
_STEEL_BRAUER = (49.4, 1.46, 520.6)
# conductivity of the steel in S/m
_STEEL_KAPPA = 5e6


def default_steel(kappa: float = _STEEL_KAPPA) -> Material:
    k1, k2, k3 = _STEEL_BRAUER
    return Material(kappa=kappa, brauer_k1=k1, brauer_k2=k2, brauer_k3=k3)


def air_material() -> Material:
    return Material()


def reluctivity(material: Material, b2):
    """Reluctivity and its derivative with respect to B^2.

    Accepts scalars or arrays; negative B^2 is rejected.
    """
    b2 = np.asarray(b2, dtype=np.float64)
    if (b2 < 0).any():
        raise ModelError("B^2 must be nonnegative")
    if material.is_linear:
        nu, dnu = np.full_like(b2, material.brauer_k3), np.zeros_like(b2)
    else:
        with np.errstate(over="ignore"):
            grow = np.exp(material.brauer_k2 * b2)
        nu = material.brauer_k1 * grow + material.brauer_k3
        dnu = material.brauer_k1 * material.brauer_k2 * grow
    if b2.ndim == 0:
        return float(nu), float(dnu)
    return nu, dnu


@dataclass(frozen=True)
class GridSpec:
    """Uniform hexahedral grid with a per-cell material id map."""

    nx: int
    ny: int
    nz: int
    h: float
    material: np.ndarray

    def __post_init__(self):
        if min(self.nx, self.ny, self.nz) < 2:
            raise ModelError("grid needs at least two cells per direction")
        if not 0 < self.h < np.inf:
            raise ModelError("grid spacing must be finite and positive")
        mat = np.ascontiguousarray(self.material, dtype=np.int8)
        if mat.shape != (self.nx, self.ny, self.nz):
            raise ModelError(
                f"material map has shape {mat.shape}, expected "
                f"({self.nx}, {self.ny}, {self.nz})")
        if not np.isin(mat, (AIR, CONDUCTOR)).all():
            raise ModelError("material map holds unknown region ids")
        mat.flags.writeable = False
        object.__setattr__(self, "material", mat)

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny * self.nz


@dataclass(frozen=True)
class Excitation:
    """Closed rectangular current loop in a constant-z node plane.

    The loop runs through the nodes (i0..i1) x (j0..j1) at node plane k0 and
    carries ``amps`` ampere-turns scaled by the saturating ramp
    1 - exp(-t/tau).
    """

    i0: int
    i1: int
    j0: int
    j1: int
    k0: int
    amps: float
    tau: float = 0.5

    def __post_init__(self):
        if not (self.i0 < self.i1 and self.j0 < self.j1):
            raise ModelError("loop extents must be nonempty")
        if not np.isfinite(self.amps):
            raise ModelError("ampere-turns must be finite")
        if not 0 < self.tau < np.inf:
            raise ModelError("time constant must be finite and positive")


class _Topology:
    """Edge, face, and node numbering plus incidence for one grid."""

    def __init__(self, grid: GridSpec):
        nx, ny, nz = grid.nx, grid.ny, grid.nz
        self.grid = grid
        self.n_ex = nx * (ny + 1) * (nz + 1)
        self.n_ey = (nx + 1) * ny * (nz + 1)
        self.n_ez = (nx + 1) * (ny + 1) * nz
        self.n_edges = self.n_ex + self.n_ey + self.n_ez
        self.ex = np.arange(self.n_ex).reshape(nx, ny + 1, nz + 1)
        self.ey = self.n_ex + np.arange(self.n_ey).reshape(nx + 1, ny, nz + 1)
        self.ez = (self.n_ex + self.n_ey
                   + np.arange(self.n_ez).reshape(nx + 1, ny + 1, nz))
        self.n_fx = (nx + 1) * ny * nz
        self.n_fy = nx * (ny + 1) * nz
        self.n_fz = nx * ny * (nz + 1)
        self.n_faces = self.n_fx + self.n_fy + self.n_fz
        self.fx = np.arange(self.n_fx).reshape(nx + 1, ny, nz)
        self.fy = self.n_fx + np.arange(self.n_fy).reshape(nx, ny + 1, nz)
        self.fz = (self.n_fx + self.n_fy
                   + np.arange(self.n_fz).reshape(nx, ny, nz + 1))
        self.n_nodes = (nx + 1) * (ny + 1) * (nz + 1)
        self.nid = np.arange(self.n_nodes).reshape(nx + 1, ny + 1, nz + 1)
        self.cid = np.arange(grid.n_cells).reshape(nx, ny, nz)

    def curl_incidence(self) -> sp.csr_matrix:
        """Face-edge incidence C with entries +-1 (circulation orientation)."""
        nx, ny, nz = self.grid.nx, self.grid.ny, self.grid.nz
        blocks = []
        # x faces: +y edge, +z edge at j+1, -y edge at k+1, -z edge
        blocks.append((self.fx,
                       [self.ey[:, :, :nz], self.ez[:, 1:, :],
                        self.ey[:, :, 1:], self.ez[:, :ny, :]]))
        # y faces: +z edge, +x edge at k+1, -z edge at i+1, -x edge
        blocks.append((self.fy,
                       [self.ez[:nx, :, :], self.ex[:, :, 1:],
                        self.ez[1:, :, :], self.ex[:, :, :nz]]))
        # z faces: +x edge, +y edge at i+1, -x edge at j+1, -y edge
        blocks.append((self.fz,
                       [self.ex[:, :ny, :], self.ey[1:, :, :],
                        self.ex[:, 1:, :], self.ey[:nx, :, :]]))
        rows, cols, data = [], [], []
        signs = np.array([1.0, 1.0, -1.0, -1.0])
        for face_ids, edges in blocks:
            f = face_ids.ravel()
            cols_block = np.stack([e.ravel() for e in edges], axis=1)
            rows.append(np.repeat(f, 4))
            cols.append(cols_block.ravel())
            data.append(np.tile(signs, f.size))
        c = sp.coo_matrix(
            (np.concatenate(data),
             (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.n_faces, self.n_edges)).tocsr()
        c.sort_indices()
        return c

    def boundary_edges(self) -> np.ndarray:
        nx, ny, nz = self.grid.nx, self.grid.ny, self.grid.nz
        bx = np.zeros((nx, ny + 1, nz + 1), dtype=bool)
        bx[:, (0, ny), :] = True
        bx[:, :, (0, nz)] = True
        by = np.zeros((nx + 1, ny, nz + 1), dtype=bool)
        by[(0, nx), :, :] = True
        by[:, :, (0, nz)] = True
        bz = np.zeros((nx + 1, ny + 1, nz), dtype=bool)
        bz[(0, nx), :, :] = True
        bz[:, (0, ny), :] = True
        return np.concatenate([bx.ravel(), by.ravel(), bz.ravel()])

    def edge_cell_mean(self, cell_values: np.ndarray) -> np.ndarray:
        """Per-edge mean of the four adjacent cell values (zero padding)."""
        out = []
        pads = [((0, 0), (1, 1), (1, 1)),
                ((1, 1), (0, 0), (1, 1)),
                ((1, 1), (1, 1), (0, 0))]
        for axis, pad in enumerate(pads):
            p = np.pad(cell_values.astype(np.float64), pad)
            acc = None
            other = [d for d in range(3) if d != axis]
            for da in (0, 1):
                for db in (0, 1):
                    view = [slice(None)] * 3
                    view[other[0]] = slice(da, p.shape[other[0]] - 1 + da)
                    view[other[1]] = slice(db, p.shape[other[1]] - 1 + db)
                    part = p[tuple(view)]
                    acc = part if acc is None else acc + part
            out.append((acc / 4.0).ravel())
        return np.concatenate(out)

    def face_cell_average(self) -> sp.csr_matrix:
        """Averaging map cells -> faces with weight 1/2 per adjacent cell."""
        nx, ny, nz = self.grid.nx, self.grid.ny, self.grid.nz
        cid = self.cid
        rows, cols = [], []
        for face_ids, pairs in (
                (self.fx, ((self.fx[1:, :, :], cid), (self.fx[:nx, :, :], cid))),
                (self.fy, ((self.fy[:, 1:, :], cid), (self.fy[:, :ny, :], cid))),
                (self.fz, ((self.fz[:, :, 1:], cid), (self.fz[:, :, :nz], cid)))):
            for f, c in pairs:
                rows.append(f.ravel())
                cols.append(c.ravel())
        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
        data = np.full(rows.size, 0.5)
        return sp.coo_matrix((data, (rows, cols)),
                             shape=(self.n_faces, self.grid.n_cells)).tocsr()

    def cell_faces(self) -> np.ndarray:
        """(n_cells, 6) face ids per cell: x pair, y pair, z pair."""
        nx, ny, nz = self.grid.nx, self.grid.ny, self.grid.nz
        stack = np.stack([
            self.fx[:nx, :, :], self.fx[1:, :, :],
            self.fy[:, :ny, :], self.fy[:, 1:, :],
            self.fz[:, :, :nz], self.fz[:, :, 1:]], axis=-1)
        return stack.reshape(self.grid.n_cells, 6)

    def loop_edges(self, exc: Excitation) -> tuple[np.ndarray, np.ndarray]:
        """Global edge ids and orientation signs of the rectangular loop."""
        nx, ny, nz = self.grid.nx, self.grid.ny, self.grid.nz
        if not (0 <= exc.i0 and exc.i1 <= nx and 0 <= exc.j0 and exc.j1 <= ny
                and 0 <= exc.k0 <= nz):
            raise ModelError("loop lies outside the grid")
        ids, signs = [], []
        ids.append(self.ex[exc.i0:exc.i1, exc.j0, exc.k0])
        signs.append(np.ones(exc.i1 - exc.i0))
        ids.append(self.ey[exc.i1, exc.j0:exc.j1, exc.k0])
        signs.append(np.ones(exc.j1 - exc.j0))
        ids.append(self.ex[exc.i0:exc.i1, exc.j1, exc.k0])
        signs.append(-np.ones(exc.i1 - exc.i0))
        ids.append(self.ey[exc.i0, exc.j0:exc.j1, exc.k0])
        signs.append(-np.ones(exc.j1 - exc.j0))
        return np.concatenate(ids), np.concatenate(signs)

    def edge_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Tail and head node ids for every edge (orientation +x, +y, +z)."""
        nx, ny, nz = self.grid.nx, self.grid.ny, self.grid.nz
        tails = np.concatenate([
            self.nid[:nx, :, :].ravel(),
            self.nid[:, :ny, :].ravel(),
            self.nid[:, :, :nz].ravel()])
        heads = np.concatenate([
            self.nid[1:, :, :].ravel(),
            self.nid[:, 1:, :].ravel(),
            self.nid[:, :, 1:].ravel()])
        return tails, heads


def gradient_incidence(grid: GridSpec) -> sp.csr_matrix:
    """Node-to-edge gradient incidence G (rows: edges, +head - tail)."""
    topo = _Topology(grid)
    tails, heads = topo.edge_nodes()
    rows = np.concatenate([np.arange(topo.n_edges), np.arange(topo.n_edges)])
    cols = np.concatenate([heads, tails])
    data = np.concatenate([np.ones(topo.n_edges), -np.ones(topo.n_edges)])
    return sp.coo_matrix((data, (rows, cols)),
                         shape=(topo.n_edges, topo.n_nodes)).tocsr()


def _b2(per: np.ndarray, h: float) -> np.ndarray:
    """Cell B^2 from the (cells, 6) face circulations: x, y, z face pairs.

    Sums ((p0^2 + p1^2) + (p2^2 + p3^2)) + (p4^2 + p5^2) in five array
    operations. The force folds k2 / (2 h^4) into one product instead (see
    :func:`_force_operators`), so this order fixes only the probe's
    ``Model.cell_b2``.
    """
    squares = per * per
    pairs = squares[:, 0::2] + squares[:, 1::2]
    return (pairs[:, 0] + pairs[:, 1] + pairs[:, 2]) / (2.0 * h ** 4)


def _force_operators(face_by_cond: CsrMatrix, base: np.ndarray,
                     faces6: np.ndarray, material: Material, h: float):
    """The conducting force's operators with the Brauer constants folded in.

    *face_by_cond* averages the conductor cells onto the faces (1/2 per
    adjacent cell), *base* holds each face's constant weight from its
    non-conductor cells, and row c of *faces6* names conductor cell c's six
    faces. Returns ``(q, a1, w0)`` with

    - ``q``: k2 / (2 h^4) on each cell's six faces, so that
      ``q (phi * phi)`` is k2 B^2 per conductor cell;
    - ``a1``: ``face_by_cond`` times k1 / h;
    - ``w0``: (``face_by_cond`` k3 + ``base``) / h, summed in that order.

    The face weights w / h are then ``w0 + a1 exp(k2 B^2)``
    (:func:`_face_weights`), and ``w0`` alone for the linear law.
    """
    k1, k2, k3 = material.brauer_k1, material.brauer_k2, material.brauer_k3
    m = faces6.shape[0]
    q = CsrMatrix(m, face_by_cond.nrows, np.arange(0, 6 * m + 1, 6),
                  np.sort(faces6, axis=1).ravel(),
                  np.full(6 * m, k2 / (2.0 * h ** 4)))
    a1 = face_by_cond.with_values(face_by_cond.values * (k1 / h))
    w0 = _matvec(face_by_cond, np.full(m, k3))
    w0 += base
    w0 /= h
    return q, a1, w0


def _face_weights(phi: np.ndarray, q: CsrMatrix, a: CsrMatrix,
                  w0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(w0 + a e^x, e^x)`` with x = ``q (phi * phi)`` at the force-face
    circulations *phi*.

    With the operators of :func:`_force_operators` the first is the face
    weights w / h, and k1 k2 e^x is dnu/dB^2 per conductor cell; a map
    applied to ``a`` and ``w0`` gives the same map of the weights. A B^2
    or an exponent that overflows gives inf without a warning. Both
    products take the CSR kernel unchecked, so *phi* must hold ``q.ncols``
    values and *w0* ``a.nrows``, as every caller's circulations and maps do.
    """
    grow = np.zeros(q.nrows)
    with np.errstate(over="ignore"):
        _csr_matvec(q.nrows, q.ncols, q.row_ptr, q.col_idx, q.values,
                    phi * phi, grow)
        np.exp(grow, out=grow)
    weights = w0.copy()
    _csr_matvec(a.nrows, a.ncols, a.row_ptr, a.col_idx, a.values, grow,
                weights)
    return weights, grow


@dataclass
class Model:
    """Assembled model: partitioned system plus grid-aware helpers."""

    grid: GridSpec
    conductor: Material
    system: PartitionedSystem
    interior_edges: np.ndarray   # global edge ids of retained dofs
    conducting: np.ndarray       # positions of conducting dofs (interior order)
    nonconducting: np.ndarray
    curl_interior: sp.csr_matrix
    cell_faces: np.ndarray
    conductor_cells: np.ndarray
    pattern_n: np.ndarray
    tau: float
    probe_cells: np.ndarray
    builtin_params: dict | None = None

    @property
    def n_c(self) -> int:
        return self.conducting.size

    @property
    def n_n(self) -> int:
        return self.nonconducting.size

    def full_interior(self, a_c, a_n) -> np.ndarray:
        full = np.zeros(self.interior_edges.size)
        full[self.conducting] = a_c
        full[self.nonconducting] = a_n
        return full

    def cell_b2(self, a_interior) -> np.ndarray:
        """Squared flux density per cell from face circulations."""
        phi = self.curl_interior @ np.asarray(a_interior, dtype=np.float64)
        return _b2(phi[self.cell_faces], self.grid.h)

    @cached_property
    def _probe_curl(self):
        """``y += C_p x`` by the CSR kernel, with C_p the rows of
        ``curl_interior`` on the probe cells' faces, cell by cell. They are
        gathered from its arrays at the first call (the probe cells are
        fixed at assembly), so a run's first row costs about what the whole
        curl's product did. *x* must hold an interior field."""
        m = self.curl_interior
        faces = self.cell_faces[self.probe_cells].ravel()
        starts = m.indptr[faces]
        counts = m.indptr[faces + 1] - starts
        row_ptr = np.zeros(faces.size + 1, dtype=m.indptr.dtype)
        np.cumsum(counts, out=row_ptr[1:])
        at = np.repeat(starts - row_ptr[:-1], counts) + np.arange(row_ptr[-1])
        return partial(_csr_matvec, faces.size, m.shape[1], row_ptr,
                       m.indices[at], m.data[at])

    def probe(self, a_c, a_n, cells=None) -> float:
        """``probe_b`` of the field (a_c, a_n). With the default cells it
        forms only their face circulations, whose rows and sums are those
        of ``cell_b2``, so the value is ``probe_b``'s bit for bit."""
        full = self.full_interior(a_c, a_n)
        if cells is not None or self.probe_cells.size == 0:
            return probe_b(self, full, cells)
        phi = np.zeros(6 * self.probe_cells.size)
        self._probe_curl(full, phi)
        b2 = _b2(phi.reshape(-1, 6), self.grid.h)
        return float(np.sqrt(b2).mean())

    def probe_callable(self):
        return lambda a_c, a_n, t: self.probe(a_c, a_n)


def probe_b(model: Model, a_interior, cells=None) -> float:
    """Mean flux-density magnitude over the probe cells."""
    if cells is None:
        cells = model.probe_cells
    cells = np.asarray(cells, dtype=np.int64)
    if cells.size == 0:
        raise ModelError("probe cell set is empty")
    if cells.min() < 0 or cells.max() >= model.grid.n_cells:
        raise ModelError("probe cell index out of range")
    b2 = model.cell_b2(a_interior)
    return float(np.sqrt(b2[cells]).mean())


def _edge_products(c: CsrMatrix):
    """``products(fa, fb, source)`` over the faces of the curl *c*: the
    pattern key i n + j, the coefficient and the source of every pair of
    an edge i of a face of *fa* and an edge j of the matching face of
    *fb*, in the C order of the face arrays. Every coefficient is a product
    of two entries of C, so it is exactly +-1.
    """
    n_faces, n = c.shape
    counts = np.diff(c.row_ptr)
    # each face's edges and signs padded to the widest face; padding signs
    # are zero and the products they enter are dropped below
    width = int(counts.max())
    face = np.repeat(np.arange(n_faces), counts)
    slot = np.arange(c.nnz) - c.row_ptr[face]
    edges = np.zeros((n_faces, width), dtype=np.int64)
    signs = np.zeros((n_faces, width))
    edges[face, slot] = c.col_idx
    signs[face, slot] = c.values

    def products(fa, fb, source):
        key = edges[fa][..., :, None] * n + edges[fb][..., None, :]
        coef = signs[fa][..., :, None] * signs[fb][..., None, :]
        keep = coef != 0.0
        return (key[keep], coef[keep],
                np.broadcast_to(source[..., None, None], keep.shape)[keep])

    return products


def _pattern(keys: np.ndarray, n: int) -> CsrMatrix:
    """The n x n pattern, zero-valued, of the sorted unique keys i n + j."""
    row_ptr = np.concatenate(
        [[0], np.cumsum(np.bincount(keys // n, minlength=n))])
    return CsrMatrix(n, n, row_ptr, keys % n, np.zeros(keys.size))


def _matrix_maps(c: CsrMatrix):
    """Fixed pattern of C^T diag(w) C and the linear map of the face weights
    w onto its values: ``(pattern, weight_map)``.

    The products run face by face, so a stable sort by key leaves each
    entry's faces in ascending order. ``weight_map w`` then adds each
    entry's +-w_f in the order in which scipy's product C^T diag(w) C adds
    them, so its values are that product's bit for bit.
    """
    faces = np.flatnonzero(np.diff(c.row_ptr))
    keys, coef, source = _edge_products(c)(faces, faces, faces)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    weight_map = CsrMatrix(starts.size, c.nrows, np.append(starts, keys.size),
                           source[order], coef[order])
    return _pattern(keys[starts], c.ncols), weight_map


def _jacobian_maps(c: CsrMatrix, cell_faces: np.ndarray):
    """Fixed pattern of C^T diag(w) C + C^T H C and linear maps onto its values.

    H is the sum over cells of a dense 6 x 6 block on the cell's six faces
    (rows of *cell_faces*). Returns ``(pattern, weight_map, block_map)`` with
    the Jacobian values ``weight_map w + block_map blocks.ravel()`` for
    face weights ``w`` and cell blocks of shape ``(cells, 6, 6)``. Every map
    coefficient is exactly +-1 (see :func:`_edge_products`).
    """
    n_faces = c.nrows
    products = _edge_products(c)
    faces = np.flatnonzero(np.diff(c.row_ptr))
    n_cells = cell_faces.shape[0]
    w_keys, w_coef, w_src = products(faces, faces, faces)
    b_keys, b_coef, b_src = products(
        cell_faces[:, :, None], cell_faces[:, None, :],
        np.arange(36 * n_cells).reshape(n_cells, 6, 6))
    keys = np.union1d(w_keys, b_keys)
    w_at, b_at = np.searchsorted(keys, w_keys), np.searchsorted(keys, b_keys)
    # this build sets the implicit run's peak memory; free the product keys
    # before the pattern and the maps are built
    del w_keys, b_keys
    pattern = _pattern(keys, c.ncols)
    weight_map = CsrMatrix.from_coo(keys.size, n_faces, w_at, w_src, w_coef)
    block_map = CsrMatrix.from_coo(keys.size, 36 * n_cells, b_at, b_src,
                                   b_coef)
    return pattern, weight_map, block_map


def _fold_jacobian_maps(pattern: CsrMatrix, weight_map: CsrMatrix,
                        block_map: CsrMatrix, a1: CsrMatrix, w0: np.ndarray,
                        material: Material, h: float):
    """The maps of :func:`_jacobian_maps` with the Brauer constants folded
    in: ``(pattern, weight_map a1, weight_map w0, block_map k1 k2 / (2 h^5))``.

    With the operators of :func:`_force_operators`, the Jacobian values are
    ``weight_map w0 + (weight_map a1) e^x`` plus the scaled block map of the
    cell blocks e^x_c per_i per_j.
    """
    weight_a1 = CsrMatrix.from_scipy(weight_map.to_scipy() @ a1.to_scipy())
    scale = material.brauer_k1 * material.brauer_k2 / (2.0 * h ** 5)
    return (pattern, weight_a1, _matvec(weight_map, w0),
            block_map.with_values(block_map.values * scale))


def _rows(m: sp.csr_matrix, rows: np.ndarray) -> CsrMatrix:
    """The *rows* of canonical *m* as a CsrMatrix; the others must be empty.

    Dropping empty rows only shortens the row pointer, which costs less than
    scipy's row indexing.
    """
    starts, ends = m.indptr[rows], m.indptr[rows + 1]
    if (ends - starts).sum() != m.nnz:
        raise ValueError("a dropped row is not empty")
    return CsrMatrix(rows.size, m.shape[1], np.concatenate([[0], ends]),
                     m.indices, m.data)


def _face_components(mask: np.ndarray) -> int:
    """Number of face-connected components of the True cells of 3-D *mask*.

    Each cell starts labelled with its own index. A sweep lowers both cells
    of every face-adjacent pair to the smaller of their labels, then
    replaces each label by its label's label. A label is always the index
    of a cell in the same component, so once a sweep changes nothing the
    components are the cells that label themselves.
    """
    n = int(np.count_nonzero(mask))
    index = np.full(mask.shape, -1)
    index[mask] = np.arange(n)
    lo, hi = [], []
    for axis in range(3):
        first = index[(slice(None),) * axis + (slice(None, -1),)]
        second = index[(slice(None),) * axis + (slice(1, None),)]
        both = (first >= 0) & (second >= 0)
        lo.append(first[both])
        hi.append(second[both])
    u, v = np.concatenate(lo), np.concatenate(hi)
    label = np.arange(n)
    while True:
        low = np.minimum(label[u], label[v])
        hooked = label.copy()
        np.minimum.at(hooked, u, low)
        np.minimum.at(hooked, v, low)
        hooked = hooked[hooked]
        if np.array_equal(hooked, label):
            return int(np.count_nonzero(label == np.arange(n)))
        label = hooked


def _check_conductor_region(mask: np.ndarray) -> None:
    """Raise ModelError unless the conductor cells of *mask* are one
    face-connected region.

    The count is ``_face_components``' numpy sweep over the mask itself
    (24 cells at 8 cells per direction), so building a model loads no
    image-processing library.
    """
    if not mask.any():
        raise ModelError("conductivity vanishes everywhere; nothing to integrate")
    count = _face_components(mask)
    if count != 1:
        raise ModelError(f"conductor region is not face-connected "
                         f"({count} components)")


def assemble(grid: GridSpec, conductor: Material, excitation: Excitation, *,
             probe_cells=None) -> Model:
    """Assemble the partitioned system for one grid and excitation.

    Raises ModelError when the conductor region is empty or disconnected,
    when the loop is not interior and nonconducting, or when the excitation
    fails the closed-loop (divergence-free) check.
    """
    if conductor.kappa <= 0:
        raise ModelError("conductor material needs positive conductivity")
    topo = _Topology(grid)
    cond_cells_mask = grid.material == CONDUCTOR
    _check_conductor_region(cond_cells_mask)

    boundary = topo.boundary_edges()
    interior = np.flatnonzero(~boundary)
    position = np.full(topo.n_edges, -1, dtype=np.int64)
    position[interior] = np.arange(interior.size)

    conducting_global = topo.edge_cell_mean(cond_cells_mask) > 0
    cond_int = np.flatnonzero(conducting_global[interior])
    noncond_int = np.flatnonzero(~conducting_global[interior])
    if cond_int.size == 0:
        raise ModelError("no conducting edges were retained")

    c_full = topo.curl_incidence()
    c_int = c_full[:, interior].tocsr()

    h = grid.h
    average = topo.face_cell_average()
    cell_faces = topo.cell_faces()
    in_conductor = cond_cells_mask.ravel()
    cond_cells = np.flatnonzero(in_conductor)

    # face weights at the zero state, which fix the constant blocks
    nu0 = conductor.brauer_k1 + conductor.brauer_k3
    weights0 = average @ np.where(in_conductor, nu0, VACUUM_RELUCTIVITY)
    k_full0 = (c_int.T @ sp.diags(weights0 / h) @ c_int).tocsr()
    k_cn = CsrMatrix.from_scipy(k_full0[cond_int][:, noncond_int])
    k_n = CsrMatrix.from_scipy(k_full0[noncond_int][:, noncond_int])

    kappa_cells = np.where(cond_cells_mask, conductor.kappa, 0.0)
    kappa_edges = topo.edge_cell_mean(kappa_cells)
    mc_diag = kappa_edges[interior][cond_int] * h
    if (mc_diag <= 0).any():
        raise ModelError("conducting edge with zero averaged conductivity")
    m_c = CsrMatrix.from_diagonal(mc_diag)

    # the force faces (see the module docstring); every other face has an
    # empty row in the conducting curl and in the conductor-cell averaging
    curl_cond = c_int[:, cond_int]
    force = np.diff(curl_cond.indptr) > 0
    force[cell_faces[cond_cells]] = True
    force_faces = np.flatnonzero(force)
    c_cond = _rows(curl_cond, force_faces)
    face_by_cond = _rows(average[:, cond_cells], force_faces)
    # constant face weights: non-conductor cells only
    nu_air_cells = np.where(in_conductor, 0.0, VACUUM_RELUCTIVITY)
    base_weights = (average @ nu_air_cells)[force_faces]
    # each conductor cell's six faces as rows of the force faces, and as
    # the (6, m) gather that takes one contiguous row per face of the cell
    cond_faces6 = np.searchsorted(force_faces, cell_faces[cond_cells])
    faces_by_cell = np.ascontiguousarray(cond_faces6.T)
    q, a1, w0 = _force_operators(face_by_cond, base_weights, cond_faces6,
                                 conductor, h)
    # the linear law's weights w0 do not depend on the state, so its force
    # and Jacobian never evaluate B^2
    linear = conductor.is_linear

    n_faces, n_cond = c_cond.shape

    def kc_apply(state):
        # the one length check: every product below takes the CSR kernel
        # unchecked, and the transpose is still built on the first call
        state = np.asarray(state, dtype=np.float64)
        if state.shape != (n_cond,):
            raise ValueError(f"state has shape {state.shape}, "
                             f"expected ({n_cond},)")
        phi = np.zeros(n_faces)
        _csr_matvec(n_faces, n_cond, c_cond.row_ptr, c_cond.col_idx,
                    c_cond.values, state, phi)
        phi *= w0 if linear else _face_weights(phi, q, a1, w0)[0]
        curl_t = c_cond._transpose
        force = np.zeros(n_cond)
        _csr_matvec(n_cond, n_faces, curl_t.row_ptr, curl_t.col_idx,
                    curl_t.values, phi, force)
        return force

    # pattern and value maps of kc_matrix and kc_jacobian, each built on its
    # first call so a run that never asks for one never pays for its maps
    matrix_maps = jacobian_maps = None

    def kc_matrix(state) -> CsrMatrix:
        nonlocal matrix_maps
        if matrix_maps is None:
            matrix_maps = _matrix_maps(c_cond)
        pattern, weight_map = matrix_maps
        phi = _matvec(c_cond, np.asarray(state, dtype=np.float64))
        w = w0 if linear else _face_weights(phi, q, a1, w0)[0]
        return pattern.with_values(_matvec(weight_map, w))

    def kc_jacobian(state) -> CsrMatrix:
        nonlocal jacobian_maps
        if jacobian_maps is None:
            jacobian_maps = _fold_jacobian_maps(
                *_jacobian_maps(c_cond, cond_faces6), a1, w0, conductor, h)
        pattern, weight_a1, weight_w0, block_map = jacobian_maps
        if linear:
            return pattern.with_values(weight_w0)
        phi = _matvec(c_cond, np.asarray(state, dtype=np.float64))
        values, grow = _face_weights(phi, q, weight_a1, weight_w0)
        per = phi[faces_by_cell]
        # blocks[c, i, j] = e^x_c per_i per_j on cell c's faces; block_map
        # holds k1 k2 / (2 h^5), so it adds dnu/dB^2 / (2 h^5) per_i per_j
        blocks = np.empty((grow.size, 6, 6))
        with np.errstate(over="ignore", invalid="ignore"):
            per_grow = per * grow
            np.multiply(per_grow.T[:, :, None], per.T[:, None, :],
                        out=blocks)
        _matvec(block_map, blocks.ravel(), out=values)
        return pattern.with_values(values)

    # excitation: closed loop of interior, nonconducting edges
    loop_ids, loop_signs = topo.loop_edges(excitation)
    tails, heads = topo.edge_nodes()
    div = np.zeros(topo.n_nodes)
    np.add.at(div, heads[loop_ids], loop_signs)
    np.add.at(div, tails[loop_ids], -loop_signs)
    if np.abs(div).max() > 0:
        raise ModelError("coil loop is not closed (nonzero node divergence)")
    loop_pos = position[loop_ids]
    if (loop_pos < 0).any():
        raise ModelError("coil loop touches the domain boundary")
    if conducting_global[loop_ids].any():
        raise ModelError("coil loop touches conducting edges")
    n_index = np.full(interior.size, -1, dtype=np.int64)
    n_index[noncond_int] = np.arange(noncond_int.size)
    loop_n = n_index[loop_pos]
    if (loop_n < 0).any():
        raise ModelError("coil loop touches conducting edges")
    pattern_n = np.zeros(noncond_int.size)
    np.add.at(pattern_n, loop_n, loop_signs * excitation.amps)

    source = ScaledPatternSource(pattern_n, exponential_ramp(excitation.tau))

    system = PartitionedSystem(mc=m_c, kcn=k_cn, kn=k_n, kc_apply=kc_apply,
                               kc_matrix=kc_matrix, kc_jacobian=kc_jacobian,
                               source=source)

    if probe_cells is None:
        ijk = np.argwhere(cond_cells_mask)
        mid_k = int(np.median(ijk[:, 2]))
        sel = ijk[ijk[:, 2] == mid_k]
        probe_cells = topo.cid[sel[:, 0], sel[:, 1], sel[:, 2]]
    probe_cells = np.asarray(probe_cells, dtype=np.int64)
    if probe_cells.size and (probe_cells.min() < 0
                             or probe_cells.max() >= grid.n_cells):
        raise ModelError("probe cell index out of range")

    return Model(grid=grid, conductor=conductor, system=system,
                 interior_edges=interior, conducting=cond_int,
                 nonconducting=noncond_int, curl_interior=c_int,
                 cell_faces=cell_faces, conductor_cells=cond_cells,
                 pattern_n=pattern_n, tau=excitation.tau,
                 probe_cells=probe_cells)


def builtin_model(cells: int = 8, h: float = 5e-3,
                  kappa: float = _STEEL_KAPPA,
                  brauer: tuple[float, float, float] = _STEEL_BRAUER,
                  amps: float = 50000.0, tau: float = Excitation.tau, *,
                  linear: bool = False, probe_cells=None) -> Model:
    """Reference benchmark model: steel bar threaded by a square coil loop.

    A 2 x 2 x (cells - 2) conductor bar sits at the grid center; the coil is
    a square edge loop one cell in from the boundary at mid height. Needs at
    least six cells per direction so the loop clears the conducting edges.
    ``linear=True`` freezes the bar reluctivity at its unsaturated value.
    """
    if cells < 6:
        raise ModelError("builtin model needs at least 6 cells per direction")
    n = int(cells)
    material = np.zeros((n, n, n), dtype=np.int8)
    b0, b1 = n // 2 - 1, n // 2
    material[b0:b1 + 1, b0:b1 + 1, 1:n - 1] = CONDUCTOR
    exc = Excitation(i0=1, i1=n - 1, j0=1, j1=n - 1, k0=n // 2, amps=amps,
                     tau=tau)
    grid = GridSpec(n, n, n, h, material)
    k1, k2, k3 = brauer
    if linear:
        steel = Material(kappa=kappa, brauer_k1=0.0, brauer_k2=0.0,
                         brauer_k3=k1 + k3)
    else:
        steel = Material(kappa=kappa, brauer_k1=k1, brauer_k2=k2,
                         brauer_k3=k3)
    model = assemble(grid, steel, exc, probe_cells=probe_cells)
    model.builtin_params = {
        "cells": n, "h": h, "kappa": kappa, "brauer": list(brauer),
        "amps": amps, "tau": tau, "linear": bool(linear),
        "probe_cells": model.probe_cells.tolist(),
    }
    return model


_BLOCK_FILES = {
    "m_c": "m_c.mtx",
    "k_c": "k_c.mtx",
    "k_cn": "k_cn.mtx",
    "k_n": "k_n.mtx",
    "source_pattern": "source_pattern.mtx",
}


def export_model(model: Model, directory) -> Path:
    """Write the five system blocks plus a JSON manifest to *directory*.

    The conducting stiffness is stored at the zero state; reloading a
    manifest without builtin parameters therefore yields a frozen-linear
    system.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    sys_ = model.system
    kc0 = sys_.kc_matrix(np.zeros(sys_.n_c))
    write_matrix_market(directory / _BLOCK_FILES["m_c"], sys_.mc,
                        symmetry="general")
    write_matrix_market(directory / _BLOCK_FILES["k_c"], kc0,
                        symmetry="symmetric")
    write_matrix_market(directory / _BLOCK_FILES["k_cn"], sys_.kcn,
                        symmetry="general")
    write_matrix_market(directory / _BLOCK_FILES["k_n"], sys_.kn,
                        symmetry="symmetric")
    write_dense_vector(directory / _BLOCK_FILES["source_pattern"],
                       model.pattern_n)
    manifest = {
        "format": "mqsolve-model",
        "version": 1,
        "blocks": {
            "m_c": {"file": _BLOCK_FILES["m_c"],
                    "shape": list(sys_.mc.shape)},
            "k_c": {"file": _BLOCK_FILES["k_c"], "shape": list(kc0.shape)},
            "k_cn": {"file": _BLOCK_FILES["k_cn"],
                     "shape": list(sys_.kcn.shape)},
            "k_n": {"file": _BLOCK_FILES["k_n"],
                    "shape": list(sys_.kn.shape)},
            "source_pattern": {"file": _BLOCK_FILES["source_pattern"],
                               "shape": [sys_.n_n]},
        },
        "partition": {
            "n_conducting": int(sys_.n_c),
            "n_nonconducting": int(sys_.n_n),
            "conducting_edges":
                model.interior_edges[model.conducting].tolist(),
            "nonconducting_edges":
                model.interior_edges[model.nonconducting].tolist(),
        },
        "waveform": {"kind": "exponential_ramp", "tau": model.tau},
        "builtin": model.builtin_params,
    }
    with open(directory / "manifest.json", "w") as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return directory / "manifest.json"
