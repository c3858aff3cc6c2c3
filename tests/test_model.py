"""Grid assembly, material law, gauge structure, and the field probe."""

import json

import numpy as np
import pytest
import scipy.sparse as sp

from mqsolve import (CONDUCTOR, VACUUM_RELUCTIVITY, Excitation, GridSpec,
                     Material, ModelError, PcgConfig, Preconditioner,
                     air_material, assemble, builtin_model, default_steel,
                     export_model, gradient_incidence, pcg_solve, probe_b,
                     read_matrix_market, reluctivity)
from mqsolve.model import _Topology

STEEL_NU0 = 49.4 + 520.6
STEEL_DNU0 = 49.4 * 1.46


def interior_gradient_field(model):
    """Discrete gradient supported on the nonconducting interior unknowns.

    A potential that vanishes on every boundary-plane node and on the nodes
    of conducting edges produces a gradient with zero entries on boundary and
    conducting edges; its nonconducting restriction spans the gauge nullspace.
    """
    grid = model.grid
    g_inc = gradient_incidence(grid)
    n_edges = g_inc.shape[0]
    rng = np.random.default_rng(7)
    phi = rng.standard_normal(g_inc.shape[1])
    boundary_edges = np.setdiff1d(np.arange(n_edges), model.interior_edges)
    for rows in (boundary_edges,
                 model.interior_edges[model.conducting]):
        phi[np.unique(g_inc[rows].indices)] = 0.0
    edge_field = g_inc @ phi
    return edge_field[model.interior_edges], phi


def test_reluctivity_air_is_constant():
    nu, dnu = reluctivity(air_material(), 0.7)
    assert nu == VACUUM_RELUCTIVITY
    assert dnu == 0.0


def test_reluctivity_steel_at_zero():
    nu, dnu = reluctivity(default_steel(), 0.0)
    assert nu == pytest.approx(STEEL_NU0, rel=1e-15)
    assert nu == 570.0
    assert dnu == pytest.approx(STEEL_DNU0, rel=1e-15)


def test_reluctivity_derivative_matches_fd():
    steel = default_steel()
    b2, eps = 1.5, 1e-6
    _, dnu = reluctivity(steel, b2)
    hi, _ = reluctivity(steel, b2 + eps)
    lo, _ = reluctivity(steel, b2 - eps)
    assert dnu == pytest.approx((hi - lo) / (2 * eps), rel=1e-8)


def test_reluctivity_rejects_negative_and_handles_arrays():
    steel = default_steel()
    with pytest.raises(ModelError):
        reluctivity(steel, -1e-12)
    b2 = np.array([0.0, 0.5, 2.0])
    nu, dnu = reluctivity(steel, b2)
    assert nu.shape == dnu.shape == (3,)
    for i, v in enumerate(b2):
        nu_s, dnu_s = reluctivity(steel, float(v))
        assert nu[i] == nu_s
        assert dnu[i] == dnu_s
    assert np.all(np.diff(nu) > 0)


def test_material_validation():
    with pytest.raises(ModelError):
        Material(kappa=-1.0)
    with pytest.raises(ModelError):
        Material(brauer_k1=-0.1)
    with pytest.raises(ModelError):
        Material(brauer_k3=0.0)
    assert air_material().is_linear
    assert not default_steel().is_linear


def test_gridspec_validation():
    good = np.zeros((2, 2, 2), dtype=np.int8)
    with pytest.raises(ModelError):
        GridSpec(1, 2, 2, 1e-3, np.zeros((1, 2, 2), dtype=np.int8))
    with pytest.raises(ModelError):
        GridSpec(2, 2, 2, 0.0, good)
    with pytest.raises(ModelError):
        GridSpec(2, 2, 2, 1e-3, np.zeros((3, 2, 2), dtype=np.int8))
    bad_ids = good.copy()
    bad_ids[0, 0, 0] = 9
    with pytest.raises(ModelError):
        GridSpec(2, 2, 2, 1e-3, bad_ids)
    grid = GridSpec(2, 2, 2, 1e-3, good)
    with pytest.raises(ValueError):
        grid.material[0, 0, 0] = CONDUCTOR


def test_excitation_validation():
    with pytest.raises(ModelError):
        Excitation(2, 2, 0, 1, 1, amps=1.0)
    with pytest.raises(ModelError):
        Excitation(0, 1, 3, 2, 1, amps=1.0)
    with pytest.raises(ModelError):
        Excitation(0, 1, 0, 1, 1, amps=1.0, tau=0.0)


def test_curl_of_gradient_vanishes(builtin6):
    edge_field, phi = interior_gradient_field(builtin6)
    assert np.linalg.norm(phi) > 0
    curl = builtin6.curl_interior @ edge_field
    assert np.abs(curl).max() <= 1e-13 * np.abs(phi).max()


def test_corner_toy_conducting_block_hand_oracle(corner_toy):
    h = corner_toy.grid.h
    nu_a = VACUUM_RELUCTIVITY
    m = 0.5 * (STEEL_NU0 + nu_a)
    d = STEEL_NU0 + 3.0 * nu_a
    expected = np.array([[d, -m, -m], [-m, d, -m], [-m, -m, d]]) / h
    kc0 = corner_toy.system.kc_matrix(np.zeros(3)).to_dense()
    assert corner_toy.n_c == 3
    assert np.allclose(kc0, expected, rtol=1e-12, atol=0.0)


def test_corner_toy_mass_is_quarter_cell_average(corner_toy):
    # one conducting cell among the four neighbors of each conducting edge
    expected = 5e6 * 5e-3 / 4.0
    mc = corner_toy.system.mc
    assert mc.is_diagonal()
    assert np.array_equal(mc.diagonal(), np.full(3, expected))


def test_corner_toy_partition_sizes(corner_toy):
    # 4^3 cells: 3 * 4 * 3 * 3 interior edges, three of them conducting
    assert corner_toy.n_c == 3
    assert corner_toy.n_n == 105


def test_gauge_nullspace_of_assembled_blocks(builtin6):
    model = builtin6
    g_int, _ = interior_gradient_field(model)
    g_n = g_int[model.nonconducting]
    assert np.linalg.norm(g_n) > 0
    assert np.abs(g_int[model.conducting]).max() == 0.0
    kn = model.system.kn
    kn_scale = np.abs(kn.values).max()
    norm_g = np.linalg.norm(g_n)
    assert np.linalg.norm(kn @ g_n) <= 1e-12 * kn_scale * norm_g
    kcn = model.system.kcn
    kcn_scale = np.abs(kcn.values).max()
    assert np.linalg.norm(kcn @ g_n) <= 1e-12 * kcn_scale * norm_g
    assert abs(model.pattern_n @ g_n) <= (
        1e-12 * np.linalg.norm(model.pattern_n) * norm_g)


def test_singular_block_solves_consistent_rhs(builtin6, rng):
    kn = builtin6.system.kn
    x = rng.standard_normal(builtin6.n_n)
    rhs = kn @ x
    config = PcgConfig(rel_tol=1e-8, max_iter=builtin6.n_n,
                       preconditioner=Preconditioner.JACOBI)
    _, report = pcg_solve(kn, rhs, config=config)
    assert report.converged


def test_corner_toy_dense_gauge_structure(corner_toy):
    kn = corner_toy.system.kn.to_dense()
    assert np.allclose(kn, kn.T, rtol=0.0, atol=1e-12 * np.abs(kn).max())
    svals = np.linalg.svd(kn, compute_uv=False)
    rank = int(np.sum(svals > 1e-8 * svals[0]))
    # gradients of the 27 interior node potentials, one pinned by the
    # conducting edges meeting at the corner cell node
    assert rank == corner_toy.n_n - 26
    pattern = corner_toy.pattern_n
    pinv = np.linalg.pinv(kn)
    residual = pattern - kn @ (pinv @ pattern)
    assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(pattern)


def test_probe_zero_state_is_zero(builtin6):
    assert builtin6.probe(np.zeros(builtin6.n_c),
                          np.zeros(builtin6.n_n)) == 0.0


def test_probe_mean_over_cells(builtin6, rng):
    a = rng.standard_normal(builtin6.interior_edges.size) * 1e-6
    cells = builtin6.probe_cells[:2]
    merged = probe_b(builtin6, a, cells)
    singles = [probe_b(builtin6, a, [c]) for c in cells]
    assert merged == pytest.approx(np.mean(singles), rel=1e-14)


def test_probe_validation(builtin6, rng):
    a = np.zeros(builtin6.interior_edges.size)
    with pytest.raises(ModelError):
        probe_b(builtin6, a, [])
    with pytest.raises(ModelError):
        probe_b(builtin6, a, [builtin6.grid.n_cells])
    with pytest.raises(ModelError):
        probe_b(builtin6, a, [-1])


def test_assemble_rejects_nonconductive_material():
    material = np.zeros((4, 4, 4), dtype=np.int8)
    material[0, 0, 0] = CONDUCTOR
    grid = GridSpec(4, 4, 4, 1e-3, material)
    exc = Excitation(1, 3, 1, 3, 2, amps=1.0)
    with pytest.raises(ModelError):
        assemble(grid, air_material(), exc)


def test_assemble_rejects_empty_conductor_region():
    grid = GridSpec(4, 4, 4, 1e-3, np.zeros((4, 4, 4), dtype=np.int8))
    exc = Excitation(1, 3, 1, 3, 2, amps=1.0)
    with pytest.raises(ModelError):
        assemble(grid, default_steel(), exc)


def test_assemble_rejects_disconnected_conductor():
    material = np.zeros((4, 4, 4), dtype=np.int8)
    material[0, 0, 0] = CONDUCTOR
    material[3, 3, 3] = CONDUCTOR
    grid = GridSpec(4, 4, 4, 1e-3, material)
    exc = Excitation(1, 3, 1, 3, 2, amps=1.0)
    with pytest.raises(ModelError):
        assemble(grid, default_steel(), exc)


def test_assemble_rejects_boundary_loop():
    material = np.zeros((4, 4, 4), dtype=np.int8)
    material[0, 0, 0] = CONDUCTOR
    grid = GridSpec(4, 4, 4, 1e-3, material)
    with pytest.raises(ModelError):
        assemble(grid, default_steel(), Excitation(1, 3, 1, 3, 0, amps=1.0))


def test_assemble_rejects_loop_through_conductor():
    material = np.zeros((4, 4, 4), dtype=np.int8)
    material[1, 1, 1] = CONDUCTOR
    grid = GridSpec(4, 4, 4, 1e-3, material)
    with pytest.raises(ModelError):
        assemble(grid, default_steel(), Excitation(1, 3, 1, 3, 2, amps=1.0))


def test_export_writes_blocks_and_manifest(corner_toy, tmp_path):
    manifest_path = export_model(corner_toy, tmp_path / "model")
    manifest = json.loads(manifest_path.read_text())
    assert manifest["format"] == "mqsolve-model"
    assert manifest["partition"]["n_conducting"] == 3
    assert manifest["waveform"]["kind"] == "exponential_ramp"
    assert manifest["builtin"] is None
    kn_back = read_matrix_market(manifest_path.parent / "k_n.mtx")
    assert np.array_equal(kn_back.to_dense(),
                          corner_toy.system.kn.to_dense())
    kc_back = read_matrix_market(manifest_path.parent / "k_c.mtx")
    kc0 = corner_toy.system.kc_matrix(np.zeros(3))
    assert np.array_equal(kc_back.to_dense(), kc0.to_dense())


def test_builtin_model_size_guard():
    with pytest.raises(ModelError):
        builtin_model(cells=4)
    with pytest.raises(ModelError):
        builtin_model(cells=5)


def test_builtin_model_partition_sizes(builtin6):
    assert builtin6.n_c == 96
    assert builtin6.n_n == 354
    assert builtin6.builtin_params["cells"] == 6


def test_builtin_linear_freezes_conducting_block(builtin6_linear, rng):
    system = builtin6_linear.system
    zero = system.kc_matrix(np.zeros(system.n_c)).to_dense()
    other = system.kc_matrix(rng.standard_normal(system.n_c) * 2e-6)
    assert np.array_equal(other.to_dense(), zero)
    assert builtin6_linear.conductor.is_linear


def test_builtin_nonlinear_block_responds_to_state(builtin6, rng):
    system = builtin6.system
    zero = system.kc_matrix(np.zeros(system.n_c)).to_dense()
    other = system.kc_matrix(rng.standard_normal(system.n_c) * 2e-6)
    assert not np.array_equal(other.to_dense(), zero)


def spgemm_kc_jacobian(model, state):
    """d/da [K_c(a) a] by sparse products: C^T diag(w/h) C + C^T H C."""
    grid, h = model.grid, model.grid.h
    c = model.curl_interior[:, model.conducting].tocsr()
    phi = c @ state
    cond = model.conductor_cells
    faces6 = model.cell_faces[cond]
    per = phi[faces6]
    b2 = ((per[:, 0] ** 2 + per[:, 1] ** 2) + (per[:, 2] ** 2 + per[:, 3] ** 2)
          + (per[:, 4] ** 2 + per[:, 5] ** 2)) / (2.0 * h ** 4)
    nu_c, dnu_c = reluctivity(model.conductor, b2)
    nu_cells = np.full(grid.n_cells, model.air_reluctivity)
    nu_cells[cond] = nu_c
    w = _Topology(grid).face_cell_average() @ nu_cells
    scale = dnu_c / (2.0 * h ** 5)
    vals = (scale[:, None, None] * per[:, :, None] * per[:, None, :]).ravel()
    rows = np.repeat(faces6, 6, axis=1).ravel()
    cols = np.tile(faces6, (1, 6)).ravel()
    hmat = sp.coo_matrix((vals, (rows, cols)), shape=(c.shape[0],) * 2)
    return (c.T @ sp.diags(w / h) @ c + c.T @ hmat.tocsr() @ c).toarray()


def saturated_state(model, b2_max=9.0):
    """Random conducting state scaled to B^2 = b2_max in its worst cell."""
    state = np.random.default_rng(3).standard_normal(model.n_c)
    b2 = model.cell_b2(model.full_interior(state, np.zeros(model.n_n)))
    return state * np.sqrt(b2_max / b2[model.conductor_cells].max())


@pytest.mark.parametrize("name", ["builtin6", "builtin6_linear", "corner_toy"])
def test_kc_jacobian_matches_spgemm_on_a_fixed_pattern(name, request):
    model = request.getfixturevalue(name)
    system = model.system
    zero = np.zeros(model.n_c)
    saturated = saturated_state(model)
    jacobians = [system.kc_jacobian(zero), system.kc_jacobian(saturated)]
    # one pattern for every state: the index arrays are shared, not rebuilt
    assert jacobians[1].row_ptr is jacobians[0].row_ptr
    assert jacobians[1].col_idx is jacobians[0].col_idx
    for state, jac in zip((zero, saturated), jacobians):
        reference = spgemm_kc_jacobian(model, state)
        gap = np.abs(jac.to_dense() - reference).max()
        assert gap <= 1e-13 * np.abs(reference).max()
    if not model.conductor.is_linear:
        b2 = model.cell_b2(model.full_interior(saturated, np.zeros(model.n_n)))
        assert b2[model.conductor_cells].max() == pytest.approx(9.0)
        assert not np.allclose(jacobians[1].to_dense(),
                               jacobians[0].to_dense())
