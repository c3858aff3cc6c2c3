"""Grid assembly, material law, gauge structure, and the field probe."""

import json
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mqsolve import (CONDUCTOR, VACUUM_RELUCTIVITY, CsrMatrix, Excitation,
                     ExplicitConfig, GridSpec, Material, ModelError,
                     NewtonFailureError, NonFiniteError, PcgConfig,
                     SchurOperator, StepFailureError, air_material, assemble,
                     build_preconditioner, builtin_model, default_steel,
                     explicit_euler_step, export_model, gradient_incidence,
                     implicit_euler_step, pcg_solve, probe_b,
                     read_matrix_market, reluctivity)
from mqsolve.model import (_b2, _face_weights, _fold_jacobian_maps,
                           _force_operators, _jacobian_maps, _rows,
                           _Topology)
from mqsolve.bench import _model_checksum
from mqsolve.sparse import _matvec, spmv, spmv_transpose

STEEL_NU0 = 49.4 + 520.6
STEEL_DNU0 = 49.4 * 1.46


@pytest.fixture(scope="module")
def builtin8():
    return builtin_model(cells=8)


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


def test_kc_apply_saturates_to_inf_without_a_warning(builtin6):
    # k2 B^2 above 709 overflows exp; kc_apply silences only that warning
    system = builtin6.system
    a = 1.5e-4 * np.random.default_rng(1).standard_normal(system.n_c)
    b2 = builtin6.cell_b2(builtin6.full_interior(a, np.zeros(system.n_n)))
    assert (builtin6.conductor.brauer_k2
            * b2[builtin6.conductor_cells]).max() > 709.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        force = system.kc_apply(a)
        below = system.kc_apply(0.5 * a)
    assert np.isinf(force).any()
    assert np.isfinite(below).all()


def test_material_validation():
    with pytest.raises(ModelError):
        Material(kappa=-1.0)
    with pytest.raises(ModelError):
        Material(brauer_k1=-0.1)
    with pytest.raises(ModelError):
        Material(brauer_k3=0.0)
    for bad in (np.nan, np.inf):
        for field in ("kappa", "brauer_k1", "brauer_k2", "brauer_k3"):
            with pytest.raises(ModelError):
                Material(**{field: bad})
    assert air_material().is_linear
    assert not default_steel().is_linear


def test_gridspec_validation():
    good = np.zeros((2, 2, 2), dtype=np.int8)
    with pytest.raises(ModelError):
        GridSpec(1, 2, 2, 1e-3, np.zeros((1, 2, 2), dtype=np.int8))
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ModelError):
            GridSpec(2, 2, 2, bad, good)
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
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ModelError):
            Excitation(0, 1, 0, 1, 1, amps=bad)
        with pytest.raises(ModelError):
            Excitation(0, 1, 0, 1, 1, amps=1.0, tau=bad)


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
    config = PcgConfig(rel_tol=1e-8, max_iter=builtin6.n_n)
    _, report = pcg_solve(kn, rhs, config=config,
                          preconditioner=build_preconditioner(kn))
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


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), exponent=st.floats(-9.0, 0.0))
def test_the_probe_reads_its_own_cells_bit_for_bit(builtin6, builtin8, seed,
                                                    exponent):
    # Model.probe forms only the probe cells' face circulations: the same
    # rows and sums as probe_b's whole interior curl
    rng = np.random.default_rng(seed)
    for model in (builtin6, builtin8):
        a_c = rng.standard_normal(model.n_c) * 10.0 ** exponent
        a_n = rng.standard_normal(model.n_n) * 10.0 ** exponent
        full = model.full_interior(a_c, a_n)
        got = model.probe(a_c, a_n)
        assert type(got) is float
        assert (np.float64(got).tobytes()
                == np.float64(probe_b(model, full)).tobytes())
        # explicit cells take probe_b itself
        cells = model.conductor_cells[::3]
        assert model.probe(a_c, a_n, cells) == probe_b(model, full, cells)


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


def test_kc_apply_is_the_force_of_kc_matrix(builtin6, corner_toy,
                                            make_linear_system, rng):
    linear, _ = make_linear_system(rng, n_c=4, n_n=6)
    # (system, state scale, whether the scale saturates the conductor)
    cases = [(builtin6.system, 2e-6, False), (builtin6.system, 2e-5, True),
             (corner_toy.system, 2e-6, False),
             (corner_toy.system, 2e-4, True), (linear, 1.0, False)]
    for system, scale, saturated in cases:
        state = rng.standard_normal(system.n_c) * scale
        kc = system.kc_matrix(state).to_dense()
        kc0 = system.kc_matrix(np.zeros(system.n_c)).to_dense()
        assert (np.abs(kc).max() > 10 * np.abs(kc0).max()) == saturated
        # rounding of the products, bounded entrywise by |K_c| |a|
        bound = 1e-14 * (np.abs(kc) @ np.abs(state)).max()
        assert np.allclose(system.kc_apply(state),
                           system.kc_matrix(state) @ state, rtol=0.0,
                           atol=bound)


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
    nu_cells = np.full(grid.n_cells, VACUUM_RELUCTIVITY)
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


def all_faces_operators(model):
    """The curl, averaging and folded force operators on every face.

    Returns ``(c, face_by_cond, base, faces6, (q, a1, w0))`` built as the
    model builds them, from the rows of all faces rather than the force
    faces only.
    """
    c = CsrMatrix.from_scipy(model.curl_interior[:, model.conducting])
    average = _Topology(model.grid).face_cell_average()
    cond = model.conductor_cells
    face_by_cond = CsrMatrix.from_scipy(average[:, cond])
    in_conductor = np.isin(np.arange(model.grid.n_cells), cond)
    base = average @ np.where(in_conductor, 0.0, VACUUM_RELUCTIVITY)
    faces6 = model.cell_faces[cond]
    folded = _force_operators(face_by_cond, base, faces6, model.conductor,
                              model.grid.h)
    return c, face_by_cond, base, faces6, folded


def all_faces_force(model):
    """kc_apply, kc_matrix and kc_jacobian on every face of the grid.

    The same folded operators and arithmetic as the model, built on the
    rows of ``curl_interior[:, conducting]`` for all faces rather than the
    force faces only; the dropped rows are empty, so the results must agree
    bit for bit. The linear law takes the general formula too: its k1 and
    k2 are zero, so the weights are w0 plus zeros.
    """
    c, _, _, faces6, (q, a1, w0) = all_faces_operators(model)
    pattern, weight_a1, weight_w0, block_map = _fold_jacobian_maps(
        *_jacobian_maps(c, faces6), a1, w0, model.conductor, model.grid.h)

    def kc_apply(state):
        phi = spmv(c, state)
        return spmv_transpose(c, _face_weights(phi, q, a1, w0)[0] * phi)

    def kc_matrix(state):
        w, _ = _face_weights(spmv(c, state), q, a1, w0)
        scipy_c = c.to_scipy()
        return CsrMatrix.from_scipy(scipy_c.T @ sp.diags(w) @ scipy_c)

    def kc_jacobian(state):
        phi = spmv(c, state)
        values, grow = _face_weights(phi, q, weight_a1, weight_w0)
        per = phi[faces6]
        blocks = (per * grow[:, None])[:, :, None] * per[:, None, :]
        return pattern.with_values(
            _matvec(block_map, blocks.ravel(), out=values))

    return kc_apply, kc_matrix, kc_jacobian


def scaled_to(model, direction, x_max):
    """*direction* scaled so that k2 B^2 peaks at *x_max* over the cells."""
    b2 = model.cell_b2(model.full_interior(direction, np.zeros(model.n_n)))
    peak = model.conductor.brauer_k2 * b2[model.conductor_cells].max()
    return direction * np.sqrt(x_max / peak)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), x_max=st.one_of(
    st.just(0.0), st.floats(0.0, 1.0), st.floats(1.0, 700.0)))
def test_folded_weights_match_the_pairwise_brauer_form(builtin6, corner_toy,
                                                        seed, x_max):
    # from the zero state to deep saturation: x = k2 B^2 up to 700, where
    # exp's condition number x sets the rounding of either form
    for model in (builtin6, corner_toy):
        c, face_by_cond, base, faces6, (q, a1, w0) = \
            all_faces_operators(model)
        k1, k2, k3 = (model.conductor.brauer_k1, model.conductor.brauer_k2,
                      model.conductor.brauer_k3)
        direction = np.random.default_rng(seed).standard_normal(model.n_c)
        phi = spmv(c, scaled_to(model, direction, x_max))
        x = k2 * _b2(phi[faces6], model.grid.h)
        expected = ((spmv(face_by_cond, k1 * np.exp(x) + k3) + base)
                    / model.grid.h)
        got, grow = _face_weights(phi, q, a1, w0)
        # each face's bound follows the largest x of its conductor cells
        adjacent = face_by_cond.to_dense() > 0
        x_face = np.where(adjacent, x, 0.0).max(axis=1, initial=0.0)
        eps = np.finfo(np.float64).eps
        assert (np.abs(got - expected)
                <= 8 * eps * (1 + x_face) * expected).all()
        assert np.allclose(grow, np.exp(x), rtol=8 * eps * (1 + x.max()),
                           atol=0.0)


@pytest.mark.parametrize("scale", [1.5e-4, 1e150, 1e160])
def test_a_state_whose_b2_overflows_fails_typed_without_a_warning(builtin6,
                                                                   scale):
    # 1.5e-4 overflows exp alone, 1e150 the sum of the squares and 1e160
    # the squares themselves; each ends in the step's typed error
    system = builtin6.system
    state = scale * np.random.default_rng(1).standard_normal(system.n_c)
    op = SchurOperator(system, ExplicitConfig())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not np.isfinite(system.kc_apply(state)).all()
        with pytest.raises(NonFiniteError):
            system.kc_matrix(state)
        with pytest.raises(NonFiniteError):
            system.kc_jacobian(state)
        with pytest.raises(StepFailureError,
                           match="non-finite conducting state at step 3"):
            explicit_euler_step((state, 0.0), 1e-5, op, step_index=3)
        with pytest.raises(NewtonFailureError, match="non-finite residual"):
            implicit_euler_step((state, np.zeros(system.n_n), 0.0), 1e-3,
                                system)


@pytest.mark.parametrize("name", ["builtin6_linear", "corner_toy_linear"])
def test_the_linear_law_keeps_its_state_free_weights_bit_for_bit(name,
                                                                 request):
    # w0 is the weights the linear law had before the constants were
    # folded: the reluctivity k3 averaged onto the faces, plus the
    # non-conductor weights, over h; its force and Jacobian follow from it
    model = request.getfixturevalue(name)
    system = model.system
    c, face_by_cond, base, faces6, (_, _, w0) = all_faces_operators(model)
    nu, _ = reluctivity(model.conductor, np.zeros(faces6.shape[0]))
    weights = spmv(face_by_cond, nu)
    weights += base
    weights /= model.grid.h
    assert w0.tobytes() == weights.tobytes()
    pattern, weight_map, _ = _jacobian_maps(c, faces6)
    for state in (np.zeros(model.n_c), saturated_state(model)):
        phi = spmv(c, state)
        assert (system.kc_apply(state).tobytes()
                == spmv_transpose(c, weights * phi).tobytes())
        assert_same_csr(system.kc_jacobian(state),
                        pattern.with_values(spmv(weight_map, weights)))


def assert_same_csr(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.row_ptr, b.row_ptr)
    assert np.array_equal(a.col_idx, b.col_idx)
    assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("name", ["builtin6", "builtin6_linear", "corner_toy"])
def test_force_faces_give_the_all_faces_force_bit_for_bit(name, request):
    # corner_toy's conductor cell lies on the PEC boundary: three of its
    # faces keep no edge, yet enter its B^2
    model = request.getfixturevalue(name)
    system = model.system
    kc_apply, kc_matrix, kc_jacobian = all_faces_force(model)
    for state in (np.zeros(model.n_c), saturated_state(model)):
        assert np.array_equal(system.kc_apply(state), kc_apply(state))
        assert_same_csr(system.kc_matrix(state), kc_matrix(state))
        assert_same_csr(system.kc_jacobian(state), kc_jacobian(state))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), x_max=st.one_of(
    st.just(0.0), st.floats(0.0, 1.0), st.floats(1.0, 700.0)))
def test_kc_matrix_is_the_spgemm_bit_for_bit(builtin6, builtin6_linear,
                                             corner_toy, seed, x_max):
    # kc_matrix fills a fixed pattern from a map of the face weights; the
    # SpGEMM C^T diag(w) C of all_faces_force is the oracle, up to deep
    # saturation, where both overflow. The linear law has no k2 to scale
    # by, so its states take builtin6's: the same grid and conductor.
    for model, scale_by in ((builtin6, builtin6), (builtin6_linear, builtin6),
                            (corner_toy, corner_toy)):
        direction = np.random.default_rng(seed).standard_normal(model.n_c)
        state = scaled_to(scale_by, direction, x_max)
        spgemm = all_faces_force(model)[1]
        try:
            expected = spgemm(state)
        except NonFiniteError:
            with pytest.raises(NonFiniteError):
                model.system.kc_matrix(state)
            continue
        got = model.system.kc_matrix(state)
        assert_same_csr(got, expected)
        assert got.values.tobytes() == expected.values.tobytes()


def test_the_model_checksum_keeps_its_digest(builtin8):
    # the digest of the 8-cell builtin model while kc_matrix was a SpGEMM
    assert _model_checksum(builtin8.system) == (
        "1ebd76069d03eafda6d719cf74c7ab7f8f35ee7527c7ab27be6cd0ae82b7c0e2")


def test_force_rows_refuse_to_drop_a_stored_entry():
    m = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]]))
    kept = _rows(m, np.array([0, 2]))
    assert np.array_equal(kept.to_dense(), [[1.0, 0.0], [0.0, 2.0]])
    with pytest.raises(ValueError, match="not empty"):
        _rows(m, np.array([0, 1]))


@settings(max_examples=200, deadline=None)
@given(per=arrays(np.float64, st.tuples(st.integers(0, 30), st.just(6)),
                  elements=st.floats(allow_nan=False, allow_subnormal=True,
                                     width=64)),
       h=st.floats(1e-4, 1.0))
def test_b2_keeps_the_pairwise_sum_bit_for_bit(per, h):
    # the form the traces were recorded with; overflow to inf included
    with np.errstate(over="ignore", invalid="ignore"):
        expected = ((per[:, 0] ** 2 + per[:, 1] ** 2)
                    + (per[:, 2] ** 2 + per[:, 3] ** 2)
                    + (per[:, 4] ** 2 + per[:, 5] ** 2)) / (2.0 * h ** 4)
        got = _b2(per, h)
    assert got.tobytes() == expected.tobytes()
