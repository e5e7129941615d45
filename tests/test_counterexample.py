import importlib.resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qjoint as q
from qjoint import errors
from qjoint.counterexample import (
    REGRESSION_SEEDS,
    _constraint_residuals,
    _penalized,
    _projector_and_tangents,
    _search_terms,
    _unpack,
    block_swap_defect,
    parametrize_projector,
    permutation_defect_spectrum,
)
from qjoint.linalg import haar_unitary
from qjoint.serialize import canonical_dumps, instance_to_wire


def test_bundled_instance_shape(appendix):
    assert appendix.dim == 8
    assert appendix.ranks == (1, 2, 3, 2)
    assert len(appendix.projectors) == 4
    assert abs(np.linalg.norm(appendix.state) - 1.0) < 1e-6
    assert appendix.state[0] == pytest.approx(-0.135381 - 0.0503468j, abs=1e-12)


def test_bundled_data_file_matches_loader(appendix):
    """The shipped JSON is exactly the canonical serialization of the
    built-in arrays; any drift in either is an error."""
    raw = (
        importlib.resources.files("qjoint") / "data" / "appendix_instance.json"
    ).read_bytes()
    assert raw == canonical_dumps(instance_to_wire(appendix)).encode()


def test_verify_instance_golden_numbers(appendix):
    rep = q.verify_instance(appendix)
    assert rep.passed
    d = rep.details
    assert d["is_counterexample"] is True
    assert d["block_swap_defect"] == pytest.approx(0.2500000021387016, abs=1e-12)
    assert d["worst_pairwise_defect"] == pytest.approx(9.681623618288531e-07, abs=1e-15)
    assert d["worst_pairwise_defect"] < 1e-6
    assert d["worst_defect"] == pytest.approx(0.25000059321074647, abs=1e-12)
    assert d["worst_sigma"] == [2, 1, 3, 4]
    assert d["state_norm_deviation"] < 1e-6
    assert d["eigenvector_consistency"] == [0.0, 0.0, 0.0, 0.0]
    assert len(d["defect_spectrum"]) == 24


def test_verify_instance_expected_defect_gate(appendix):
    ok = q.verify_instance(appendix, expected_defect=0.25)
    assert ok.passed
    bad = q.verify_instance(appendix, expected_defect=0.5)
    assert not bad.passed


def test_complemented_instance_also_order_dependent(appendix):
    comp = q.complemented_instance(appendix)
    assert comp.ranks == (7, 6, 5, 6)
    rep = q.verify_instance(comp)
    assert rep.passed
    assert rep.details["block_swap_defect"] == pytest.approx(0.2500003251690684, abs=1e-12)


def test_instance_validation_rejects_bad_state(appendix):
    with pytest.raises(ValueError):
        q.CounterexampleInstance(
            dim=8, state=appendix.state * 1.01, projectors=appendix.projectors
        )


def test_instance_validation_rejects_bad_projector(appendix):
    projs = [p.copy() for p in appendix.projectors]
    projs[2] = projs[2] + 0.01 * np.eye(8)
    with pytest.raises(ValueError):
        q.CounterexampleInstance(dim=8, state=appendix.state, projectors=projs)


def test_instance_validation_rejects_wrong_eigenvectors(appendix):
    vs = [list(v) for v in appendix.eigenvector_form]
    vs[0] = [vs[0][0] * 2.0]
    with pytest.raises(ValueError):
        q.CounterexampleInstance(
            dim=8,
            state=appendix.state,
            projectors=appendix.projectors,
            eigenvector_form=vs,
        )


def test_block_swap_defect_matches_manual_products(appendix):
    projs = appendix.projectors
    phi = appendix.state
    a = projs[0] @ (projs[1] @ (projs[2] @ (projs[3] @ phi)))
    b = projs[2] @ (projs[3] @ (projs[0] @ (projs[1] @ phi)))
    assert block_swap_defect(projs, phi) == pytest.approx(
        float(np.linalg.norm(a - b)), abs=1e-15
    )


def test_defect_spectrum_identity_is_zero(appendix):
    spectrum = permutation_defect_spectrum(appendix.projectors, appendix.state)
    by_sigma = {tuple(e["sigma"]): e["defect"] for e in spectrum}
    assert by_sigma[(1, 2, 3, 4)] == 0.0
    assert len(by_sigma) == 24
    assert max(by_sigma.values()) > 0.24


def test_commuting_projectors_have_no_defect():
    projs = [np.diag([1.0, 0.0, 1.0, 0.0]), np.diag([1.0, 1.0, 0.0, 0.0])]
    projs = [p.astype(complex) for p in projs]
    phi = np.full(4, 0.5, dtype=complex)
    assert block_swap_defect(projs, phi) < 1e-15
    spectrum = permutation_defect_spectrum(projs, phi)
    assert max(e["defect"] for e in spectrum) < 1e-15


def test_parametrize_projector_zero_params_is_coordinate_projector():
    n_params = 16
    p = parametrize_projector(np.zeros(n_params), dim=4, rank=2)
    assert np.abs(p - np.diag([1.0, 1.0, 0.0, 0.0])).max() < 1e-12


@pytest.mark.parametrize("dim,rank", [(3, 1), (4, 2), (5, 4)])
def test_parametrize_projector_always_valid(dim, rank):
    rng = np.random.default_rng(dim * 10 + rank)
    for _ in range(5):
        params = rng.normal(size=dim * dim)
        p = parametrize_projector(params, dim=dim, rank=rank)
        assert np.abs(p @ p - p).max() < 1e-12
        assert np.abs(p - p.conj().T).max() < 1e-13
        assert float(np.trace(p).real) == pytest.approx(rank, abs=1e-10)


def _central_differences(fn, x, h=1e-6):
    """Central differences of ``fn`` along every coordinate, as the last axis."""
    return np.stack([(fn(x + h * e) - fn(x - h * e)) / (2 * h) for e in np.eye(x.size)], axis=-1)


def _assert_matches(analytic, reference):
    """Within 1e-6 relative, with a 1e-8 floor for the finite differences'
    rounding where the reference vanishes."""
    error = float(np.linalg.norm(analytic - reference))
    assert error <= 1e-6 * float(np.linalg.norm(reference)) + 1e-8


def _assert_search_derivatives_match(x, config, weight=1.0):
    """Penalized gradient and residual Jacobian against central differences of
    the value path (``_unpack`` + ``_constraint_residuals``), to 1e-6 relative."""

    def penalized_reference(xv):
        phi, ps = _unpack(xv, config)[:2]
        c = _constraint_residuals(phi, ps)
        return -block_swap_defect(ps, phi) ** 2 + weight * float(c @ c)

    def residuals_reference(xv):
        return _constraint_residuals(*_unpack(xv, config)[:2])

    value, grad = _penalized(x, weight, config)
    _, _, residuals, jac = _search_terms(x, config)
    assert value == penalized_reference(x)
    assert np.array_equal(residuals, residuals_reference(x))
    _assert_matches(grad, _central_differences(penalized_reference, x))
    _assert_matches(jac, _central_differences(residuals_reference, x))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "dim,ranks", [(3, (1, 2, 1, 2)), (4, (1, 2, 3, 2)), (8, (1, 2, 3, 2))]
)
def test_search_derivatives_match_central_differences(dim, ranks, seed):
    config = q.SearchConfig(dim=dim, ranks=ranks)
    x = np.random.default_rng(seed).standard_normal(2 * dim + 4 * dim * dim)
    _assert_search_derivatives_match(x, config)


@pytest.mark.parametrize("zero_blocks", [(0, 1, 2, 3), (0, 2)])
def test_search_derivatives_at_degenerate_generators(zero_blocks):
    """All-zero generators, where every eigenvalue of H coincides.  With all
    four zero the projectors commute and the gradient vanishes, so the
    second case keeps two random generators to give it a nonzero value."""
    dim = 4
    x = np.random.default_rng(3).standard_normal(2 * dim + 4 * dim * dim)
    for k in zero_blocks:
        x[2 * dim + k * dim * dim : 2 * dim + (k + 1) * dim * dim] = 0.0
    _assert_search_derivatives_match(x, q.SearchConfig(dim=dim))


def _pack_generator(h):
    rows, cols = np.triu_indices(h.shape[0], 1)
    return np.concatenate([h.diagonal().real, h[rows, cols].real, h[rows, cols].imag])


def test_search_derivatives_at_near_degenerate_generators():
    """Generators with two eigenvalues 1e-9 apart."""
    rng = np.random.default_rng(4)
    dim = 4
    blocks = []
    for _ in range(4):
        u = haar_unitary(dim, rng)
        h = u @ np.diag([0.3, 0.3 + 1e-9, -0.8, 1.1]) @ u.conj().T
        h = (h + h.conj().T) / 2
        gap = np.diff(np.linalg.eigvalsh(h))
        assert gap.min() == pytest.approx(1e-9, rel=1e-3)
        blocks.append(_pack_generator(h))
    x = np.concatenate([rng.standard_normal(2 * dim), *blocks])
    _assert_search_derivatives_match(x, q.SearchConfig(dim=dim))


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(2, 6),
    rank_frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(0.0, 4.0),
)
def test_projector_tangent_matches_finite_difference(dim, rank_frac, seed, scale):
    rank = 1 + min(dim - 1, int(rank_frac * dim))
    rng = np.random.default_rng(seed)
    params = scale * rng.standard_normal(dim * dim)
    direction = rng.standard_normal(dim * dim)
    direction /= np.linalg.norm(direction)
    p, dp = _projector_and_tangents(params, dim, rank)
    assert np.array_equal(p, parametrize_projector(params, dim, rank))
    h = 1e-6
    fd = (
        parametrize_projector(params + h * direction, dim, rank)
        - parametrize_projector(params - h * direction, dim, rank)
    ) / (2 * h)
    _assert_matches(np.tensordot(direction, dp, axes=1), fd)


def test_search_config_validation():
    with pytest.raises(ValueError):
        q.SearchConfig(restarts=0)
    with pytest.raises(ValueError):
        q.SearchConfig(dim=4, n_projectors=2, ranks=(0, 1))
    with pytest.raises(ValueError):
        q.SearchConfig(dim=4, n_projectors=2, ranks=(5, 1))
    with pytest.raises(ValueError):
        q.SearchConfig(dim=4, n_projectors=4, ranks=(1, 2, 2))
    cfg = q.SearchConfig(dim=4, n_projectors=3, ranks=(1, 2, 2))
    assert cfg.n_projectors == 3


def test_search_two_dim_has_no_counterexample():
    """In dimension 2 a vanishing commutator on a state forces the pair to
    commute outright, so the search must report infeasibility rather than
    invent a defect."""
    cfg = q.SearchConfig(dim=2, n_projectors=2, ranks=(1, 1), seed=0, restarts=2)
    with pytest.raises(errors.NoFeasiblePointFound) as exc:
        q.search(cfg)
    assert "best objective" in str(exc.value)


def test_search_full_rank_projectors_infeasible():
    cfg = q.SearchConfig(dim=3, n_projectors=2, ranks=(3, 3), seed=1, restarts=1)
    with pytest.raises(errors.NoFeasiblePointFound):
        q.search(cfg)


def test_regression_seeds_are_declared():
    assert isinstance(REGRESSION_SEEDS, tuple)
    assert len(REGRESSION_SEEDS) >= 1
    assert all(isinstance(s, int) for s in REGRESSION_SEEDS)


def test_induced_family_roundtrip(appendix, appendix_family, appendix_states):
    assert appendix_family.n == 4
    assert appendix_family.dim == 8
    assert appendix_family.projective
    assert len(appendix_states.states) == 1
    rho = appendix_states.states[0]
    assert float(np.trace(rho).real) == pytest.approx(1.0, abs=1e-6)
    # state norm itself deviates by ~3e-7, so the overlap carries twice that
    overlap = float((appendix.state.conj() @ rho @ appendix.state).real)
    assert overlap == pytest.approx(1.0, abs=3e-6)
