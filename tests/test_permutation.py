import numpy as np
import pytest

import qjoint as q
from qjoint import errors
from qjoint.linalg import pure_density, pure_state_vector
from qjoint.permutation import (
    check_permutation,
    pairwise_commutation_defects,
    permutator_trace,
    vector_permutation_defect,
)
from qjoint.reporting import WITNESS_CAP
from conftest import make_coin_family, make_commuting_family, make_noncommuting_family

ZERO = np.array([1.0, 0.0], dtype=complex)
PROJ_0 = np.outer(ZERO, ZERO.conj())
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
PROJ_PLUS = np.outer(PLUS, PLUS.conj())


def test_permutator_trace_two_projector_example():
    """Measuring |0><0| then |+><+| on |0> succeeds with probability 1/2;
    the reversed order succeeds with probability 1/4."""
    rho = pure_density(ZERO)
    ops = [PROJ_0, PROJ_PLUS]
    d = permutator_trace(ops, rho, (2, 1))
    assert abs(d - 0.25) < 1e-15
    assert permutator_trace(ops, rho, (1, 2)) == 0.0


def test_vector_permutation_defect_two_projector_example():
    d = vector_permutation_defect([PROJ_0, PROJ_PLUS], ZERO, (2, 1))
    assert abs(d - 0.5) < 1e-15


def test_pairwise_commutation_defects_matrix():
    mat = pairwise_commutation_defects([PROJ_0, PROJ_PLUS], ZERO)
    assert mat.shape == (2, 2)
    assert mat[0, 0] == 0.0 and mat[1, 1] == 0.0
    assert abs(mat[0, 1] - 0.5) < 1e-15
    assert mat[0, 1] == mat[1, 0]


def test_check_permutation_rejects_non_permutations():
    assert check_permutation((2, 1, 3), 3) == (2, 1, 3)
    with pytest.raises(ValueError):
        check_permutation((1, 1), 2)
    with pytest.raises(ValueError):
        check_permutation((1, 2), 3)
    with pytest.raises(ValueError):
        check_permutation((0, 1), 2)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_commuting_family_is_fully_permutable(seed):
    rng = np.random.default_rng(seed)
    fam, states = make_commuting_family(rng, dim=4, n=3, n_states=2)
    report = q.is_fully_permutable(fam, states, tol=1e-9)
    assert report.passed
    assert report.worst_trace_defect < 1e-12
    assert report.witnesses == []
    assert report.witness_permutation is None  # a sigma below tol is rounding noise
    assert len(report.per_state) == 2


def test_coin_povm_is_fully_permutable():
    fam, states = make_coin_family(dim=2, n=2)
    report = q.is_fully_permutable(fam, states, tol=1e-9)
    assert report.passed
    assert report.mode == "trace"


@pytest.mark.parametrize("seed", [3, 4])
def test_noncommuting_family_fails_with_witness(seed):
    rng = np.random.default_rng(seed)
    fam, states = make_noncommuting_family(rng)
    report = q.is_fully_permutable(fam, states, tol=1e-7)
    assert not report.passed
    assert report.worst_trace_defect > 1e-7
    assert report.witness_permutation is not None
    assert len(report.witnesses) >= 1
    first = report.witnesses[0]
    assert abs(first["residual"] - report.worst_trace_defect) < 1e-15
    assert sorted(first["sigma"]) == list(range(1, fam.n + 1))


def test_witnesses_sorted_and_capped(appendix_family, appendix_states):
    report = q.is_fully_permutable(appendix_family, appendix_states, tol=1e-7)
    assert not report.passed
    residuals = [w["residual"] for w in report.witnesses]
    assert residuals == sorted(residuals, reverse=True)
    assert len(report.witnesses) <= WITNESS_CAP


def test_appendix_two_permutable_but_not_four(appendix_family, appendix_states):
    pair = q.is_t_permutable(appendix_family, appendix_states, t=2, tol=1e-6)
    assert pair.passed
    assert pair.mode == "vector"
    assert pair.witness_permutation is None
    full = q.is_t_permutable(appendix_family, appendix_states, t=4, tol=1e-6)
    assert not full.passed
    assert full.worst_vector_defect >= 0.24
    assert full.witness_permutation != (1, 2, 3, 4)


def test_appendix_complemented_two_permutable(appendix_family, appendix_states):
    report = q.complemented_t_permutable(appendix_family, appendix_states, t=2, tol=1e-6)
    assert report.passed
    # every pair, all four sign selections, all permutations of a pair
    assert report.s == 2


def test_trace_mode_agrees_on_commuting_family():
    rng = np.random.default_rng(11)
    fam, states = make_commuting_family(rng, dim=4, n=3, n_states=1)
    vec = q.is_t_permutable(fam, states, t=3, tol=1e-9)
    tr = q.is_t_permutable(fam, states, t=3, tol=1e-9, trace_mode=True)
    assert vec.mode == "vector" and tr.mode == "trace"
    assert vec.passed and tr.passed


def test_mixed_state_forces_trace_mode():
    rng = np.random.default_rng(13)
    fam, _ = make_commuting_family(rng, dim=4, n=2, n_states=1)
    mixed = np.eye(4, dtype=complex) / 4.0
    report = q.is_t_permutable(fam, [mixed], t=2, tol=1e-9)
    assert report.mode == "trace"
    assert report.passed


def test_complemented_requires_binary_projective():
    fam, states = make_coin_family(dim=2, n=2)
    with pytest.raises(errors.NotProjective):
        q.complemented_t_permutable(fam, states, t=2, tol=1e-9)


def test_t_out_of_range_rejected(appendix_family, appendix_states):
    with pytest.raises(ValueError):
        q.is_t_permutable(appendix_family, appendix_states, t=5, tol=1e-6)
    with pytest.raises(ValueError):
        q.is_t_permutable(appendix_family, appendix_states, t=0, tol=1e-6)


def test_pairwise_matrix_ties_out_with_two_permutability(appendix_family, appendix_states):
    """The t=2 vector scan is by construction the pairwise commutator matrix:
    its worst defect must equal the matrix maximum exactly, not just approximately."""
    phi = pure_state_vector(appendix_states.states[0])
    ops = [appendix_family.povm(i).root(1) for i in appendix_family.indices]
    mat = pairwise_commutation_defects(ops, phi)
    rep = q.is_t_permutable(appendix_family, appendix_states, t=2, tol=1e-6)
    assert rep.mode == "vector"
    assert rep.worst_vector_defect == mat.max()


def test_single_measurement_trivially_permutable():
    rng = np.random.default_rng(5)
    fam, states = make_commuting_family(rng, dim=3, n=1, n_states=1)
    rep = q.is_fully_permutable(fam, states, tol=1e-12)
    assert rep.passed
    assert rep.worst_trace_defect == 0.0
    assert rep.witnesses == []
