"""The shared orbit engine and the batched checks against the loop reference.

``reference_checks`` holds the loop implementations: one orbit enumeration
per call, one scalar trace per (operator, state) pair, every sequenced
ordering recomputed from the state.  On a fixed set of families (the bundled
instance, the coin family, and the first fifteen commuting and fifteen
order-dependent families of the seed-7 acceptance sweep) every engine-backed
report must match them.  The sequenced checks (sequential independence, the
full permutator scan) read branch traces in which a dead branch counts as 0,
so their residuals may differ from the reference by up to ``prob_tol``.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qjoint as q
import reference_checks
from qjoint.distribution import _OrbitEngine
from qjoint.linalg import CHECK_TOL, TAU_PROB, haar_unitary, pure_density, random_projector, random_state_vector
from qjoint.reporting import WITNESS_CAP
from conftest import make_coin_family, make_commuting_pvm_family
from reference_checks import PREMISES, reference_reports
from reference_checks import orbit_states as reference_orbit
from test_acceptance import _random_commuting_case, _random_nonpermutable_case

TIE = 1e-12


def _acceptance_families():
    """The first 15 commuting and 15 order-dependent families drawn by the
    seed-7 acceptance sweep, in its draw order."""
    rng = np.random.default_rng(7)
    commuting = [_random_commuting_case(rng) for _ in range(100)][:15]
    return commuting, [_random_nonpermutable_case(rng) for _ in range(15)]


COMMUTING, ORDER_DEPENDENT = _acceptance_families()


def _key(witness: dict) -> dict:
    return {k: v for k, v in witness.items() if k != "residual"}


def assert_matches_reference(family, states, **tols):
    engine = _OrbitEngine(family, states, tols.get("prob_tol", TAU_PROB))
    new = q.run_property_checks(family, states, **tols, _orbits=engine)
    ref = reference_reports(family, states, **tols)
    verdict = q.theorem2_verdict(family, states, **tols, precomputed=new, _orbits=engine)
    assert_sequenced_match(family, states, new["sequential_independence"], verdict["permutator_report"], **tols)
    for name in PREMISES:
        a, b = new[name], ref[name]
        assert a.passed == b.passed, name
        assert a.details.get("failure_count") == b.details.get("failure_count"), name
        assert abs(a.worst_residual - b.worst_residual) <= TIE, name
        for key in ("orbit_size", "branches", "dead_branches", "dedup_merges"):
            assert a.details.get(key) == b.details.get(key), (name, key)
        for key in ("operator_residual", "normalization_residual"):
            assert abs(a.details.get(key, 0.0) - b.details.get(key, 0.0)) <= TIE, (name, key)
        assert_witnesses_match(a, b)


def assert_sequenced_match(family, states, seq, perm, tol=CHECK_TOL, prob_tol=TAU_PROB):
    """The engine-backed sequenced reports against their loop references:
    identical verdicts, failure counts and witness keys, residuals within
    ``max(1e-12, prob_tol)``."""
    slack = max(TIE, prob_tol)
    ref_seq = reference_checks.check_sequential_independence(family, states, tol)
    ref_perm = reference_checks.is_fully_permutable(family, states.states, tol)
    assert seq.passed == ref_seq.passed
    assert seq.details["failure_count"] == ref_seq.details["failure_count"]
    assert abs(seq.worst_residual - ref_seq.worst_residual) <= slack
    assert perm.passed == ref_perm.passed
    assert perm.witness_permutation == ref_perm.witness_permutation
    assert abs(perm.worst_trace_defect - ref_perm.worst_trace_defect) <= slack
    assert [s for s, _ in perm.per_state] == [s for s, _ in ref_perm.per_state]
    assert all(abs(a - b) <= slack for (_, a), (_, b) in zip(perm.per_state, ref_perm.per_state))
    assert_witnesses_match(seq, ref_seq, slack)
    assert_witnesses_match(perm, ref_perm, slack)


def assert_witnesses_match(a, b, tie=TIE):
    """A witness both reports list has one residual (within ``tie``).  A
    witness only one lists ties within ``tie`` with another residual (noise
    may pick either of two tied entries), or fell off the other's full list."""
    keyed_a = {repr(_key(w)): w["residual"] for w in a.witnesses}
    keyed_b = {repr(_key(w)): w["residual"] for w in b.witnesses}
    name = getattr(a, "property_name", "permutator")
    for key in keyed_a.keys() & keyed_b.keys():
        assert abs(keyed_a[key] - keyed_b[key]) <= tie, (name, key)
    worst = [getattr(r, "worst_residual", getattr(r, "worst_trace_defect", None)) for r in (a, b)]
    residuals = [*keyed_a.values(), *keyed_b.values(), *worst]
    for mine, other in ((keyed_a, keyed_b), (keyed_b, keyed_a)):
        for key in mine.keys() - other.keys():
            r = mine[key]
            tied = sum(abs(r - x) <= tie for x in residuals) >= 2
            cut = len(other) == WITNESS_CAP and r <= min(other.values()) + tie
            assert tied or cut, (name, key, r)


def test_appendix_instance_matches_reference(appendix_family, appendix_states):
    assert_matches_reference(appendix_family, appendix_states, tol=1e-6, prob_tol=1e-9)


def test_coin_and_pvm_families_match_reference():
    assert_matches_reference(*make_coin_family(dim=2, n=2))
    assert_matches_reference(*make_commuting_pvm_family(np.random.default_rng(4), dim=4, outcomes=3))


@pytest.mark.parametrize("block", range(3))
def test_commuting_acceptance_families_match_reference(block):
    for family, states in COMMUTING[5 * block : 5 * block + 5]:
        assert_matches_reference(family, states)


@pytest.mark.parametrize("block", range(3))
def test_order_dependent_acceptance_families_match_reference(block):
    for family, states in ORDER_DEPENDENT[5 * block : 5 * block + 5]:
        assert_matches_reference(family, states)


def test_work_counts_account_for_the_orbit(appendix_family, appendix_states):
    for family, states, tols in [
        (appendix_family, appendix_states, {"tol": 1e-6, "prob_tol": 1e-9}),
        (*COMMUTING[0], {}),
        (*ORDER_DEPENDENT[0], {}),
    ]:
        details = q.check_marginals(family, states, **tols).details
        assert details["orbit_size"] == (
            len(states.states) + details["branches"]
            - details["dead_branches"] - details["dedup_merges"]
        )


@st.composite
def small_families(draw):
    """N <= 3 binary measurements at dim <= 4 (generic projective, commuting
    projective or unsharp), on one or two pure states."""
    n = draw(st.integers(1, 3))
    dim = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["projective", "commuting", "unsharp"]))
    if kind == "unsharp":
        povms = []
        for _ in range(n):
            lam, c = rng.uniform(0.2, 0.9), rng.uniform(0.0, 1.0)
            p = random_projector(dim, int(rng.integers(1, dim)), rng)
            e1 = lam * p + (1 - lam) * c * np.eye(dim)
            povms.append(q.Povm.from_elements([np.eye(dim) - e1, e1]))
        family = q.MeasurementFamily.from_povms(povms)
    elif kind == "commuting":
        u = haar_unitary(dim, rng)
        diags = [np.diag((rng.random(dim) < 0.5).astype(float)) for _ in range(n)]
        family = q.MeasurementFamily.binary_projective([u @ d @ u.conj().T for d in diags])
    else:
        family = q.MeasurementFamily.binary_projective(
            [random_projector(dim, int(rng.integers(1, dim)), rng) for _ in range(n)]
        )
    states = [pure_density(random_state_vector(dim, rng)) for _ in range(draw(st.integers(1, 2)))]
    return family, q.StateFamily(states)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(small_families())
def test_orbit_states_match_reference_for_every_index_set(case):
    family, states = case
    engine = _OrbitEngine(family, states)
    subsets = [u for k in range(family.n + 1) for u in itertools.combinations(family.indices, k)]
    for u in reversed(subsets):
        got = q.orbit_states(family, u, states, _orbits=engine)
        want, counts = reference_orbit(family, u, states)
        assert engine.orbit(u)[1] == counts
        assert len(got) == len(want)
        assert all(np.abs(a - b).max() <= TIE for a, b in zip(got, want))
