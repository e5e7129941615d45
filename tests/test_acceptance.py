"""End-to-end acceptance checks, one test per shipped guarantee.

Each test here corresponds to a documented behavioral guarantee of the
package (README "Guarantees" section) and asserts both the numbers and the
runtime budget.  Unit-level coverage lives in the per-module test files;
these are deliberately coarse and loud.
"""

import json
import math
import time

import numpy as np
import pytest

import qjoint as q
from qjoint.cli import main
from qjoint.counterexample import REGRESSION_SEEDS
from qjoint.linalg import pure_density, random_projector, random_state_vector
from qjoint.serialize import canonical_dumps, instance_to_wire
from conftest import make_commuting_family, make_commuting_pvm_family


def test_golden_instance_verification(capsys):
    """Bundled instance: block-swap defect 0.25 (±1e-4), pairwise commutator
    defects and projector residuals at most 1e-6, unit state, under 1 s."""
    start = time.perf_counter()
    assert main(["verify-appendix", "--json"]) == 0
    elapsed = time.perf_counter() - start
    payload = json.loads(capsys.readouterr().out)
    details = payload["result"]["details"]
    assert abs(details["block_swap_defect"] - 0.25) <= 1e-4
    assert details["worst_pairwise_defect"] <= 1e-6
    assert all(r <= 1e-6 for r in details["idempotence"])
    assert all(r <= 1e-6 for r in details["hermiticity"])
    assert details["state_norm_deviation"] <= 1e-6
    assert elapsed < 1.0


def test_repair_bound_random_projector_pairs():
    """1000 random (P1, P2, psi) triples over dims 2-16: the commuting
    replacement commutes within dim*1e-9, stays a projector within 1e-9,
    moves the state by at most sqrt(2)*epsilon + 1e-9, and satisfies the
    exact defect accounting within 1e-8 — all inside 30 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    dims = [2 + (k % 15) for k in range(1000)]
    for dim in dims:
        p1 = random_projector(dim, int(rng.integers(1, dim)), rng)
        p2 = random_projector(dim, int(rng.integers(1, dim)), rng)
        psi = random_state_vector(dim, rng)
        res = q.repair_projector(p1, p2, psi)
        prime = res.p2_prime
        assert np.abs(p1 @ prime - prime @ p1).max() <= dim * 1e-9
        assert np.abs(prime @ prime - prime).max() <= 1e-9
        assert res.on_state_distance <= math.sqrt(2.0) * res.epsilon + 1e-9
        assert res.identity_residual <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0


def test_repair_closed_form_dim_two():
    """P1 = |0><0|, P2 at angle theta, psi = |0>: epsilon = sin cos and
    on-state distance = min(sin, cos), each to 1e-12, under 1 s."""
    start = time.perf_counter()
    for theta in (math.pi / 12, math.pi / 6, math.pi / 4, math.pi / 3):
        p1 = np.diag([1.0, 0.0]).astype(complex)
        v = np.array([math.cos(theta), math.sin(theta)], dtype=complex)
        p2 = np.outer(v, v.conj())
        psi = np.array([1.0, 0.0], dtype=complex)
        res = q.repair_projector(p1, p2, psi)
        assert abs(res.epsilon - math.sin(theta) * math.cos(theta)) < 1e-12
        expected = min(math.sin(theta), math.cos(theta))
        assert abs(res.on_state_distance - expected) < 1e-12
    assert time.perf_counter() - start < 1.0


def _random_commuting_case(rng):
    if rng.random() < 0.25:
        dim = int(rng.integers(3, 7))
        return make_commuting_pvm_family(
            rng, dim=dim, n=2, outcomes=int(rng.integers(2, 4))
        )
    dim = int(rng.integers(2, 9))
    n = int(rng.integers(2, 5))
    return make_commuting_family(rng, dim=dim, n=n, n_states=int(rng.integers(1, 3)))


def _random_nonpermutable_case(rng):
    """Random projective family rejected unless visibly order-dependent."""
    while True:
        dim = int(rng.integers(2, 7))
        n = int(rng.integers(2, 4))
        projs = [random_projector(dim, int(rng.integers(1, dim)), rng) for _ in range(n)]
        fam = q.MeasurementFamily.binary_projective(projs, tol=1e-9)
        states = q.StateFamily(
            [pure_density(random_state_vector(dim, rng))]
        )
        if not q.is_fully_permutable(fam, states.states, tol=1e-3).passed:
            return fam, states


def test_premises_imply_sequential_independence():
    """100 commuting projective families (N <= 4, dim <= 8) pass the three
    premise properties and then never fail sequential independence; 100
    deliberately order-dependent families each fail at least one of the four
    with a concrete witness.  Both sweeps inside 2 min."""
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    for _ in range(100):
        fam, states = _random_commuting_case(rng)
        rep = q.theorem1_check(fam, states)
        assert rep.details["status"] == "applicable", rep.details
        assert rep.passed
        assert rep.details["contradiction"] is False
    names = ("marginals", "disjointness", "reducibility", "sequential_independence")
    for _ in range(100):
        fam, states = _random_nonpermutable_case(rng)
        reports = q.run_property_checks(fam, states, properties=names)
        failed = [n for n in names if not reports[n].passed]
        assert failed, "order-dependent family passed every distribution property"
        assert reports[failed[0]].witnesses
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0


def test_distribution_existence_matches_permutability():
    """On 50 commuting and 50 order-dependent families the four-property
    verdict agrees with (fully permutable and on-state projector condition)
    in every case at tol 1e-7, inside 2 min."""
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    agree = 0
    for k in range(100):
        if k < 50:
            fam, states = _random_commuting_case(rng)
        else:
            fam, states = _random_nonpermutable_case(rng)
        verdict = q.theorem2_verdict(fam, states, tol=1e-7)
        assert verdict["equivalence_agrees"], (
            k,
            verdict["joint_distribution_exists"],
            verdict["fully_permutable"],
            verdict["on_state_projectors"],
        )
        if k < 50:
            assert verdict["joint_distribution_exists"] is True
        else:
            assert verdict["joint_distribution_exists"] is False
        agree += 1
    assert agree == 100
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0


def test_pairwise_permutable_but_not_jointly(tmp_path, capsys):
    """The bundled instance is 2-permutable (plain and complemented) at 1e-6
    yet fails 4-permutability by at least 0.24, and the CLI check surfaces a
    sequential-independence witness — all inside 10 s."""
    start = time.perf_counter()
    inst = q.load_appendix_instance()
    fam = q.induced_family(inst)
    states = q.induced_state_family(inst)
    assert q.is_t_permutable(fam, states, t=2, tol=1e-6).passed
    assert q.complemented_t_permutable(fam, states, t=2, tol=1e-6).passed
    full = q.is_t_permutable(fam, states, t=4, tol=1e-6)
    assert not full.passed
    assert max(full.worst_vector_defect, full.worst_trace_defect) >= 0.24

    path = tmp_path / "instance.json"
    path.write_text(canonical_dumps(instance_to_wire(inst)))
    code = main(["check", "--input", str(path), "--tol", "1e-6", "--json"])
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    seq = payload["result"]["reports"]["sequential_independence"]
    assert seq["passed"] is False
    assert seq["witnesses"], "no sequential-independence witness reported"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0


@pytest.mark.parametrize("seed", REGRESSION_SEEDS)
def test_search_recovers_an_instance(seed):
    """From every committed regression seed, the dim-8 rank-(1,2,3,2) search
    returns a verified instance with objective >= 0.1 and constraint
    residuals <= 1e-7 within 10 min."""
    start = time.perf_counter()
    config = q.SearchConfig(
        dim=8,
        n_projectors=4,
        ranks=(1, 2, 3, 2),
        seed=seed,
        restarts=1,
        constraint_tol=1e-7,
    )
    result = q.search(config)
    assert result.objective >= 0.1
    assert result.worst_constraint_residual <= 1e-7
    report = q.verify_instance(result.instance, tol=1e-7)
    assert report.passed
    assert report.details["is_counterexample"]
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0


def test_two_projector_order_dependence_demo():
    """A = |0><0|, B = |+><+| on rho = |0><0|: Tr(ABA rho) = 1/2 but
    Tr(BAB rho) = 1/4, both to 1e-12, under 1 s."""
    start = time.perf_counter()
    a = np.diag([1.0, 0.0]).astype(complex)
    plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    b = np.outer(plus, plus.conj())
    rho = np.diag([1.0, 0.0]).astype(complex)
    aba = float(np.trace(a @ b @ a @ rho).real)
    bab = float(np.trace(b @ a @ b @ rho).real)
    assert abs(aba - 0.5) < 1e-12
    assert abs(bab - 0.25) < 1e-12
    # the library's trace permutator measures exactly this gap
    assert abs(q.permutator_trace([a, b], rho, (2, 1)) - (aba - bab)) < 1e-12
    assert time.perf_counter() - start < 1.0
