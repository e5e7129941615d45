"""The oracles pinned to values that can be derived by hand.

Run with ``python3 -m pytest perfbench/tests``; these tests are not part of
the package's own suite.
"""

import json
import math
import os

import numpy as np
import pytest

import oracles
from conftest import BENCH_DIR

A = np.diag([1.0, 0.0]).astype(complex)                 # |0><0|
B = np.full((2, 2), 0.5, dtype=complex)                 # |+><+|
RHO = A.copy()                                          # state |0>
I2 = np.eye(2, dtype=complex)


def test_two_projector_sequences():
    # A then B gives Tr(ABA rho) = 1/2; B then A gives Tr(BAB rho) = 1/4.
    assert oracles.sequenced_probability([A, B], RHO) == pytest.approx(0.5, abs=1e-12)
    assert oracles.sequenced_probability([B, A], RHO) == pytest.approx(0.25, abs=1e-12)


def test_two_projector_family_defects():
    roots = [[I2 - A, A], [I2 - B, B]]
    # Every outcome pair differs by 1/4 between the two orders.
    assert oracles.permutator_worst(roots, [RHO]) == pytest.approx(0.25, abs=1e-12)
    assert oracles.sequential_independence_worst(roots, [RHO]) == pytest.approx(0.25, abs=1e-12)


def test_commuting_family_has_no_defect():
    p = np.diag([1.0, 0.0, 1.0]).astype(complex)
    q = np.diag([1.0, 1.0, 0.0]).astype(complex)
    eye = np.eye(3, dtype=complex)
    v = np.array([1.0, 2.0, 3.0j]) / math.sqrt(14.0)
    rho = np.outer(v, v.conj())
    roots = [[eye - p, p], [eye - q, q], [eye - p, p]]
    assert oracles.sequential_independence_worst(roots, [rho]) <= 1e-15
    assert oracles.permutator_worst(roots, [rho]) <= 1e-15


def test_set_partitions_are_the_bell_numbers():
    counts = [sum(1 for _ in oracles.set_partitions(tuple(range(n)))) for n in range(6)]
    assert counts == [1, 1, 2, 5, 15, 52]


@pytest.mark.parametrize("theta", [math.pi / 12, math.pi / 6, math.pi / 4, math.pi / 3])
def test_dim_two_repair_closed_form(theta):
    eps, dist = oracles.repair_closed_form(theta)
    assert eps == pytest.approx(math.sin(2 * theta) / 2, abs=1e-15)
    assert dist == pytest.approx(min(math.sin(theta), math.cos(theta)), abs=1e-15)
    v = np.array([math.cos(theta), math.sin(theta)], dtype=complex)
    p2 = np.outer(v, v.conj())
    psi = np.array([1.0, 0.0], dtype=complex)
    assert oracles.commutator_defect(A, p2, psi) == pytest.approx(eps, abs=1e-15)


def test_dim_two_repair_values_at_pi_over_six():
    eps, dist = oracles.repair_closed_form(math.pi / 6)
    assert eps == pytest.approx(math.sqrt(3.0) / 4.0, abs=1e-15)
    assert dist == pytest.approx(0.5, abs=1e-15)


def test_bundled_block_swap_defect():
    with open(os.path.join(BENCH_DIR, "data", "appendix_instance.json"), encoding="utf-8") as fh:
        obj = json.load(fh)
    eig = [[np.array([complex(a, b) for a, b in v]) for v in vs] for vs in obj["eigenvectors"]]
    projectors = oracles.instance_from_eigenvectors(eig)
    phi = np.array([complex(a, b) for a, b in obj["state"]])
    assert oracles.block_swap_defect(projectors, phi) == pytest.approx(0.25, abs=1e-4)
    assert max(oracles.pairwise_defects(projectors, phi)) <= 1e-5
    assert [oracles.projector_problems(p, r, 1e-5) for p, r in zip(projectors, (1, 2, 3, 2))] == [[]] * 4
