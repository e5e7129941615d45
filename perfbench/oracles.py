"""Independent numpy recomputations that the benchmark checks outputs against.

Nothing here imports qjoint.  Every value is rebuilt from the raw matrices the
benchmark generated, following the conventions that the program documents:

- a sequence of operators ``ops`` acts with ``ops[0]`` first, so its
  probability on ``rho`` is ``Tr(M rho M^dagger)`` with ``M = ops[-1] ... ops[0]``;
- the root of a block of measurement indices ``b = (b1 < b2 < ...)`` with
  outcomes ``y`` is ``R_b1^y1 @ R_b2^y2 @ ...`` (the highest index acts first);
- the identity ordering of the blocks of a partition lists them by their
  smallest index, and the identity ordering of a full permutator scan applies
  measurement 1 first.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root through an eigendecomposition."""
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def density(state: np.ndarray) -> np.ndarray:
    """A density matrix from a unit vector, or the matrix itself."""
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        v = state / np.linalg.norm(state)
        return np.outer(v, v.conj())
    return state


def sequenced_probability(ops, rho: np.ndarray) -> float:
    """``Tr(M rho M^dagger)`` for ``M = ops[-1] ... ops[0]``."""
    m = np.eye(rho.shape[0], dtype=complex)
    for op in ops:
        m = op @ m
    return float(np.real(np.trace(m @ rho @ m.conj().T)))


def set_partitions(items: tuple[int, ...]):
    """Every unordered partition of ``items``, blocks ascending and listed by minimum."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub in set_partitions(rest):
        yield ((first,),) + sub
        for k in range(len(sub)):
            yield sub[:k] + ((first,) + sub[k],) + sub[k + 1 :]


def _ordering_worst(block_ops, rho: np.ndarray) -> float:
    """Largest ``|p(identity) - p(sigma)|`` over every ordering of ``block_ops``."""
    orders = itertools.permutations(range(len(block_ops)))
    base = sequenced_probability(block_ops, rho)
    worst = 0.0
    for order in orders:
        p = sequenced_probability([block_ops[k] for k in order], rho)
        worst = max(worst, abs(base - p))
    return worst


def sequential_independence_worst(roots, states) -> float:
    """Worst block-ordering defect over subsets, partitions and outcomes.

    ``roots[i][x]`` is the square root of outcome ``x`` of measurement ``i``
    (0-based), ``states`` the density matrices of the family.
    """
    n = len(roots)
    worst = 0.0
    for rho in states:
        for size in range(1, n + 1):
            for subset in itertools.combinations(range(n), size):
                for blocks in set_partitions(subset):
                    blocks = sorted(blocks, key=lambda b: b[0])
                    for xs in itertools.product(*(range(len(roots[i])) for i in subset)):
                        chosen = dict(zip(subset, xs))
                        block_ops = []
                        for b in blocks:
                            r = np.eye(rho.shape[0], dtype=complex)
                            for i in b:
                                r = r @ roots[i][chosen[i]]
                            block_ops.append(r)
                        worst = max(worst, _ordering_worst(block_ops, rho))
    return worst


def permutator_worst(roots, states) -> float:
    """Worst trace permutator over every full outcome choice and every ordering."""
    worst = 0.0
    for rho in states:
        for xs in itertools.product(*(range(len(r)) for r in roots)):
            ops = [roots[i][x] for i, x in enumerate(xs)]
            worst = max(worst, _ordering_worst(ops, rho))
    return worst


def pairwise_defects(projectors, phi: np.ndarray) -> list[float]:
    """``||(P_i P_j - P_j P_i) phi||`` for every pair ``i < j``."""
    return [
        float(np.linalg.norm(a @ (b @ phi) - b @ (a @ phi)))
        for a, b in itertools.combinations(projectors, 2)
    ]


def block_swap_defect(projectors, phi: np.ndarray) -> float:
    """``||(P1..Ph P(h+1)..Pn - P(h+1)..Pn P1..Ph) phi||`` with ``h = n // 2``."""
    half = len(projectors) // 2

    def apply(order):
        out = phi
        for p in reversed(order):
            out = p @ out
        return out

    swapped = projectors[half:] + projectors[:half]
    return float(np.linalg.norm(apply(projectors) - apply(swapped)))


def commutator_defect(p1: np.ndarray, p2: np.ndarray, psi: np.ndarray) -> float:
    """``epsilon = ||(P1 P2 - P2 P1) psi||``."""
    return float(np.linalg.norm(p1 @ (p2 @ psi) - p2 @ (p1 @ psi)))


def repair_closed_form(theta: float) -> tuple[float, float]:
    """Dimension 2, ``P1 = |0><0|``, ``P2`` at angle ``theta``, ``psi = |0>``:
    ``(epsilon, on-state distance) = (sin cos, min(sin, cos))``."""
    s, c = math.sin(theta), math.cos(theta)
    return s * c, min(s, c)


def instance_from_eigenvectors(eigenvectors) -> list[np.ndarray]:
    """Projectors as sums of outer products of their listed eigenvectors."""
    out = []
    for vs in eigenvectors:
        p = sum(np.outer(v, v.conj()) for v in vs)
        out.append(np.asarray(p, dtype=complex))
    return out


def projector_problems(p: np.ndarray, rank: int, tol: float) -> list[str]:
    """Why ``p`` is not a Hermitian, idempotent rank-``rank`` projector within ``tol``."""
    problems = []
    herm = float(np.abs(p - p.conj().T).max())
    idem = float(np.abs(p @ p - p).max())
    if herm > tol:
        problems.append(f"hermiticity {herm:.3e}")
    if idem > tol:
        problems.append(f"idempotence {idem:.3e}")
    w = np.linalg.eigvalsh((p + p.conj().T) / 2.0)
    found = int(np.sum(w > 0.5))
    if found != rank:
        problems.append(f"rank {found}, expected {rank}")
    return problems
