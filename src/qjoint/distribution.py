"""The joint-outcome functional W, orbit sets, and the four distribution properties.

``W(rho, x) = Tr(Q_[N]^x rho)`` where ``Q_[N]^x`` is the sequenced POVM element
over all measurements in ascending index order.  The four properties checked
here (marginals, disjointness, reducibility, sequential independence), plus
the functional axioms and the on-state projector condition, each produce a
:class:`PropertyReport` with the worst residual and canonical witnesses.

Quantifiers over post-measurement states use the orbit set: all normalized
states reachable from the state family by sequences of measurements over
subsets of a given index set, with zero-probability branches skipped and
near-duplicate states (trace distance below tolerance) merged.  The checks of
one :func:`run_property_checks` call share one orbit engine: each orbit is
enumerated once, each check is a few batched contractions of operator
stacks against orbit (or state) stacks, and the sequenced checks read the
traces of the engine's memoized branches.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CombinatorialLimitExceeded,
    DimensionMismatch,
    PrerequisiteFailed,
    ZeroProbabilityBranch,
)
from .linalg import (
    CHECK_TOL,
    MAX_BRANCHES,
    MAX_DIM,
    MAX_N,
    TAU_HERM,
    TAU_PROB,
    as_matrix,
    check_density_matrix,
    trace_distance,
    trace_inner,
)
from .measurement import MeasurementFamily, check_index_set, check_outcome_tuple
from .permutation import is_fully_permutable
from .reporting import WITNESS_CAP, WorstTracker

__all__ = [
    "StateFamily",
    "JointDistributionTable",
    "OrbitSpec",
    "PropertyReport",
    "w_functional",
    "conditional_w",
    "orbit_states",
    "check_functional_axioms",
    "check_marginals",
    "check_disjointness",
    "check_reducibility",
    "check_on_state_projector",
    "check_sequential_independence",
    "theorem1_check",
    "build_joint_distribution",
    "theorem2_verdict",
    "run_property_checks",
    "PROPERTY_NAMES",
]

PROPERTY_NAMES = (
    "functional_axioms",
    "marginals",
    "disjointness",
    "reducibility",
    "sequential_independence",
    "on_state_projector",
)


@dataclass
class StateFamily:
    """A finite set of density operators on a common space (the family F)."""

    states: list[np.ndarray]
    tol: float = TAU_HERM

    def __post_init__(self) -> None:
        if not self.states:
            raise ValueError("state family must be non-empty")
        self.states = [check_density_matrix(s, self.tol) for s in self.states]
        dims = {s.shape[0] for s in self.states}
        if len(dims) != 1:
            raise DimensionMismatch(f"states of mixed dimension: {sorted(dims)}")

    @property
    def dim(self) -> int:
        return self.states[0].shape[0]


@dataclass
class OrbitSpec:
    """Which measurement indices may act."""

    u: tuple[int, ...]


@dataclass
class PropertyReport:
    """Outcome of one property check: worst residual, witnesses, verdict."""

    property_name: str
    worst_residual: float
    witnesses: list[dict]
    passed: bool
    tol: float
    details: dict = field(default_factory=dict)


@dataclass
class JointDistributionTable:
    """The realized W for one state: outcome tuple -> probability."""

    family: MeasurementFamily
    state: np.ndarray
    probabilities: dict[tuple[int, ...], float]

    def total(self) -> float:
        return float(sum(self.probabilities.values()))


class _FamilyCache:
    """Memoized sequenced roots/elements for one measurement family."""

    def __init__(self, family: MeasurementFamily):
        self.family = family
        self._roots: dict = {}
        self._qs: dict = {}

    def root(self, s: tuple[int, ...], y: tuple[int, ...]) -> np.ndarray:
        key = (s, y)
        if key not in self._roots:
            out = np.eye(self.family.dim, dtype=complex)
            for i, x in zip(s, y):
                out = out @ self.family.povm(i).root(x)
            self._roots[key] = out
        return self._roots[key]

    def q(self, s: tuple[int, ...], y: tuple[int, ...]) -> np.ndarray:
        key = (s, y)
        if key not in self._qs:
            r = self.root(s, y)
            q = r.conj().T @ r
            self._qs[key] = (q + q.conj().T) / 2.0
        return self._qs[key]

    def full_q(self, x: tuple[int, ...]) -> np.ndarray:
        return self.q(self.family.indices, x)


def w_functional(
    family: MeasurementFamily,
    rho: np.ndarray,
    x_full: tuple[int, ...],
    _cache: _FamilyCache | None = None,
) -> float:
    """Tr(Q_[N]^x rho) for the full ascending measurement sequence."""
    rho = as_matrix(rho)
    if rho.shape != (family.dim, family.dim):
        raise DimensionMismatch(
            f"state shape {rho.shape} against family dimension {family.dim}"
        )
    x_full = check_outcome_tuple(family, family.indices, x_full)
    cache = _cache or _FamilyCache(family)
    return trace_inner(cache.full_q(x_full), rho)


def conditional_w(
    family: MeasurementFamily,
    rho: np.ndarray,
    x_full: tuple[int, ...],
    s: tuple[int, ...],
    y: tuple[int, ...],
    prob_tol: float = TAU_PROB,
) -> float:
    """W conditioned on having observed ``y`` for the index set ``s`` first."""
    s = check_index_set(s, family.n)
    y = check_outcome_tuple(family, s, y)
    cache = _FamilyCache(family)
    r = cache.root(s, y)
    evolved = r @ as_matrix(rho) @ r.conj().T
    p = float(np.trace(evolved).real)
    if p <= prob_tol:
        raise ZeroProbabilityBranch(
            f"conditioning probability {p:.3e} at or below {prob_tol:.3e}"
        )
    return w_functional(family, evolved / p, x_full, _cache=cache)


def _unordered_partitions(items: tuple[int, ...]):
    """All unordered set partitions, blocks as ascending tuples sorted by minimum."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub in _unordered_partitions(rest):
        yield ((first,),) + sub
        for k in range(len(sub)):
            grown = tuple(sorted((first,) + sub[k]))
            yield sub[:k] + (grown,) + sub[k + 1 :]


def _canonical_partitions(items: tuple[int, ...]):
    """Unordered partitions in a canonical, deterministic order."""
    out = {tuple(sorted(p, key=lambda b: b[0])) for p in _unordered_partitions(items)}
    return sorted(out, key=lambda blocks: (len(blocks), blocks))


def _ordered_partitions(items: tuple[int, ...]):
    """Every ordered partition: canonical unordered partitions, then block orderings."""
    for blocks in _canonical_partitions(items):
        for order in itertools.permutations(range(len(blocks))):
            yield tuple(blocks[k] for k in order)


def _subsets(indices: tuple[int, ...], include_full: bool = True):
    top = len(indices) if include_full else len(indices) - 1
    for size in range(0, top + 1):
        yield from itertools.combinations(indices, size)


class _OrbitEngine:
    """Orbit sets and operator stacks for one family, state family and tolerances.

    One engine serves every check of a :func:`run_property_checks` call.  A
    branch's unnormalized ``R rho R†`` extends its prefix's product, each
    orbit is enumerated once per index set, and ``Q_[N]^x`` is stacked once.
    The sequenced checks read their branch traces from the same memo.
    """

    def __init__(self, family, f, prob_tol=TAU_PROB, dedup_tol=CHECK_TOL, max_branches=MAX_BRANCHES):
        self.family, self.f = family, f
        self.prob_tol, self.dedup_tol, self.max_branches = prob_tol, dedup_tol, max_branches
        self.cache = _FamilyCache(family)
        self.outs = list(family.outcome_tuples(family.indices))
        self.q_full = np.stack([self.cache.full_q(x) for x in self.outs])
        self.f_stack = np.stack(f.states)
        self._branches: dict = {}
        self._orbits: dict = {}
        self._matches: dict = {}

    def orbit(self, u: tuple[int, ...]) -> tuple[np.ndarray, dict]:
        """The orbit over ``u`` as a (K, d, d) stack, with its work counts."""
        if u not in self._orbits:
            self._orbits[u] = self._enumerate(u)
        return self._orbits[u]

    def match(self, s: tuple[int, ...]) -> tuple[list, np.ndarray]:
        """The outcome tuples y of ``s``, and for each full tuple x the index of x_S among them."""
        if s not in self._matches:
            ys = list(self.family.outcome_tuples(s))
            at = {y: k for k, y in enumerate(ys)}
            self._matches[s] = ys, np.array([at[tuple(x[i - 1] for i in s)] for x in self.outs])
        return self._matches[s]

    def conj(self, s: tuple[int, ...], yi: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """R_S^y† Q_[N]^x R_S^y for each pair (y, x) = (ys[yi[k]], outs[xi[k]]), stacked."""
        roots = np.stack([self.cache.root(s, y) for y in self.match(s)[0]])[yi]
        return np.swapaxes(roots.conj(), 1, 2) @ self.q_full[xi] @ roots

    def sequenced(self, blocks, ys, sid: int) -> float:
        """Tr(R_{b_k}…R_{b_1} rho R_{b_1}†…R_{b_k}†) for state ``sid``, the block
        ``blocks[0]`` (outcomes ``ys[0]``) applied first; 0.0 once the branch is dead."""
        return self._branch(blocks, ys, sid)[1]

    def _branch(self, blocks, ys, sid) -> tuple[np.ndarray | None, float]:
        """One branch's unnormalized R rho R† and its trace, or (None, 0.0) once dead."""
        key = (blocks, ys, sid)
        if key not in self._branches:
            rho = self.f.states[sid] if len(blocks) == 1 else self._branch(blocks[:-1], ys[:-1], sid)[0]
            p = 0.0
            if rho is not None:
                r = self.cache.root(blocks[-1], ys[-1])
                rho = r @ rho @ r.conj().T
                p = float(np.trace(rho).real)
            self._branches[key] = (rho, p) if p > self.prob_tol else (None, 0.0)
        return self._branches[key]

    def _enumerate(self, u: tuple[int, ...]) -> tuple[np.ndarray, dict]:
        family, states, tol = self.family, self.f.states, self.dedup_tol
        if family.dim > MAX_DIM:
            raise CombinatorialLimitExceeded(f"dimension {family.dim} exceeds cap {MAX_DIM}")
        sqrt_d = np.sqrt(family.dim)
        buf = np.empty((4 * len(states), family.dim, family.dim), dtype=complex)
        kept = 0
        counts = {"branches": 0, "dead_branches": 0, "dedup_merges": 0}

        def keep(rho: np.ndarray) -> None:
            # Greedy dedup by trace distance; sqrt(d)·‖a−b‖_F/2 bounds it from
            # above (a sure duplicate) and ‖a−b‖_F/2 from below.
            nonlocal buf, kept
            if kept:
                diffs = np.linalg.norm(buf[:kept] - rho, axis=(1, 2))
                if (sqrt_d * diffs / 2.0 < tol).any() or any(
                    trace_distance(buf[k], rho) < tol
                    for k in np.flatnonzero(diffs / 2.0 < tol * sqrt_d)
                ):
                    counts["dedup_merges"] += 1
                    return
            if kept == len(buf):
                buf = np.concatenate([buf, np.empty_like(buf)])
            buf[kept] = rho
            kept += 1

        for psi in states:
            keep((psi + psi.conj().T) / 2.0)
        for size in range(1, len(u) + 1):
            for t_set in itertools.combinations(u, size):
                for blocks in _ordered_partitions(t_set):
                    for ys in itertools.product(*(family.outcome_tuples(b) for b in blocks)):
                        for sid in range(len(states)):
                            counts["branches"] += 1
                            if counts["branches"] > self.max_branches:
                                raise CombinatorialLimitExceeded(
                                    f"orbit enumeration exceeded {self.max_branches} branches"
                                )
                            rho, p = self._branch(blocks, ys, sid)
                            if rho is None:
                                counts["dead_branches"] += 1
                            else:
                                rho = rho / p
                                keep((rho + rho.conj().T) / 2.0)
        return buf[:kept].copy(), counts


def orbit_states(
    family: MeasurementFamily,
    spec: OrbitSpec | tuple[int, ...],
    f: StateFamily,
    prob_tol: float = TAU_PROB,
    dedup_tol: float = CHECK_TOL,
    max_branches: int = MAX_BRANCHES,
    _orbits: _OrbitEngine | None = None,
) -> list[np.ndarray]:
    """All normalized post-measurement states reachable over subsets of ``spec.u``.

    Enumerates every subset T of u, every ordered partition of T, and every
    outcome assignment; skips branches whose probability falls to ``prob_tol``
    or below; deduplicates states closer than ``dedup_tol`` in trace distance,
    keeping the first of each in that order.  The empty subset contributes the
    family itself.  ``_orbits`` is an engine built for the same arguments,
    whose memo then serves the call.
    """
    if not isinstance(spec, OrbitSpec):
        spec = OrbitSpec(u=tuple(spec))
    u = check_index_set(spec.u, family.n)
    engine = _orbits or _OrbitEngine(family, f, prob_tol, dedup_tol, max_branches)
    return list(engine.orbit(u)[0])


def _report(name: str, tracker: WorstTracker, tol: float, details: dict | None = None) -> PropertyReport:
    return PropertyReport(
        property_name=name,
        worst_residual=tracker.worst,
        witnesses=tracker.final_witnesses(),
        passed=tracker.worst <= tol,
        tol=tol,
        details={**(details or {}), "failure_count": tracker.failures},
    )


def _check_prereq(marginals_report: PropertyReport | None, dependent: str) -> None:
    if marginals_report is not None and not marginals_report.passed:
        raise PrerequisiteFailed(
            f"{dependent} invoked with a failed marginals report "
            f"(worst residual {marginals_report.worst_residual:.3e})"
        )


def _pair_witness(kind: str, s, ys, yi, outs, xi, n: int):
    """Witness k of residuals shaped (pair p, state): y = ys[yi[p]], x = outs[xi[p]]."""
    return lambda k: {
        "kind": kind, "state": k % n, "s": list(s), "y": list(ys[yi[k // n]]), "x": list(outs[xi[k // n]]),
    }


_LAMBDAS = (0.25, 0.5, 0.75)


def check_functional_axioms(
    family: MeasurementFamily,
    f: StateFamily,
    tol: float = CHECK_TOL,
    _orbits: _OrbitEngine | None = None,
) -> PropertyReport:
    """Normalization (operator level), linearity spot-checks, non-negativity."""
    engine = _orbits or _OrbitEngine(family, f)
    outs, states = engine.outs, engine.f_stack
    tracker = WorstTracker(tol * family.dim)
    norm_res = float(np.abs(engine.q_full.sum(axis=0) - np.eye(family.dim)).max())
    tracker.add(norm_res, {"kind": "normalization"})
    # Mix each state with the next one (cyclically) at each lambda.
    nxt = [(a + 1) % len(states) for a in range(len(states))]
    lam = np.array(_LAMBDAS)[None, :, None]
    mixes = lam[..., None] * states[:, None] + (1 - lam[..., None]) * states[nxt][:, None]
    w = trace_inner(states, engine.q_full)
    lhs = trace_inner(mixes, engine.q_full)
    rhs = lam * w[:, None, :] + (1 - lam) * w[nxt][:, None, :]
    lin_tracker = WorstTracker(tol)
    per_state = len(_LAMBDAS) * len(outs)
    lin_tracker.add_array(
        np.abs(lhs - rhs),
        lambda k: {
            "kind": "linearity",
            "states": [k // per_state, nxt[k // per_state]],
            "lambda": _LAMBDAS[k // len(outs) % len(_LAMBDAS)],
        },
    )
    neg_tracker = WorstTracker(tol)
    neg_tracker.add_array(
        np.maximum(0.0, -w),
        lambda k: {"kind": "non_negativity", "state": k // len(outs), "x": list(outs[k % len(outs)])},
    )
    worst = max(tracker.worst, lin_tracker.worst, neg_tracker.worst)
    passed = (
        tracker.worst <= tol * family.dim
        and lin_tracker.worst <= tol
        and neg_tracker.worst <= tol
    )
    witnesses = tracker.final_witnesses() + lin_tracker.final_witnesses() + neg_tracker.final_witnesses()
    return PropertyReport(
        property_name="functional_axioms",
        worst_residual=worst,
        witnesses=witnesses[:WITNESS_CAP],
        passed=passed,
        tol=tol,
        details={"normalization_residual": norm_res},
    )


def check_marginals(
    family: MeasurementFamily,
    f: StateFamily,
    tol: float = CHECK_TOL,
    prob_tol: float = TAU_PROB,
    dedup_tol: float = CHECK_TOL,
    max_branches: int = MAX_BRANCHES,
    _orbits: _OrbitEngine | None = None,
) -> PropertyReport:
    """Summing W over the complement of S must reproduce Tr(Q_S^y rho).

    Quantified over all S and every state in the orbit over the full index
    set.  For singleton S the sequenced marginal operator is additionally
    compared entrywise against the original measurement element.  The
    details count the orbit's branches, dead branches and dedup merges.
    """
    engine = _orbits or _OrbitEngine(family, f, prob_tol, dedup_tol, max_branches)
    cache = engine.cache
    full = family.indices
    orbit = orbit_states(family, full, f, prob_tol, dedup_tol, max_branches, _orbits=engine)
    stack, counts = engine.orbit(full)
    tracker = WorstTracker(tol)
    op_worst = 0.0
    for i in full:
        for x in family.povm(i).outcomes:
            dev = float(np.abs(cache.q((i,), (x,)) - family.povm(i).element(x)).max())
            op_worst = max(op_worst, dev)
            tracker.add(
                dev if dev > family.dim * tol else 0.0,
                {"kind": "marginal_operator", "index": i, "outcome": x},
            )
    # One (S, y) pair per column: Q_S^y, and the 0/1 row of the x with x_S = y.
    pairs, qs, restrict = [], [], []
    for s in _subsets(full):
        ys, match = engine.match(s)
        for k, y in enumerate(ys):
            pairs.append((s, y))
            qs.append(cache.q(s, y))
            restrict.append(match == k)
    lhs = trace_inner(stack, engine.q_full) @ np.array(restrict, dtype=float).T
    rhs = trace_inner(stack, np.stack(qs))

    def witness(k: int) -> dict:
        rid, p = divmod(k, len(pairs))
        return {"kind": "marginal_sum", "state": rid, "s": list(pairs[p][0]), "y": list(pairs[p][1])}

    tracker.add_array(np.abs(lhs - rhs), witness)
    return _report(
        "marginals",
        tracker,
        tol,
        {"orbit_size": len(orbit), "operator_residual": op_worst, **counts},
    )


def check_disjointness(
    family: MeasurementFamily,
    f: StateFamily,
    tol: float = CHECK_TOL,
    prob_tol: float = TAU_PROB,
    dedup_tol: float = CHECK_TOL,
    max_branches: int = MAX_BRANCHES,
    marginals_report: PropertyReport | None = None,
    _orbits: _OrbitEngine | None = None,
) -> PropertyReport:
    """Conditioning on a wrong outcome tuple must annihilate: Tr(Q_[N]^x R_S^y rho R_S^y†) = 0.

    Quantified over S, states in the orbit over the complement of S, and all
    mismatched pairs (x, y).
    """
    _check_prereq(marginals_report, "disjointness")
    engine = _orbits or _OrbitEngine(family, f, prob_tol, dedup_tol, max_branches)
    full, outs = family.indices, engine.outs
    tracker = WorstTracker(tol)
    for s in _subsets(full):
        if not s:
            continue
        stack = engine.orbit(tuple(i for i in full if i not in s))[0]
        ys, match = engine.match(s)
        yi, xi = np.nonzero(match[None, :] != np.arange(len(ys))[:, None])
        vals = np.abs(trace_inner(engine.conj(s, yi, xi), stack))
        tracker.add_array(vals, _pair_witness("disjointness", s, ys, yi, outs, xi, len(stack)))
    return _report("disjointness", tracker, tol)


def check_reducibility(
    family: MeasurementFamily,
    f: StateFamily,
    tol: float = CHECK_TOL,
    prob_tol: float = TAU_PROB,
    dedup_tol: float = CHECK_TOL,
    max_branches: int = MAX_BRANCHES,
    marginals_report: PropertyReport | None = None,
    _orbits: _OrbitEngine | None = None,
) -> PropertyReport:
    """Conditioning on the matching outcomes must not disturb: Tr(Q^x R_S^{x_S} rho R†) = Tr(Q^x rho).

    Quantified over proper subsets S and the orbit over the complement of S.
    """
    _check_prereq(marginals_report, "reducibility")
    engine = _orbits or _OrbitEngine(family, f, prob_tol, dedup_tol, max_branches)
    full, outs = family.indices, engine.outs
    tracker = WorstTracker(tol)
    for s in _subsets(full, include_full=False):
        stack = engine.orbit(tuple(i for i in full if i not in s))[0]
        matched = engine.conj(s, engine.match(s)[1], np.arange(len(outs)))
        vals = np.abs(trace_inner(matched, stack) - trace_inner(engine.q_full, stack))
        n = len(stack)
        tracker.add_array(
            vals,
            lambda k: {"kind": "reducibility", "state": k % n, "s": list(s), "x": list(outs[k // n])},
        )
    return _report("reducibility", tracker, tol)


def check_on_state_projector(
    family: MeasurementFamily,
    f: StateFamily,
    tol: float = CHECK_TOL,
    _orbits: _OrbitEngine | None = None,
) -> PropertyReport:
    """Tr(R_S^y† Q_[N]^x R_S^y psi) = delta_{y, x_S} Tr(Q_[N]^x psi) for psi in F."""
    engine = _orbits or _OrbitEngine(family, f)
    full, outs, states = family.indices, engine.outs, engine.f_stack
    tracker = WorstTracker(tol)
    w = trace_inner(engine.q_full, states)
    for s in _subsets(full):
        ys, match = engine.match(s)
        yi, xi = np.divmod(np.arange(len(ys) * len(outs)), len(outs))
        hit = (match[xi] == yi)[:, None]
        vals = np.abs(trace_inner(engine.conj(s, yi, xi), states) - np.where(hit, w[xi], 0.0))
        tracker.add_array(vals, _pair_witness("on_state_projector", s, ys, yi, outs, xi, len(states)))
    return _report("on_state_projector", tracker, tol)


def check_sequential_independence(
    family: MeasurementFamily,
    f: StateFamily,
    tol: float = CHECK_TOL,
    max_branches: int = MAX_BRANCHES,
    marginals_report: PropertyReport | None = None,
    _orbits: _OrbitEngine | None = None,
) -> PropertyReport:
    """Block-sequenced probabilities must not depend on the block ordering.

    For every state in F, every subset T, every partition of T into blocks and
    every permutation of the blocks, the two nested-trace expressions (raw
    sequence probabilities, no renormalization) must agree within tolerance.
    Each value is the trace of the engine's memoized branch; a dead branch
    (trace at or below ``prob_tol``) counts as 0.
    """
    _check_prereq(marginals_report, "sequential_independence")
    engine = _orbits or _OrbitEngine(family, f)
    tracker = WorstTracker(tol)
    # One entry per canonical partition of each T: for every x_T (row) and
    # block ordering (column), the branch key (ordered blocks, their outcomes).
    parts, branches = [], 0
    for size in range(1, family.n + 1):
        for t_set in itertools.combinations(family.indices, size):
            x_ts = list(family.outcome_tuples(t_set))
            for blocks in _canonical_partitions(t_set):
                orders = list(itertools.permutations(range(len(blocks))))
                branches += len(orders) * len(x_ts) * len(f.states)
                if branches > max_branches:
                    raise CombinatorialLimitExceeded(f"sequential independence enumeration exceeded {max_branches}")
                keys = []
                for x_t in x_ts:
                    ys = tuple(tuple(x_t[t_set.index(i)] for i in b) for b in blocks)
                    keys.append([(tuple(blocks[k] for k in o), tuple(ys[k] for k in o)) for o in orders])
                parts.append((t_set, blocks, x_ts, orders, keys))
    for sid in range(len(f.states)):
        for t_set, blocks, x_ts, orders, keys in parts:
            vals = np.array([[engine.sequenced(pb, py, sid) for pb, py in row] for row in keys])
            tracker.add_array(np.abs(vals - vals[:, :1]), lambda k: {
                "kind": "sequential_independence", "state": sid, "t": list(t_set),
                "blocks": [list(b) for b in blocks], "sigma": [j + 1 for j in orders[k % len(orders)]],
                "x_t": list(x_ts[k // len(orders)]),
            })
    return _report("sequential_independence", tracker, tol)


def theorem1_check(
    family: MeasurementFamily,
    f: StateFamily,
    tol: float = CHECK_TOL,
    prob_tol: float = TAU_PROB,
    dedup_tol: float = CHECK_TOL,
    max_branches: int = MAX_BRANCHES,
    precomputed: dict[str, PropertyReport] | None = None,
    _orbits: _OrbitEngine | None = None,
) -> PropertyReport:
    """Marginals + disjointness + reducibility must imply sequential independence.

    If the three premise checks pass but sequential independence fails, that
    contradicts a proven implication, so it is flagged as a library bug.  If a
    premise fails the implication is vacuous and recorded as not applicable.
    Reports already computed for this family/state pair can be supplied via
    ``precomputed``; the missing premises and sequential independence share
    one orbit engine (``_orbits``, when one built for the same arguments is given).
    """
    engine = _orbits or _OrbitEngine(family, f, prob_tol, dedup_tol, max_branches)
    pre = dict(precomputed or {})
    missing = tuple(name for name in PROPERTY_NAMES[1:4] if pre.get(name) is None)
    if missing:
        pre.update(run_property_checks(family, f, missing, tol, prob_tol, dedup_tol, max_branches, _orbits=engine))
    marg, disj, red = (pre[name] for name in PROPERTY_NAMES[1:4])
    premises = {"marginals": marg, "disjointness": disj, "reducibility": red}
    details = {name: rep.passed for name, rep in premises.items()}
    if all(rep.passed for rep in premises.values()):
        seq = pre.get("sequential_independence") or check_sequential_independence(
            family, f, tol, max_branches, _orbits=engine
        )
        details["status"] = "applicable"
        details["contradiction"] = not seq.passed
        return PropertyReport(
            property_name="theorem1_implication",
            worst_residual=seq.worst_residual,
            witnesses=seq.witnesses,
            passed=seq.passed,
            tol=tol,
            details=details,
        )
    details["status"] = "not_applicable"
    details["contradiction"] = False
    failed = [name for name, rep in premises.items() if not rep.passed]
    witnesses = []
    for name in failed:
        witnesses.extend(premises[name].witnesses[: WITNESS_CAP // len(failed)])
    return PropertyReport(
        property_name="theorem1_implication",
        worst_residual=0.0,
        witnesses=witnesses,
        passed=True,
        tol=tol,
        details=details,
    )


def build_joint_distribution(
    family: MeasurementFamily, rho: np.ndarray, tol: float = CHECK_TOL
) -> JointDistributionTable:
    """The realized table W(rho, .) over all outcome tuples, clamped at zero."""
    cache = _FamilyCache(family)
    rho = as_matrix(rho)
    probabilities = {}
    for x in family.outcome_tuples(family.indices):
        probabilities[x] = max(0.0, w_functional(family, rho, x, _cache=cache))
    total = sum(probabilities.values())
    if abs(total - 1.0) > family.n * family.dim * tol:
        raise ValueError(f"joint distribution sums to {total}, not 1")
    return JointDistributionTable(family=family, state=rho, probabilities=probabilities)


def theorem2_verdict(
    family: MeasurementFamily,
    f: StateFamily,
    tol: float = CHECK_TOL,
    prob_tol: float = TAU_PROB,
    dedup_tol: float = CHECK_TOL,
    max_branches: int = MAX_BRANCHES,
    precomputed: dict[str, PropertyReport] | None = None,
    _orbits: _OrbitEngine | None = None,
) -> dict:
    """Both sides of the joint-distribution equivalence, evaluated numerically.

    Side A: all four distribution properties hold on F (plus the functional
    axioms).  Side B: the square roots are fully permutable on F and satisfy
    the on-state projector condition.  The two verdicts must agree.  Both
    sides read one orbit engine (``_orbits``, if built for the same arguments).
    """
    engine = _orbits or _OrbitEngine(family, f, prob_tol, dedup_tol, max_branches)
    required = PROPERTY_NAMES[1:]
    if precomputed is not None and all(name in precomputed for name in required):
        reports = precomputed
    else:
        reports = run_property_checks(
            family,
            f,
            tol=tol,
            prob_tol=prob_tol,
            dedup_tol=dedup_tol,
            max_branches=max_branches,
            _orbits=engine,
        )
    def3 = all(
        reports[name].passed
        for name in ("marginals", "disjointness", "reducibility", "sequential_independence")
    )
    perm = is_fully_permutable(family, f, tol, _orbits=engine)
    onstate = reports["on_state_projector"]
    side_b = perm.passed and onstate.passed
    return {
        "joint_distribution_exists": def3,
        "fully_permutable": perm.passed,
        "on_state_projectors": onstate.passed,
        "permutable_and_on_state_projectors": side_b,
        "equivalence_agrees": def3 == side_b,
        "reports": reports,
        "permutator_report": perm,
    }


def run_property_checks(
    family: MeasurementFamily,
    f: StateFamily,
    properties: tuple[str, ...] = PROPERTY_NAMES,
    tol: float = CHECK_TOL,
    prob_tol: float = TAU_PROB,
    dedup_tol: float = CHECK_TOL,
    max_branches: int = MAX_BRANCHES,
    _orbits: _OrbitEngine | None = None,
) -> dict[str, PropertyReport]:
    """Run the selected checks in dependency order, never raising on failures.

    Dependent checks still execute when marginals fails (their witnesses are
    the interesting output); the marginals verdict is recorded in each
    dependent report's details instead.  The checks share one orbit engine:
    ``_orbits`` if given (built for the same arguments), else a new one.
    """
    out: dict[str, PropertyReport] = {}
    marg: PropertyReport | None = None
    engine = _orbits or _OrbitEngine(family, f, prob_tol, dedup_tol, max_branches)
    orbit_args = (tol, prob_tol, dedup_tol, max_branches)
    for name in PROPERTY_NAMES:
        if name not in properties:
            continue
        if name == "functional_axioms":
            out[name] = check_functional_axioms(family, f, tol, _orbits=engine)
        elif name == "marginals":
            marg = check_marginals(family, f, *orbit_args, _orbits=engine)
            out[name] = marg
        elif name == "disjointness":
            out[name] = check_disjointness(family, f, *orbit_args, _orbits=engine)
        elif name == "reducibility":
            out[name] = check_reducibility(family, f, *orbit_args, _orbits=engine)
        elif name == "sequential_independence":
            out[name] = check_sequential_independence(family, f, tol, max_branches, _orbits=engine)
        elif name == "on_state_projector":
            out[name] = check_on_state_projector(family, f, tol, _orbits=engine)
        if marg is not None and name in ("disjointness", "reducibility", "sequential_independence"):
            out[name].details["marginals_passed"] = marg.passed
    return out
