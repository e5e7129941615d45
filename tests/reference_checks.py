"""Loop reference for the orbit engine and the batched property checks.

These are the straightforward implementations the package used before its
checks became batched contractions over a shared orbit engine: one
``orbit_states`` enumeration per call, one scalar trace per (operator, state)
pair, one ``add`` per residual.  The two sequenced checks (sequential
independence and the full permutator scan) recompute every ordering's
product from the state, with no dead-branch cut.  Tests compare the package
against them.
"""

import itertools

import numpy as np

from qjoint.distribution import (
    PropertyReport,
    _canonical_partitions,
    _FamilyCache,
    _ordered_partitions,
    _subsets,
)
from qjoint.errors import CombinatorialLimitExceeded
from qjoint.linalg import CHECK_TOL, MAX_BRANCHES, TAU_PROB, trace_distance
from qjoint.permutation import PermutatorReport, _sequenced_trace
from qjoint.reporting import WITNESS_CAP, WorstTracker

PREMISES = ("functional_axioms", "marginals", "disjointness", "reducibility", "on_state_projector")


def trace_inner(a, b) -> float:
    return float(np.sum(a.T * b).real)


def _restrict(x, full, s):
    pos = {i: k for k, i in enumerate(full)}
    return tuple(x[pos[i]] for i in s)


def orbit_states(family, u, f, prob_tol=TAU_PROB, dedup_tol=CHECK_TOL, max_branches=MAX_BRANCHES):
    """(kept states, work counts) for the orbit over ``u``, enumerated afresh."""
    cache = _FamilyCache(family)
    kept = []
    counts = {"branches": 0, "dead_branches": 0, "dedup_merges": 0}

    def keep(rho):
        if kept:
            diffs = np.linalg.norm(np.stack(kept) - rho[None, :, :], axis=(1, 2))
            near = np.nonzero(diffs / 2.0 < dedup_tol * np.sqrt(family.dim))[0]
            for k in near:
                if trace_distance(kept[k], rho) < dedup_tol:
                    counts["dedup_merges"] += 1
                    return
        kept.append(rho)

    for psi in f.states:
        keep((psi + psi.conj().T) / 2.0)
    for size in range(1, len(u) + 1):
        for t_set in itertools.combinations(u, size):
            for blocks in _ordered_partitions(t_set):
                outcome_spaces = [list(family.outcome_tuples(b)) for b in blocks]
                for ys in itertools.product(*outcome_spaces):
                    for psi in f.states:
                        counts["branches"] += 1
                        if counts["branches"] > max_branches:
                            raise CombinatorialLimitExceeded(
                                f"orbit enumeration exceeded {max_branches} branches"
                            )
                        rho = psi
                        dead = False
                        for b, y in zip(blocks, ys):
                            r = cache.root(b, y)
                            rho = r @ rho @ r.conj().T
                            if float(np.trace(rho).real) <= prob_tol:
                                dead = True
                                break
                        if dead:
                            counts["dead_branches"] += 1
                            continue
                        rho = rho / float(np.trace(rho).real)
                        keep((rho + rho.conj().T) / 2.0)
    return kept, counts


def _orbit(orbits, family, u, f, *tols):
    """``orbit_states`` memoized in the dict ``orbits`` (keyed by u), if given."""
    if orbits is None:
        return orbit_states(family, u, f, *tols)
    if u not in orbits:
        orbits[u] = orbit_states(family, u, f, *tols)
    return orbits[u]


def _report(name, tracker, tol, details=None):
    return PropertyReport(
        property_name=name,
        worst_residual=tracker.worst,
        witnesses=tracker.final_witnesses(),
        passed=tracker.worst <= tol,
        tol=tol,
        details={**(details or {}), "failure_count": tracker.failures},
    )


def check_functional_axioms(family, f, tol=CHECK_TOL):
    cache = _FamilyCache(family)
    tracker = WorstTracker(tol * family.dim)
    total = np.zeros((family.dim, family.dim), dtype=complex)
    outs = list(family.outcome_tuples(family.indices))
    for x in outs:
        total += cache.full_q(x)
    norm_res = float(np.abs(total - np.eye(family.dim)).max())
    tracker.add(norm_res, {"kind": "normalization"})

    def w(rho, x):
        return trace_inner(cache.full_q(x), rho)

    lin_tracker = WorstTracker(tol)
    for a in range(len(f.states)):
        b = (a + 1) % len(f.states)
        for lam in (0.25, 0.5, 0.75):
            mix = lam * f.states[a] + (1 - lam) * f.states[b]
            for x in outs:
                lhs = w(mix, x)
                rhs = lam * w(f.states[a], x) + (1 - lam) * w(f.states[b], x)
                lin_tracker.add(
                    abs(lhs - rhs), {"kind": "linearity", "states": [a, b], "lambda": lam}
                )
    neg_tracker = WorstTracker(tol)
    for sid, psi in enumerate(f.states):
        for x in outs:
            neg_tracker.add(
                max(0.0, -w(psi, x)), {"kind": "non_negativity", "state": sid, "x": list(x)}
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


def check_marginals(family, f, tol=CHECK_TOL, prob_tol=TAU_PROB, dedup_tol=CHECK_TOL, orbits=None,
                    max_branches=MAX_BRANCHES):
    cache = _FamilyCache(family)
    full = family.indices
    orbit, counts = _orbit(orbits, family, full, f, prob_tol, dedup_tol, max_branches)
    tracker = WorstTracker(tol)
    outs = list(family.outcome_tuples(full))
    op_worst = 0.0
    for i in full:
        for x in family.povm(i).outcomes:
            dev = float(np.abs(cache.q((i,), (x,)) - family.povm(i).element(x)).max())
            op_worst = max(op_worst, dev)
            tracker.add(
                dev if dev > family.dim * tol else 0.0,
                {"kind": "marginal_operator", "index": i, "outcome": x},
            )
    restricted = {s: [_restrict(x, full, s) for x in outs] for s in _subsets(full)}
    for rid, rho in enumerate(orbit):
        table = [trace_inner(cache.full_q(x), rho) for x in outs]
        for s in _subsets(full):
            for y in family.outcome_tuples(s):
                lhs = sum(w for w, xs in zip(table, restricted[s]) if xs == y)
                rhs = trace_inner(cache.q(s, y), rho)
                tracker.add(
                    abs(lhs - rhs),
                    {"kind": "marginal_sum", "state": rid, "s": list(s), "y": list(y)},
                )
    return _report(
        "marginals",
        tracker,
        tol,
        {"orbit_size": len(orbit), "operator_residual": op_worst, **counts},
    )


def check_disjointness(family, f, tol=CHECK_TOL, prob_tol=TAU_PROB, dedup_tol=CHECK_TOL, orbits=None,
                       max_branches=MAX_BRANCHES):
    cache = _FamilyCache(family)
    full = family.indices
    tracker = WorstTracker(tol)
    outs = list(family.outcome_tuples(full))
    for s in _subsets(full):
        if not s:
            continue
        rest = tuple(i for i in full if i not in s)
        orbit, _ = _orbit(orbits, family, rest, f, prob_tol, dedup_tol, max_branches)
        for y in family.outcome_tuples(s):
            r = cache.root(s, y)
            for x in outs:
                if _restrict(x, full, s) == y:
                    continue
                m = r.conj().T @ cache.full_q(x) @ r
                for rid, rho in enumerate(orbit):
                    tracker.add(
                        abs(trace_inner(m, rho)),
                        {"kind": "disjointness", "state": rid, "s": list(s), "y": list(y), "x": list(x)},
                    )
    return _report("disjointness", tracker, tol)


def check_reducibility(family, f, tol=CHECK_TOL, prob_tol=TAU_PROB, dedup_tol=CHECK_TOL, orbits=None,
                       max_branches=MAX_BRANCHES):
    cache = _FamilyCache(family)
    full = family.indices
    tracker = WorstTracker(tol)
    outs = list(family.outcome_tuples(full))
    for s in _subsets(full, include_full=False):
        rest = tuple(i for i in full if i not in s)
        orbit, _ = _orbit(orbits, family, rest, f, prob_tol, dedup_tol, max_branches)
        for x in outs:
            r = cache.root(s, _restrict(x, full, s))
            m = r.conj().T @ cache.full_q(x) @ r
            q = cache.full_q(x)
            for rid, rho in enumerate(orbit):
                tracker.add(
                    abs(trace_inner(m, rho) - trace_inner(q, rho)),
                    {"kind": "reducibility", "state": rid, "s": list(s), "x": list(x)},
                )
    return _report("reducibility", tracker, tol)


def check_on_state_projector(family, f, tol=CHECK_TOL):
    cache = _FamilyCache(family)
    full = family.indices
    tracker = WorstTracker(tol)
    outs = list(family.outcome_tuples(full))
    for s in _subsets(full):
        for y in family.outcome_tuples(s):
            r = cache.root(s, y)
            for x in outs:
                m = r.conj().T @ cache.full_q(x) @ r
                match = _restrict(x, full, s) == y
                q = cache.full_q(x)
                for sid, psi in enumerate(f.states):
                    lhs = trace_inner(m, psi)
                    rhs = trace_inner(q, psi) if match else 0.0
                    tracker.add(
                        abs(lhs - rhs),
                        {"kind": "on_state_projector", "state": sid, "s": list(s), "y": list(y), "x": list(x)},
                    )
    return _report("on_state_projector", tracker, tol)


def check_sequential_independence(family, f, tol=CHECK_TOL):
    cache = _FamilyCache(family)
    tracker = WorstTracker(tol)

    def sequenced_value(blocks, ys, psi):
        cur = psi
        for b, y in zip(blocks[:-1], ys[:-1]):
            r = cache.root(b, y)
            cur = r @ cur @ r.conj().T
        return trace_inner(cache.q(blocks[-1], ys[-1]), cur)

    for sid, psi in enumerate(f.states):
        for size in range(1, family.n + 1):
            for t_set in itertools.combinations(family.indices, size):
                for blocks in _canonical_partitions(t_set):
                    sigmas = list(itertools.permutations(range(len(blocks))))
                    for x_t in family.outcome_tuples(t_set):
                        xmap = dict(zip(t_set, x_t))
                        ys = tuple(tuple(xmap[i] for i in b) for b in blocks)
                        values = {
                            order: sequenced_value(
                                tuple(blocks[k] for k in order), tuple(ys[k] for k in order), psi
                            )
                            for order in sigmas
                        }
                        ident = values[sigmas[0]]
                        for order in sigmas:
                            tracker.add(
                                abs(ident - values[order]),
                                {
                                    "kind": "sequential_independence",
                                    "state": sid,
                                    "t": list(t_set),
                                    "blocks": [list(b) for b in blocks],
                                    "sigma": [k + 1 for k in order],
                                    "x_t": list(x_t),
                                },
                            )
    return _report("sequential_independence", tracker, tol)


def is_fully_permutable(family, states, tol):
    tracker = WorstTracker(tol)
    per_state = []
    full = family.indices
    sigmas = list(itertools.permutations(range(1, family.n + 1)))
    for sid, psi in enumerate(states):
        state_worst = 0.0
        for y in family.outcome_tuples(full):
            ops = [family.povm(i).root(x) for i, x in zip(full, y)]
            values = {sigma: _sequenced_trace(ops, psi, [k - 1 for k in sigma]) for sigma in sigmas}
            for sigma in sigmas:
                d = abs(values[sigmas[0]] - values[sigma])
                state_worst = max(state_worst, d)
                tracker.add(d, {"state": sid, "outcomes": list(y), "sigma": list(sigma)})
        per_state.append((sid, state_worst))
    return PermutatorReport(
        s=family.n,
        worst_trace_defect=tracker.worst,
        worst_vector_defect=0.0,
        witness_permutation=tuple(tracker.worst_witness["sigma"]) if tracker.worst > tol else None,
        per_state=per_state,
        passed=tracker.worst <= tol,
        tol=tol,
        witnesses=tracker.final_witnesses(),
        mode="trace",
    )


def reference_reports(family, f, tol=CHECK_TOL, prob_tol=TAU_PROB, dedup_tol=CHECK_TOL):
    """The five engine-backed reports, each computed by its loop reference
    (orbits memoized by index set across the three orbit checks)."""
    orbit_args = (tol, prob_tol, dedup_tol, {})
    return {
        "functional_axioms": check_functional_axioms(family, f, tol),
        "marginals": check_marginals(family, f, *orbit_args),
        "disjointness": check_disjointness(family, f, *orbit_args),
        "reducibility": check_reducibility(family, f, *orbit_args),
        "on_state_projector": check_on_state_projector(family, f, tol),
    }
