"""On-state permutators, pairwise commutation defects, permutability verdicts.

For operators ``R_1 .. R_s`` (note: ``R_1`` acts on the state first) and a
permutation ``sigma`` of ``{1..s}``, the permutator on a state ``psi`` is

    Tr(R_s ... R_1 psi R_1† ... R_s†) - Tr(R_sigma(s) ... R_sigma(1) psi R_sigma(1)† ... R_sigma(s)†)

and the vector-level defect for a pure state ``|phi>`` is

    || (R_s ... R_1 - R_sigma(s) ... R_sigma(1)) |phi> ||.

Permutations are tuples ``(sigma(1), ..., sigma(s))`` of 1-based values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .errors import CombinatorialLimitExceeded, DimensionMismatch, NotProjective
from .linalg import MAX_N, as_matrix, as_vector, check_same_dim, pure_state_vector
from .measurement import MeasurementFamily
from .reporting import WorstTracker

__all__ = [
    "PermutatorReport",
    "check_permutation",
    "permutator_trace",
    "vector_permutation_defect",
    "pairwise_commutation_defects",
    "is_fully_permutable",
    "is_t_permutable",
    "complemented_t_permutable",
]

@dataclass
class PermutatorReport:
    """Worst permutator defects over an enumeration, with witnesses."""

    s: int
    worst_trace_defect: float
    worst_vector_defect: float
    witness_permutation: tuple[int, ...] | None  # sigma of the worst residual; None unless it fails
    per_state: list[tuple[int, float]]
    passed: bool
    tol: float
    witnesses: list[dict] = field(default_factory=list)
    mode: str = "trace"


def check_permutation(sigma, s: int) -> tuple[int, ...]:
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(1, s + 1)):
        raise ValueError(f"{sigma} is not a permutation of 1..{s}")
    return sigma


def _apply_in_order(ops: list[np.ndarray], phi: np.ndarray, order) -> np.ndarray:
    out = phi
    for k in order:
        out = ops[k] @ out
    return out


def _sequenced_trace(ops: list[np.ndarray], psi: np.ndarray, order) -> float:
    """Tr(M psi M†) for M = R_{order[-1]} ... R_{order[0]}: ops applied in listed order (0-based)."""
    m = _apply_in_order(ops, np.eye(psi.shape[0]), order)
    return float(np.trace(m @ psi @ m.conj().T).real)


def permutator_trace(ops, psi, sigma) -> float:
    """Difference of sequenced-measurement traces: identity ordering minus sigma."""
    ops = [as_matrix(o) for o in ops]
    psi = as_matrix(psi)
    check_same_dim(psi, *ops)
    s = len(ops)
    sigma = check_permutation(sigma, s)
    ident = _sequenced_trace(ops, psi, range(s))
    other = _sequenced_trace(ops, psi, tuple(k - 1 for k in sigma))
    return ident - other


def vector_permutation_defect(ops, phi, sigma) -> float:
    """|| (R_s...R_1 - R_sigma(s)...R_sigma(1)) |phi> ||."""
    ops = [as_matrix(o) for o in ops]
    phi = as_vector(phi)
    if any(o.shape[0] != phi.shape[0] for o in ops):
        raise DimensionMismatch("operator/state dimensions differ")
    s = len(ops)
    sigma = check_permutation(sigma, s)
    a = _apply_in_order(ops, phi, range(s))
    b = _apply_in_order(ops, phi, tuple(k - 1 for k in sigma))
    return float(np.linalg.norm(a - b))


def pairwise_commutation_defects(ops, phi) -> np.ndarray:
    """Symmetric matrix with entries ||(R_i R_j - R_j R_i)|phi>||, zero diagonal."""
    ops = [as_matrix(o) for o in ops]
    phi = as_vector(phi)
    if any(o.shape[0] != phi.shape[0] for o in ops):
        raise DimensionMismatch("operator/state dimensions differ")
    s = len(ops)
    out = np.zeros((s, s))
    for i in range(s):
        for j in range(i + 1, s):
            d = np.linalg.norm(ops[i] @ (ops[j] @ phi) - ops[j] @ (ops[i] @ phi))
            out[i, j] = out[j, i] = d
    return out


def _state_list(f) -> list[np.ndarray]:
    states = getattr(f, "states", f)
    return [as_matrix(s) for s in states]


def is_fully_permutable(family: MeasurementFamily, f, tol: float, _orbits=None) -> PermutatorReport:
    """Scan trace permutators over one square root per measurement.

    For every state, every choice of one outcome per measurement and every
    permutation of the resulting N-tuple of square roots, the trace permutator
    must vanish within ``tol``.  Each sequenced trace is read from an orbit
    engine over the same family and states (``_orbits``, else a new one), in
    which a dead branch counts as 0.  ``witness_permutation`` is None on a pass.
    """
    if family.n > MAX_N:
        raise CombinatorialLimitExceeded(f"N={family.n} exceeds cap {MAX_N}")
    if _orbits is None:
        from .distribution import _OrbitEngine  # deferred: distribution imports this module

        _orbits = _OrbitEngine(family, SimpleNamespace(states=_state_list(f)))
    tracker = WorstTracker(tol)
    per_state = []
    full = family.indices
    orders = list(itertools.permutations(range(family.n)))
    outs = list(family.outcome_tuples(full))
    keys = [[(tuple((full[k],) for k in o), tuple((y[k],) for k in o)) for o in orders] for y in outs]
    for sid in range(len(getattr(f, "states", f))):
        vals = np.array([[_orbits.sequenced(b, ys, sid) for b, ys in row] for row in keys])
        residuals = np.abs(vals - vals[:, :1])
        tracker.add_array(
            residuals,
            lambda k: {
                "state": sid,
                "outcomes": list(outs[k // len(orders)]),
                "sigma": [j + 1 for j in orders[k % len(orders)]],
            },
        )
        per_state.append((sid, float(residuals.max())))
    return PermutatorReport(
        s=family.n,
        worst_trace_defect=tracker.worst,
        worst_vector_defect=0.0,
        witness_permutation=_failing_sigma(tracker),
        per_state=per_state,
        passed=tracker.worst <= tol,
        tol=tol,
        witnesses=tracker.final_witnesses(),
        mode="trace",
    )


def _failing_sigma(tracker: WorstTracker) -> tuple[int, ...] | None:
    """The sigma of the worst residual when it fails; below tolerance it is noise."""
    return tuple(tracker.worst_witness["sigma"]) if tracker.worst > tracker.tol else None


def _vector_mode_applicable(family: MeasurementFamily, states: list[np.ndarray]) -> bool:
    binary_projective = family.projective and all(
        p.outcomes == (0, 1) for p in family.povms
    )
    return binary_projective and all(pure_state_vector(s) is not None for s in states)


def _subset_scan(
    family: MeasurementFamily,
    states: list[np.ndarray],
    t: int,
    tol: float,
    sign_choices: bool,
    force_trace: bool,
) -> PermutatorReport:
    if family.n > MAX_N:
        raise CombinatorialLimitExceeded(f"N={family.n} exceeds cap {MAX_N}")
    if not 1 <= t <= family.n:
        raise ValueError(f"t={t} outside 1..{family.n}")
    vector_mode = not force_trace and _vector_mode_applicable(family, states)
    tracker = WorstTracker(tol)
    per_state = []
    sigmas = list(itertools.permutations(range(1, t + 1)))
    worst_vec = 0.0
    worst_trace = 0.0
    for sid, psi in enumerate(states):
        phi = pure_state_vector(psi) if vector_mode else None
        state_worst = 0.0
        for subset in itertools.combinations(family.indices, t):
            if vector_mode:
                if sign_choices:
                    selections = itertools.product((0, 1), repeat=t)
                else:
                    selections = [(1,) * t]
                for sel in selections:
                    ops = [family.povm(i).root(b) for i, b in zip(subset, sel)]
                    base = _apply_in_order(ops, phi, range(t))
                    for sigma in sigmas:
                        cur = _apply_in_order(ops, phi, tuple(k - 1 for k in sigma))
                        d = float(np.linalg.norm(base - cur))
                        state_worst = max(state_worst, d)
                        worst_vec = max(worst_vec, d)
                        tracker.add(
                            d,
                            {
                                "state": sid,
                                "subset": list(subset),
                                "selection": list(sel),
                                "sigma": list(sigma),
                            },
                        )
            else:
                for y in family.outcome_tuples(subset):
                    ops = [family.povm(i).root(x) for i, x in zip(subset, y)]
                    values = [_sequenced_trace(ops, psi, [k - 1 for k in sigma]) for sigma in sigmas]
                    for sigma, value in zip(sigmas, values):
                        d = abs(values[0] - value)
                        state_worst = max(state_worst, d)
                        worst_trace = max(worst_trace, d)
                        tracker.add(
                            d,
                            {
                                "state": sid,
                                "subset": list(subset),
                                "outcomes": list(y),
                                "sigma": list(sigma),
                            },
                        )
        per_state.append((sid, state_worst))
    return PermutatorReport(
        s=t,
        worst_trace_defect=worst_trace,
        worst_vector_defect=worst_vec,
        witness_permutation=_failing_sigma(tracker),
        per_state=per_state,
        passed=tracker.worst <= tol,
        tol=tol,
        witnesses=tracker.final_witnesses(),
        mode="vector" if vector_mode else "trace",
    )


def is_t_permutable(
    family: MeasurementFamily, f, t: int, tol: float, trace_mode: bool = False
) -> PermutatorReport:
    """Order-independence of every size-t subset of the measurements.

    For binary projective measurements on pure states this checks the vector
    equalities for the projector tuple of each subset; ``trace_mode=True``
    forces the stricter trace-permutator scan over all outcome tuples, which
    is also the fallback for non-projective measurements or mixed states.
    """
    return _subset_scan(family, _state_list(f), t, tol, sign_choices=False, force_trace=trace_mode)


def complemented_t_permutable(
    family: MeasurementFamily, f, t: int, tol: float
) -> PermutatorReport:
    """t-permutability under every substitution P_i -> 1 - P_i.

    Only defined for binary projective families.  In vector mode all 2^t sign
    choices are scanned; the trace-mode fallback over all outcome tuples covers
    the complements by construction.
    """
    if not (family.projective and all(p.outcomes == (0, 1) for p in family.povms)):
        raise NotProjective("complemented scan needs binary projective measurements")
    return _subset_scan(family, _state_list(f), t, tol, sign_choices=True, force_trace=False)
