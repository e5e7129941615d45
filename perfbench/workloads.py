"""The workloads: their inputs, one operation each, and its output check.

Every workload is a fixed list of operations (one round).  The *shape* of the
list (kinds, N, dimensions, ranks, eigenvalue patterns) never depends on the
seed or the round, so the work per round is the same for every seed; the seed
and the round index draw the bases, states and weights, so no round repeats
another's inputs.  Inputs are made here with numpy and written as JSON files
into the run directory; the program sees only those files (or, for
``repair``, the arrays) and never its own random helpers.  ``search`` takes
no input but its CLI seed; its rounds are the same, and each runs in a fresh
process (see ``run.py``).

An operation returns ``(status, output)``; ``status`` is ``"ok"`` or
``"failed"`` (the program raised or exited with an unexpected code).  The
check runs outside the timed region and returns a list of problems, empty
when the output agrees with the oracles.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import oracles

CHECK_TOL = 1e-9  # agreement between a reported residual and its recomputation


# -- random inputs (benchmark's own numpy code) ----------------------------------

def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_projector(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    v = haar_unitary(rng, dim)[:, :rank]
    p = v @ v.conj().T
    return (p + p.conj().T) / 2.0


def random_unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    rho = rho / np.trace(rho).real
    return (rho + rho.conj().T) / 2.0


def vector_wire(v) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex)]


def matrix_wire(m) -> list:
    return [vector_wire(row) for row in np.asarray(m, dtype=complex)]


def wire_vector(obj) -> np.ndarray:
    return np.array([complex(a, b) for a, b in obj], dtype=complex)


def wire_matrix(obj) -> np.ndarray:
    return np.array([[complex(a, b) for a, b in row] for row in obj], dtype=complex)


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _call_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    """``qjoint.cli.main(argv)`` in process, stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# -- check families ---------------------------------------------------------------

COMMUTING = "commuting"            # globally commuting projective: every property holds
UNSHARP = "commuting_unsharp"      # permutable, yet no joint distribution
ORDER_DEPENDENT = "order_dependent"
# A family is order-dependent when its own permutator scan exceeds this.
ORDER_DEFECT = 1e-3


@dataclass
class Family:
    """One check input: its file, its kind and the oracle values for it."""

    kind: str
    path: str
    roots: list = field(repr=False)
    states: list = field(repr=False)
    seq_worst: float = 0.0
    perm_worst: float = 0.0


def _eigen_patterns(layout: np.random.Generator, dim: int, n: int, outcomes: int):
    """Per measurement, an outcome label for each basis vector; every label used."""
    patterns = []
    for _ in range(n):
        while True:
            labels = layout.integers(0, outcomes, size=dim)
            if len(set(labels.tolist())) == outcomes:
                break
        patterns.append(labels)
    return patterns


def _commuting_family(rng, layout, n, dim, outcomes, n_states, mixed):
    u = haar_unitary(rng, dim)
    elements = []
    for labels in _eigen_patterns(layout, dim, n, outcomes):
        elements.append([u @ np.diag((labels == x).astype(float)) @ u.conj().T
                         for x in range(outcomes)])
    if mixed:
        states = [random_density(rng, dim) for _ in range(n_states)]
    else:
        states = [random_unit_vector(rng, dim) for _ in range(n_states)]
    return elements, states


def _unsharp_family(rng, n, dim, outcomes):
    """Commuting POVMs whose eigenvalues are interior Dirichlet weights."""
    u = haar_unitary(rng, dim)
    elements = []
    for _ in range(n):
        w = rng.dirichlet(np.full(outcomes, 2.0), size=dim)
        elements.append([u @ np.diag(w[:, x]) @ u.conj().T for x in range(outcomes)])
    return elements, [random_unit_vector(rng, dim)]


def _order_dependent_family(rng, ranks, dim, n_states):
    """Random projectors, redrawn until the benchmark's own scan sees order dependence."""
    while True:
        projs = [random_projector(rng, dim, r) for r in ranks]
        states = [random_unit_vector(rng, dim) for _ in range(n_states)]
        elements = [[np.eye(dim) - p, p] for p in projs]
        if oracles.permutator_worst(elements, [oracles.density(s) for s in states]) > ORDER_DEFECT:
            return elements, states


# The sweep's fixed make-up: (kind, N, dim, outcomes or ranks, states, mixed).
# Every family is small (7-50 ms per check) so that a round takes about
# 0.25 s and each slot gets over fifty variants in a 30 s run.
SWEEP_SLOTS = (
    [(COMMUTING, 2, d, 2, 1 + d % 2, d % 4 == 0) for d in (2, 4, 6, 8)]
    + [(COMMUTING, 3, 3, 2, 1, False), (COMMUTING, 3, 4, 2, 1, True)]
    + [(COMMUTING, 2, d, 3, 2, True) for d in (3, 5)]
    + [(UNSHARP, 2, 2, 2, 1, False), (UNSHARP, 2, 3, 3, 1, False)]
    + [(ORDER_DEPENDENT, 2, 2, (1, 1), 1, False), (ORDER_DEPENDENT, 2, 3, (2, 1), 1, False),
       (ORDER_DEPENDENT, 2, 4, (1, 2), 1, False), (ORDER_DEPENDENT, 2, 6, (3, 1), 2, False),
       (ORDER_DEPENDENT, 3, 2, (1, 1, 1), 1, False)]
)


def _family_record(kind, path, elements, states) -> Family:
    roots = [[oracles.psd_sqrt(e) for e in es] for es in elements]
    return Family(kind, path, roots, [oracles.density(s) for s in states])


def make_sweep(seed: int, round_index: int, rundir: str) -> list[Family]:
    rng = np.random.default_rng([seed, 1, round_index])
    families = []
    for k, (kind, n, dim, shape, n_states, mixed) in enumerate(SWEEP_SLOTS):
        layout = np.random.default_rng([k, 7])
        if kind == COMMUTING:
            elements, states = _commuting_family(rng, layout, n, dim, shape, n_states, mixed)
        elif kind == UNSHARP:
            elements, states = _unsharp_family(rng, n, dim, shape)
        else:
            elements, states = _order_dependent_family(rng, shape, dim, n_states)
        payload = {
            "states": [matrix_wire(s) if s.ndim == 2 else vector_wire(s) for s in states],
            "measurements": [{"elements": [matrix_wire(e) for e in es]} for es in elements],
        }
        path = os.path.join(rundir, f"sweep_r{round_index:04d}_{k:03d}.json")
        _write_json(path, payload)
        families.append(_family_record(kind, path, elements, states))
    fill_oracles(families)
    return families


def run_check(qjoint, family: Family):
    code, out, err = _call_cli(qjoint.cli, ["check", "--input", family.path, "--json"])
    if code not in (0, 2):
        return "failed", (code, err)
    return "ok", (code, out)


def check_check(family: Family, output) -> list[str]:
    code, out = output
    try:
        result = json.loads(out)["result"]
        reports, t2, failed = result["reports"], result["theorem2"], result["failed"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable check output: {exc!r}"]
    problems = []
    if code != (2 if failed else 0):
        problems.append(f"exit {code} with failed={failed}")
    if not t2["equivalence_agrees"]:
        problems.append("equivalence does not agree")
    if family.kind == COMMUTING:
        if failed or not t2["joint_distribution_exists"]:
            problems.append(f"commuting family failed {failed}")
    elif family.kind == UNSHARP:
        if not t2["fully_permutable"] or t2["joint_distribution_exists"]:
            problems.append("unsharp family: expected permutable without joint distribution")
    else:
        if t2["joint_distribution_exists"]:
            problems.append("order-dependent family has a joint distribution")
        if not any(reports[name]["witnesses"] for name in failed):
            problems.append("order-dependent family: no failed property with a witness")
    seq = reports["sequential_independence"]["worst_residual"]
    if abs(seq - family.seq_worst) > CHECK_TOL:
        problems.append(f"sequential independence {seq!r} != oracle {family.seq_worst!r}")
    perm = t2["permutator"]["worst_trace_defect"]
    if abs(perm - family.perm_worst) > CHECK_TOL:
        problems.append(f"permutator {perm!r} != oracle {family.perm_worst!r}")
    return problems


def fill_oracles(families: list[Family]) -> None:
    for fam in families:
        fam.seq_worst = oracles.sequential_independence_worst(fam.roots, fam.states)
        fam.perm_worst = oracles.permutator_worst(fam.roots, fam.states)


# -- search -------------------------------------------------------------------------

# One-restart CLI searches at CLI seeds 0 .. SEARCH_SEEDS-1, a contiguous range
# from 0, at the CLI's default ranks 1,2,3,2 and tolerance 1e-7 but at dim 4.
# At the default dim 8 a restart takes 3-33 s, too long to repeat within a
# run; at dim 4 it takes 1-5 s.  Dim 4 is the smallest dimension at which a
# restart was seen to yield an instance: none of 32 restarts at dims 2-3 over
# eight rank patterns did.  At dim 4, CLI seed 2 yields one (block-swap
# defect 0.25) and seeds 0-1 and 3-23 do not, so each round holds exactly one
# verified counterexample on the current code.  A restart that finds none
# exits 2 with NoFeasiblePointFound: a completed restart, not a failure.
SEARCH_SEEDS = 3
SEARCH_DIM = 4
SEARCH_RANKS = (1, 2, 3, 2)
SEARCH_TOL = 1e-7           # the CLI default constraint tolerance


def run_search(qjoint, seed: int):
    code, out, err = _call_cli(qjoint.cli, [
        "search", "--dim", str(SEARCH_DIM), "--seed", str(seed), "--restarts", "1", "--json",
    ])
    if code == 0:
        return "ok", out
    if code == 2 and "NoFeasiblePointFound" in err:
        return "ok", None
    return "failed", (code, err)


def check_search(seed: int, output) -> list[str]:
    """Problems with a found instance; a restart that found none has no output."""
    if output is None:
        return []
    try:
        result = json.loads(output)["result"]
        phi = wire_vector(result["instance"]["state"])
        projs = [wire_matrix(p) for p in result["instance"]["projectors"]]
        objective = float(result["objective"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable search output: {exc!r}"]
    if len(projs) != len(SEARCH_RANKS) or phi.shape != (SEARCH_DIM,):
        return [f"{len(projs)} projectors on a state of shape {phi.shape}"]
    problems = []
    for k, (p, r) in enumerate(zip(projs, SEARCH_RANKS)):
        problems += [f"P{k + 1}: {msg}" for msg in oracles.projector_problems(p, r, 1e-9)]
    if abs(np.linalg.norm(phi) - 1.0) > 1e-9:
        problems.append("state not unit")
    worst_pair = max(oracles.pairwise_defects(projs, phi))
    if worst_pair > SEARCH_TOL:
        problems.append(f"pairwise commutator on state {worst_pair:.3e}")
    defect = oracles.block_swap_defect(projs, phi)
    if defect < 0.1:
        problems.append(f"block-swap defect {defect:.3e} below 0.1")
    if abs(defect - objective) > CHECK_TOL:
        problems.append(f"defect {defect!r} != objective {objective!r}")
    return problems


# -- repair -------------------------------------------------------------------------

REPAIR_TRIPLES = 480  # dims cycle 2..16
CLOSED_FORMS = 4      # dim-2 cases at angles drawn from (pi/24, 11 pi/24)


@dataclass
class Triple:
    p1: np.ndarray
    p2: np.ndarray
    psi: np.ndarray
    epsilon: float
    theta: float | None = None


def make_repair(seed: int, round_index: int) -> list[Triple]:
    rng = np.random.default_rng([seed, 3, round_index])
    out = []
    for k in range(REPAIR_TRIPLES):
        dim = 2 + k % 15
        r1 = 1 + (k // 15) % (dim - 1)
        r2 = 1 + (k // 7) % (dim - 1)
        p1 = random_projector(rng, dim, r1)
        p2 = random_projector(rng, dim, r2)
        psi = random_unit_vector(rng, dim)
        out.append(Triple(p1, p2, psi, oracles.commutator_defect(p1, p2, psi)))
    p1 = np.diag([1.0, 0.0]).astype(complex)
    psi = np.array([1.0, 0.0], dtype=complex)
    for theta in rng.uniform(math.pi / 24, 11 * math.pi / 24, size=CLOSED_FORMS):
        v = np.array([math.cos(theta), math.sin(theta)], dtype=complex)
        p2 = np.outer(v, v.conj())
        out.append(Triple(p1, p2, psi, oracles.commutator_defect(p1, p2, psi), theta))
    return out


def run_repair(qjoint, t: Triple):
    try:
        res = qjoint.repair_projector(t.p1, t.p2, t.psi)
    except (qjoint.QjointError, ValueError) as exc:
        return "failed", repr(exc)
    return "ok", res


def check_repair(t: Triple, res) -> list[str]:
    dim = t.p1.shape[0]
    prime = np.asarray(res.p2_prime)
    problems = []
    if abs(res.epsilon - t.epsilon) > 1e-12:
        problems.append(f"epsilon {res.epsilon!r} != {t.epsilon!r}")
    comm = float(np.abs(t.p1 @ prime - prime @ t.p1).max())
    if comm > dim * 1e-9:
        problems.append(f"commutator {comm:.3e}")
    idem = float(np.abs(prime @ prime - prime).max())
    if idem > 1e-9:
        problems.append(f"idempotence {idem:.3e}")
    dist = float(np.linalg.norm((prime - t.p2) @ t.psi))
    if dist > math.sqrt(2.0) * t.epsilon + 1e-9:
        problems.append(f"distance {dist:.3e} above sqrt(2) eps")
    if t.theta is not None:
        eps, expected = oracles.repair_closed_form(t.theta)
        if abs(res.epsilon - eps) > 1e-12 or abs(res.on_state_distance - expected) > 1e-12:
            problems.append(f"closed form at theta={t.theta:.6f}")
    return problems


# -- workloads ------------------------------------------------------------------------

# Reference chunks between the operations (see worker.py), as (operations
# between two chunks, iterations per chunk).  A chunk takes 1.5-3 ms (35-60
# ms on search), about a tenth of the time of the operations it brackets
# (a thirtieth on search), and sits close enough to them to see the host's
# speed while they ran.
REFERENCE = {"search": (1, 1500), "check_sweep": (1, 80), "repair": (32, 60)}


def build(name: str, qjoint, seed: int, rundir: str):
    """``(make_round, run, check)`` for a workload: ``make_round(r)`` gives the
    operations of round ``r``, ``run(op) -> (status, output)`` is the timed
    call and ``check(op, output) -> problems`` its check."""
    if name == "search":
        return (lambda r: list(range(SEARCH_SEEDS)),
                lambda op: run_search(qjoint, op), check_search)
    if name == "check_sweep":
        return (lambda r: make_sweep(seed, r, rundir),
                lambda op: run_check(qjoint, op), check_check)
    if name == "repair":
        return lambda r: make_repair(seed, r), lambda op: run_repair(qjoint, op), check_repair
    raise ValueError(f"unknown workload {name!r}")
