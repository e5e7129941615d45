"""A state and four projectors that commute pairwise on the state yet give
order-dependent sequence probabilities, plus a seeded search for new instances.

The bundled instance lives in dimension 8 with projector ranks (1, 2, 3, 2).
All pairwise commutators annihilate the state to six decimal digits, but the
product ``P1 P2 P3 P4`` and its block-swapped counterpart ``P3 P4 P1 P2``
differ on the state by norm 0.25: pairwise order-independence does not imply
full order-independence.  The search reproduces instances of this shape by
penalty-method ascent over unitary generators followed by a feasibility
polish, and is deterministic given its seed.

Both stages run on exact derivatives.  One eigendecomposition of each
projector's generator yields the projector and its tangents, so L-BFGS-B
receives the gradient of the penalized objective and the least-squares polish
the Jacobian of the commutator residuals, with no finite differences.  At the
default dimension 8 a restart takes 0.1-1.6 s (median 0.24 s over seeds
0-63, one 2-vCPU host), and the 64-restart default about 25 s.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.optimize import least_squares, minimize

from .distribution import PropertyReport, StateFamily
from .errors import NoFeasiblePointFound
from .linalg import (
    GOLDEN_CONSTRAINT_TOL,
    GOLDEN_DEFECT_TOL,
    MAX_DIM,
    MAX_N,
    as_matrix,
    as_vector,
    hermiticity_residual,
    pure_density,
    vector_norm,
)
from .measurement import MeasurementFamily

__all__ = [
    "CounterexampleInstance",
    "SearchConfig",
    "SearchResult",
    "load_appendix_instance",
    "complemented_instance",
    "induced_family",
    "induced_state_family",
    "block_swap_defect",
    "permutation_defect_spectrum",
    "verify_instance",
    "parametrize_projector",
    "search",
    "REGRESSION_SEEDS",
]

# Seeds for which `search` at the default dimension/ranks returns a verified
# instance with objective >= 0.1 from a single restart; kept as regression
# anchors.  Over seeds 0-63 with one restart each, 5 return a verified
# instance and 4 of those (0, 17, 22, 51) reach objective >= 0.1, so a
# production run should keep the default restart count instead.
REGRESSION_SEEDS: tuple[int, ...] = (0, 17, 22)

_PHI = np.array(
    [
        -0.135381 - 0.0503468j,
        0.325588 - 0.222403j,
        -0.209447 - 0.0404665j,
        -0.418336 + 0.130098j,
        -0.503693 - 0.299414j,
        0.379842 + 0.205081j,
        -0.179291 - 0.0381456j,
        0.0840381 - 0.125995j,
    ]
)

_EIGENVECTORS: tuple[tuple[np.ndarray, ...], ...] = (
    (
        np.array(
            [
                0.440777 + 0.168408j,
                0.208781 - 0.37351j,
                0.247514 + 0.0276065j,
                -0.297971 + 0.0252308j,
                0.118798 + 0.112225j,
                -0.293428 + 0.270889j,
                -0.193073 + 0.218869j,
                -0.41405 + 0.0j,
            ]
        ),
    ),
    (
        np.array(
            [
                -0.497016 - 0.094035j,
                0.417527 - 0.0737062j,
                -0.000125303 + 0.35123j,
                0.166569 - 0.187245j,
                -0.373202 + 0.205633j,
                0.318452 - 0.251475j,
                -0.107473 - 0.123987j,
                -0.0711523 + 0.0j,
            ]
        ),
        np.array(
            [
                0.365906 + 0.0620997j,
                0.418728 - 0.2059j,
                0.229457 + 0.0557421j,
                -0.140393 + 0.0945029j,
                -0.199205 - 0.188139j,
                0.103617 + 0.279644j,
                -0.546498 + 0.147197j,
                0.275295 + 0.0j,
            ]
        ),
    ),
    (
        np.array(
            [
                -0.453059 + 0.181543j,
                -0.452841 + 0.0154095j,
                -0.17948 - 0.222827j,
                -0.230355 - 0.0526756j,
                -0.0918752 - 0.250754j,
                0.242416 - 0.126917j,
                0.300832 - 0.287566j,
                0.315259 + 0.0j,
            ]
        ),
        np.array(
            [
                -0.0586669 - 0.269559j,
                -0.280155 + 0.373271j,
                -0.150758 - 0.158539j,
                0.158793 - 0.0454731j,
                0.165888 + 0.362832j,
                -0.110453 - 0.310755j,
                0.353894 - 0.00811586j,
                -0.487537 + 0.0j,
            ]
        ),
        np.array(
            [
                -0.182739 - 0.114718j,
                0.246775 - 0.134678j,
                -0.513357 - 0.193655j,
                -0.10451 + 0.421294j,
                0.111183 + 0.122625j,
                -0.200917 - 0.25897j,
                -0.0290851 + 0.398494j,
                0.30081 + 0.0j,
            ]
        ),
    ),
    (
        np.array(
            [
                -0.464187 + 0.213035j,
                -0.364421 + 0.119836j,
                -0.324984 - 0.23097j,
                -0.256841 + 0.0478513j,
                -0.0700499 - 0.192822j,
                0.146148 - 0.225755j,
                0.243944 - 0.284786j,
                0.331272 + 0.0j,
            ]
        ),
        np.array(
            [
                0.111757 + 0.151275j,
                0.236223 - 0.323279j,
                0.157312 - 0.115385j,
                -0.30864 + 0.0990552j,
                -0.260931 - 0.236239j,
                0.240497 + 0.13559j,
                -0.453404 + 0.12357j,
                0.490125 + 0.0j,
            ]
        ),
    ),
)


@dataclass
class CounterexampleInstance:
    """A candidate instance: unit state plus a list of projectors.

    ``tol`` is the validation tier; the bundled instance is published to six
    decimal digits, so it validates at 1e-6 rather than machine precision.
    """

    dim: int
    state: np.ndarray
    projectors: list[np.ndarray]
    eigenvector_form: list[list[np.ndarray]] | None = None
    tol: float = GOLDEN_CONSTRAINT_TOL

    def __post_init__(self) -> None:
        self.state = as_vector(self.state)
        self.projectors = [as_matrix(p) for p in self.projectors]
        if self.state.shape != (self.dim,):
            raise ValueError(f"state has shape {self.state.shape}, expected ({self.dim},)")
        if abs(vector_norm(self.state) - 1.0) > self.tol:
            raise ValueError(f"state norm deviates by {abs(vector_norm(self.state) - 1.0):.3e}")
        for k, p in enumerate(self.projectors):
            if p.shape != (self.dim, self.dim):
                raise ValueError(f"projector {k + 1} has shape {p.shape}")
            idem = float(np.abs(p @ p - p).max())
            herm = hermiticity_residual(p)
            if max(idem, herm) > self.tol:
                raise ValueError(
                    f"projector {k + 1} fails validation: idempotence {idem:.3e}, "
                    f"hermiticity {herm:.3e}"
                )
        if self.eigenvector_form is not None:
            if len(self.eigenvector_form) != len(self.projectors):
                raise ValueError("eigenvector form does not match projector count")
            for k, (p, vs) in enumerate(zip(self.projectors, self.eigenvector_form)):
                built = sum(np.outer(v, v.conj()) for v in vs)
                if float(np.abs(built - p).max()) > self.tol:
                    raise ValueError(f"projector {k + 1} disagrees with its eigenvectors")

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(int(round(float(np.trace(p).real))) for p in self.projectors)


def load_appendix_instance() -> CounterexampleInstance:
    """The bundled dimension-8 instance, built from its published eigenvectors."""
    projectors = [
        sum(np.outer(v, v.conj()) for v in vs) for vs in _EIGENVECTORS
    ]
    return CounterexampleInstance(
        dim=8,
        state=_PHI.copy(),
        projectors=projectors,
        eigenvector_form=[list(vs) for vs in _EIGENVECTORS],
        tol=GOLDEN_CONSTRAINT_TOL,
    )


def complemented_instance(inst: CounterexampleInstance) -> CounterexampleInstance:
    """The same instance with every projector replaced by its complement."""
    eye = np.eye(inst.dim)
    return CounterexampleInstance(
        dim=inst.dim,
        state=inst.state.copy(),
        projectors=[eye - p for p in inst.projectors],
        eigenvector_form=None,
        tol=inst.tol,
    )


def induced_family(inst: CounterexampleInstance) -> MeasurementFamily:
    """The binary projective measurement family {complement, projector} per index."""
    return MeasurementFamily.binary_projective(inst.projectors, tol=inst.tol)


def induced_state_family(inst: CounterexampleInstance) -> StateFamily:
    """The single-state family containing the instance state as a density matrix."""
    return StateFamily([pure_density(inst.state)], tol=max(inst.tol, 1e-6))


def _ordered_product(projectors: list[np.ndarray], order, phi: np.ndarray) -> np.ndarray:
    out = phi
    for k in reversed(order):
        out = projectors[k] @ out
    return out


def block_swap_defect(projectors: list[np.ndarray], phi: np.ndarray) -> float:
    """``|| (P1..Ph P_{h+1}..Pn - P_{h+1}..Pn P1..Ph) phi ||`` at the half split."""
    n = len(projectors)
    half = n // 2
    identity = tuple(range(n))
    swapped = tuple(range(half, n)) + tuple(range(half))
    return vector_norm(
        _ordered_product(projectors, identity, phi)
        - _ordered_product(projectors, swapped, phi)
    )


def permutation_defect_spectrum(
    projectors: list[np.ndarray], phi: np.ndarray
) -> list[dict]:
    """Defect of every reordering against the ascending product, 1-based sigmas."""
    n = len(projectors)
    base = _ordered_product(projectors, tuple(range(n)), phi)
    out = []
    for order in itertools.permutations(range(n)):
        d = vector_norm(_ordered_product(projectors, order, phi) - base)
        out.append({"sigma": [k + 1 for k in order], "defect": d})
    return out


def verify_instance(
    inst: CounterexampleInstance,
    tol: float = GOLDEN_CONSTRAINT_TOL,
    expected_defect: float | None = None,
    defect_tol: float = GOLDEN_DEFECT_TOL,
) -> PropertyReport:
    """Check the constraints and measure the order-dependence of an instance.

    Constraints: each projector Hermitian and idempotent within ``tol``, unit
    state norm within ``tol``, every pairwise commutator annihilating the
    state within ``tol``, and (when present) agreement with the eigenvector
    form.  The report's details carry the block-swap defect, the full defect
    spectrum over all reorderings, and ``is_counterexample``: constraints
    pass and the block-swap defect exceeds ``10 * tol``.  When
    ``expected_defect`` is given the defect must also match it within
    ``defect_tol`` for the report to pass.
    """
    phi = inst.state
    witnesses: list[dict] = []
    idem = [float(np.abs(p @ p - p).max()) for p in inst.projectors]
    herm = [hermiticity_residual(p) for p in inst.projectors]
    norm_dev = abs(vector_norm(phi) - 1.0)
    eig_dev = None
    if inst.eigenvector_form is not None:
        eig_dev = [
            float(np.abs(sum(np.outer(v, v.conj()) for v in vs) - p).max())
            for p, vs in zip(inst.projectors, inst.eigenvector_form)
        ]
    pairwise = []
    for i, j in itertools.combinations(range(len(inst.projectors)), 2):
        d = vector_norm(
            inst.projectors[i] @ (inst.projectors[j] @ phi)
            - inst.projectors[j] @ (inst.projectors[i] @ phi)
        )
        pairwise.append({"pair": [i + 1, j + 1], "defect": d})

    constraint_worst = 0.0
    for k, (a, b) in enumerate(zip(idem, herm)):
        constraint_worst = max(constraint_worst, a, b)
        if max(a, b) > tol:
            witnesses.append({"kind": "projector", "index": k + 1, "idempotence": a, "hermiticity": b})
    constraint_worst = max(constraint_worst, norm_dev)
    if norm_dev > tol:
        witnesses.append({"kind": "state_norm", "deviation": norm_dev})
    if eig_dev is not None:
        constraint_worst = max(constraint_worst, max(eig_dev))
        for k, d in enumerate(eig_dev):
            if d > tol:
                witnesses.append({"kind": "eigenvector_form", "index": k + 1, "deviation": d})
    for entry in pairwise:
        constraint_worst = max(constraint_worst, entry["defect"])
        if entry["defect"] > tol:
            witnesses.append({"kind": "pairwise_commutator", **entry})

    swap = block_swap_defect(inst.projectors, phi)
    spectrum = permutation_defect_spectrum(inst.projectors, phi)
    worst_entry = max(spectrum, key=lambda e: e["defect"])
    constraints_ok = constraint_worst <= tol
    passed = constraints_ok
    details = {
        "state_norm_deviation": norm_dev,
        "idempotence": idem,
        "hermiticity": herm,
        "eigenvector_consistency": eig_dev,
        "pairwise_defects": pairwise,
        "worst_pairwise_defect": max(e["defect"] for e in pairwise) if pairwise else 0.0,
        "block_swap_defect": swap,
        "defect_spectrum": spectrum,
        "worst_defect": worst_entry["defect"],
        "worst_sigma": worst_entry["sigma"],
        "is_counterexample": constraints_ok and swap > 10.0 * tol,
    }
    if expected_defect is not None:
        deviation = abs(swap - expected_defect)
        details["expected_defect"] = expected_defect
        details["defect_deviation"] = deviation
        if deviation > defect_tol:
            passed = False
            witnesses.append(
                {"kind": "defect_mismatch", "measured": swap, "expected": expected_defect}
            )
    return PropertyReport(
        property_name="counterexample_instance",
        worst_residual=constraint_worst,
        witnesses=witnesses,
        passed=passed,
        tol=tol,
        details=details,
    )


@dataclass
class SearchConfig:
    """Reproducible search configuration; restart ``r`` owns sub-seed (seed, r)."""

    dim: int = 8
    n_projectors: int = 4
    ranks: tuple[int, ...] = (1, 2, 3, 2)
    seed: int = 0
    restarts: int = 64
    penalty_weights: tuple[float, ...] = (1e2, 1e4, 1e6)
    max_iterations: int = 150
    constraint_tol: float = 1e-7

    def __post_init__(self) -> None:
        self.ranks = tuple(int(r) for r in self.ranks)
        if self.dim < 2 or self.dim > MAX_DIM:
            raise ValueError(f"dimension {self.dim} outside [2, {MAX_DIM}]")
        if self.n_projectors < 2 or self.n_projectors > MAX_N:
            raise ValueError(f"projector count {self.n_projectors} outside [2, {MAX_N}]")
        if len(self.ranks) != self.n_projectors:
            raise ValueError("one rank per projector required")
        for r in self.ranks:
            if not 1 <= r <= self.dim:
                raise ValueError(f"rank {r} outside [1, {self.dim}]")
        if self.restarts < 1:
            raise ValueError("at least one restart required")
        if self.constraint_tol <= 0 or not self.penalty_weights:
            raise ValueError("positive constraint tolerance and a penalty schedule required")


@dataclass
class SearchResult:
    """Best verified instance found, with the restart that produced it.

    ``iterations`` counts L-BFGS-B iterations and ``evaluations`` counts
    objective and Jacobian evaluations (the least-squares polish included),
    both summed over penalty stages and over every restart of the search.
    """

    instance: CounterexampleInstance
    objective: float
    worst_constraint_residual: float
    iterations: int
    evaluations: int
    restart: int


@lru_cache(maxsize=None)
def _triu_cache(dim: int) -> tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(dim, 1)


def _projector_and_tangents(params: np.ndarray, dim: int, rank: int):
    """The projector of ``parametrize_projector`` and its parameter tangents.

    One ``eigh`` of the generator ``H = V diag(lam) V^dag`` gives both.  The
    tangents follow the Daleckii-Krein formula ``dU = V (F o V^dag dH V)
    V^dag`` for ``U = exp(iH)``, whose divided differences
    ``F_jk = (e^{i lam_j} - e^{i lam_k}) / (lam_j - lam_k)`` are written as
    ``i e^{i (lam_j + lam_k) / 2} sinc((lam_j - lam_k) / 2)``, which stays
    exact for coincident eigenvalues.  Returns ``P`` and ``dP`` of shape
    ``(dim**2, dim, dim)`` with ``dP[t]`` the derivative along ``params[t]``.
    """
    rows, cols = _triu_cache(dim)
    n_off = rows.size
    off = params[dim : dim + n_off] + 1j * params[dim + n_off :]
    h = np.zeros((dim, dim), dtype=complex)
    h[rows, cols] = off
    h[cols, rows] = off.conj()
    h[np.diag_indices(dim)] = params[:dim]
    vals, vecs = np.linalg.eigh(h)
    v1 = (vecs * np.exp(1j * vals)) @ vecs[:rank].conj().T
    p = v1 @ v1.conj().T

    # dv1 v1^dag = X(dH) = V (F o V^dag dH V) W v1^dag with W = V^dag[:, :rank];
    # for dH = e_a e_b^T all d**2 of them come from one matrix product:
    # X_ab[p, q] = sum_jk V_pj conj(V_aj) F_jk V_bk (W v1^dag)_kq.
    f = 1j * np.exp(0.5j * (vals[:, None] + vals[None, :])) * np.sinc(
        (vals[:, None] - vals[None, :]) / (2.0 * np.pi)
    )
    left = (vecs[:, None, :] * vecs.conj()[None, :, :]).reshape(dim * dim, dim)
    tail = vecs[:rank].conj().T @ v1.conj().T
    right = (vecs[:, None, :] * tail.T[None, :, :]).reshape(dim * dim, dim)
    x_ab = (left @ f @ right.T).reshape(dim, dim, dim, dim).transpose(1, 2, 0, 3)
    upper, lower = x_ab[rows, cols], x_ab[cols, rows]
    diag = x_ab[np.arange(dim), np.arange(dim)]
    dp = np.concatenate([diag, upper + lower, 1j * (upper - lower)])
    return (p + p.conj().T) / 2.0, dp + dp.conj().transpose(0, 2, 1)


def parametrize_projector(params, dim: int, rank: int) -> np.ndarray:
    """Rank-``rank`` projector from ``dim**2`` real Hermitian-generator entries.

    The generator H packs the diagonal first, then upper-triangle real parts,
    then upper-triangle imaginary parts; the projector is the first ``rank``
    columns of exp(iH) as an outer product, so zero parameters give the
    coordinate projector onto the leading ``rank`` axes.
    """
    params = np.asarray(params, dtype=float)
    if params.shape != (dim * dim,):
        raise ValueError(f"expected {dim * dim} parameters, got {params.shape}")
    if not 1 <= rank <= dim:
        raise ValueError(f"rank {rank} outside [1, {dim}]")
    return _projector_and_tangents(params, dim, rank)[0]


def _params_to_state(params: np.ndarray, dim: int):
    """Unit state ``z / |z|`` and its tangents ``(dz - phi Re<phi, dz>) / |z|``.

    The tangents are the columns of a ``(dim, 2 * dim)`` array, one per real
    parameter; below ``|z| = 1e-12`` the state is pinned to ``e_0``.
    """
    z = params[:dim] + 1j * params[dim:]
    n = float(np.linalg.norm(z))
    if n < 1e-12:
        z = np.zeros(dim, dtype=complex)
        z[0] = 1.0
        return z, np.zeros((dim, 2 * dim), dtype=complex)
    phi = z / n
    dz = np.concatenate([np.eye(dim), 1j * np.eye(dim)], axis=1)
    return phi, (dz - np.outer(phi, (phi.conj() @ dz).real)) / n


def _unpack(x: np.ndarray, config: SearchConfig):
    """State and projectors at ``x``, then the state's and each projector's tangents."""
    dim = config.dim
    phi, dphi = _params_to_state(x[: 2 * dim], dim)
    ps, dps = [], []
    offset = 2 * dim
    for rank in config.ranks:
        p, dp = _projector_and_tangents(x[offset : offset + dim * dim], dim, rank)
        ps.append(p)
        dps.append(dp)
        offset += dim * dim
    return phi, ps, dphi, dps


def _objective_value(phi: np.ndarray, ps: list[np.ndarray]) -> float:
    return block_swap_defect(ps, phi)


def _constraint_residuals(phi: np.ndarray, ps: list[np.ndarray]) -> np.ndarray:
    parts = []
    for i, j in itertools.combinations(range(len(ps)), 2):
        v = ps[i] @ (ps[j] @ phi) - ps[j] @ (ps[i] @ phi)
        parts.append(v.real)
        parts.append(v.imag)
    return np.concatenate(parts)


def _product_jacobian(phi, ps, dphi, dps, order) -> tuple[np.ndarray, np.ndarray]:
    """``P_o1 P_o2 ... phi`` and its Jacobian over all search parameters.

    Columns follow the layout of ``x``: the state's ``2 * dim`` parameters,
    then ``dim**2`` per projector.  Each projector appears at most once.
    """
    dim = phi.size
    rights = []
    out = phi
    for k in reversed(order):
        rights.append(out)
        out = ps[k] @ out
    jac = np.zeros((dim, 2 * dim + len(ps) * dim * dim), dtype=complex)
    left = np.eye(dim)
    for k, right in zip(order, reversed(rights)):
        start = 2 * dim + k * dim * dim
        jac[:, start : start + dim * dim] = ((dps[k] @ right) @ left.T).T
        left = left @ ps[k]
    jac[:, : 2 * dim] = left @ dphi
    return out, jac


def _search_terms(x: np.ndarray, config: SearchConfig):
    """Block-swap vector and pairwise residuals at ``x``, with their Jacobians.

    The vector and the residuals equal those of ``block_swap_defect`` and
    ``_constraint_residuals`` bit for bit.
    """
    terms = _unpack(x, config)
    n = len(terms[1])
    half = n // 2
    a, ja = _product_jacobian(*terms, tuple(range(n)))
    b, jb = _product_jacobian(*terms, tuple(range(half, n)) + tuple(range(half)))
    parts, jac_parts = [], []
    for i, j in itertools.combinations(range(n), 2):
        u, ju = _product_jacobian(*terms, (i, j))
        w, jw = _product_jacobian(*terms, (j, i))
        parts += [(u - w).real, (u - w).imag]
        jac_parts += [(ju - jw).real, (ju - jw).imag]
    return a - b, ja - jb, np.concatenate(parts), np.concatenate(jac_parts)


def _worst_pairwise(phi: np.ndarray, ps: list[np.ndarray]) -> float:
    worst = 0.0
    for i, j in itertools.combinations(range(len(ps)), 2):
        worst = max(
            worst, vector_norm(ps[i] @ (ps[j] @ phi) - ps[j] @ (ps[i] @ phi))
        )
    return worst


def _penalized(x: np.ndarray, weight: float, config: SearchConfig):
    """``-|(P1..Ph Ph+1..Pn - Ph+1..Pn P1..Ph) phi|^2 + weight |c|^2`` and its gradient."""
    swap, jswap, c, jc = _search_terms(x, config)
    value = -vector_norm(swap) ** 2 + weight * float(c @ c)
    grad = -2.0 * (swap.conj() @ jswap).real + 2.0 * weight * (c @ jc)
    return value, grad


def _run_restart(config: SearchConfig, restart: int) -> dict:
    rng = np.random.default_rng([config.seed, restart])
    n_params = 2 * config.dim + config.n_projectors * config.dim**2
    x = rng.standard_normal(n_params)
    iterations = evaluations = 0

    for weight in config.penalty_weights:
        res = minimize(
            _penalized,
            x,
            args=(weight, config),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": config.max_iterations, "maxfun": 10**6},
        )
        x = res.x
        iterations += int(res.nit)
        evaluations += int(res.nfev)

    polish = least_squares(
        lambda xv: _constraint_residuals(*_unpack(xv, config)[:2]),
        x,
        jac=lambda xv: _search_terms(xv, config)[3],
        method="trf", xtol=1e-14, ftol=1e-14, gtol=1e-14,
        max_nfev=200 * (1 + n_params),
    )
    x = polish.x
    evaluations += int(polish.nfev) + int(polish.njev)
    phi, ps = _unpack(x, config)[:2]
    return {
        "objective": _objective_value(phi, ps),
        "worst_constraint": _worst_pairwise(phi, ps),
        "phi": phi,
        "projectors": ps,
        "iterations": iterations,
        "evaluations": evaluations,
        "restart": restart,
    }


def search(config: SearchConfig) -> SearchResult:
    """Best-of-restarts constrained search; deterministic for a fixed seed.

    Each restart maximizes the block-swap defect under an escalating penalty
    on the pairwise commutator residuals, then polishes onto the feasible set
    with a least-squares step.  A restart counts only if its worst pairwise
    residual is at most ``constraint_tol`` while the defect exceeds ten times
    that, and the winning instance must re-verify before being returned.
    Restarts run one after another.
    """
    outcomes = [_run_restart(config, r) for r in range(config.restarts)]

    total_iterations = sum(o["iterations"] for o in outcomes)
    total_evaluations = sum(o["evaluations"] for o in outcomes)
    best_near_miss = max(outcomes, key=lambda o: o["objective"])
    candidates = [
        o
        for o in outcomes
        if o["worst_constraint"] <= config.constraint_tol
        and o["objective"] > 10.0 * config.constraint_tol
    ]
    candidates.sort(key=lambda o: (-o["objective"], o["restart"]))
    for o in candidates:
        inst = CounterexampleInstance(
            dim=config.dim,
            state=o["phi"],
            projectors=o["projectors"],
            eigenvector_form=None,
            tol=max(config.constraint_tol, 1e-9),
        )
        report = verify_instance(inst, tol=config.constraint_tol)
        if report.passed and report.details["is_counterexample"]:
            return SearchResult(
                instance=inst,
                objective=report.details["block_swap_defect"],
                worst_constraint_residual=report.worst_residual,
                iterations=total_iterations,
                evaluations=total_evaluations,
                restart=o["restart"],
            )
    raise NoFeasiblePointFound(
        f"no restart out of {config.restarts} reached constraint residual "
        f"<= {config.constraint_tol:.1e} with a defect above "
        f"{10.0 * config.constraint_tol:.1e}; best objective "
        f"{best_near_miss['objective']:.3e} with residual "
        f"{best_near_miss['worst_constraint']:.3e}"
    )
