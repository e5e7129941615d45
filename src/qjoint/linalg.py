"""Dense complex linear algebra substrate with explicit tolerance discipline.

All operators are numpy ``complex128`` arrays (pairs of 64-bit floats).  The
helpers here validate structure (Hermiticity, positivity, unit norm, unit
trace, idempotence) against the default tolerances below and raise instead of
silently repairing, so every caller states what it assumes.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    NotHermitian,
    NotProjector,
    NotPsd,
)

__all__ = [
    "TAU_NORM",
    "TAU_HERM",
    "TAU_PSD",
    "TAU_PROB",
    "CHECK_TOL",
    "GOLDEN_CONSTRAINT_TOL",
    "GOLDEN_DEFECT_TOL",
    "ANGLE_SNAP",
    "MAX_N",
    "MAX_DIM",
    "MAX_BRANCHES",
    "as_matrix",
    "as_vector",
    "check_square",
    "check_same_dim",
    "hermiticity_residual",
    "check_hermitian",
    "check_state_vector",
    "check_density_matrix",
    "projector_residual",
    "check_projector",
    "hermitian_eigendecompose",
    "psd_sqrt",
    "frobenius_norm",
    "vector_norm",
    "adjoint",
    "trace_inner",
    "kron_delta",
    "pure_density",
    "pure_state_vector",
    "trace_distance",
    "orthonormalize",
    "haar_unitary",
    "random_projector",
    "random_state_vector",
    "random_density_matrix",
    "random_hermitian",
]

# Structural tolerances for state/operator invariants.
TAU_NORM = 1e-9
TAU_HERM = 1e-9
TAU_PSD = 1e-9
# Probability below which a measurement branch counts as impossible.
TAU_PROB = 1e-12
# Default tolerance for property checks (residual comparisons).
CHECK_TOL = 1e-7
# Tolerances for values backed by printed 6-digit reference data.
GOLDEN_CONSTRAINT_TOL = 1e-6
GOLDEN_DEFECT_TOL = 1e-4
# cos^2(theta) closer than this to {0, 1} collapses to a one-dimensional block.
ANGLE_SNAP = 1e-9
# Combinatorial caps for enumeration-heavy operations.
MAX_N = 6
MAX_DIM = 32
MAX_BRANCHES = 10**6


def as_matrix(m) -> np.ndarray:
    """Return ``m`` as a C-contiguous complex128 2-D array, rejecting non-finite entries."""
    a = np.ascontiguousarray(m, dtype=complex)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got array of ndim {a.ndim}")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return a


def as_vector(v) -> np.ndarray:
    a = np.ascontiguousarray(v, dtype=complex)
    if a.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got array of ndim {a.ndim}")
    if not np.isfinite(a).all():
        raise ValueError("vector contains NaN or Inf entries")
    return a


def check_square(m: np.ndarray) -> int:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m.shape[0]


def check_same_dim(*arrays: np.ndarray) -> int:
    """All arguments must act on / live in the same dimension; returns it."""
    dims = {a.shape[0] for a in arrays}
    if len(dims) != 1:
        raise DimensionMismatch(f"mixed dimensions: {sorted(dims)}")
    return dims.pop()


def hermiticity_residual(m: np.ndarray) -> float:
    return float(np.abs(m - m.conj().T).max())


def check_hermitian(m: np.ndarray, tol: float = TAU_HERM) -> np.ndarray:
    m = as_matrix(m)
    check_square(m)
    res = hermiticity_residual(m)
    if res > tol:
        raise NotHermitian(f"symmetry residual {res:.3e} exceeds tolerance {tol:.3e}")
    return m


def check_state_vector(v, tol: float = TAU_NORM) -> np.ndarray:
    v = as_vector(v)
    dev = abs(np.linalg.norm(v) - 1.0)
    if dev > tol:
        raise ValueError(f"state norm deviates from 1 by {dev:.3e} (tolerance {tol:.3e})")
    return v


def check_density_matrix(rho, tol: float = TAU_HERM) -> np.ndarray:
    """Validate Hermiticity, positivity and unit trace of a density operator."""
    rho = check_hermitian(rho, tol)
    tr_dev = abs(np.trace(rho).real - 1.0)
    if tr_dev > max(tol, TAU_NORM):
        raise ValueError(f"trace deviates from 1 by {tr_dev:.3e}")
    w = np.linalg.eigvalsh(rho)
    if w[0] < -max(tol, TAU_PSD):
        raise NotPsd(f"negative eigenvalue {w[0]:.3e} in density matrix")
    return rho


def projector_residual(p: np.ndarray) -> tuple[float, float]:
    """(idempotence, hermiticity) residuals, both as max-abs entry deviations."""
    return float(np.abs(p @ p - p).max()), hermiticity_residual(p)


def check_projector(p, tol: float = TAU_HERM) -> np.ndarray:
    p = as_matrix(p)
    check_square(p)
    idem, herm = projector_residual(p)
    if herm > tol or idem > tol:
        raise NotProjector(
            f"idempotence residual {idem:.3e} / hermiticity residual {herm:.3e} "
            f"exceed tolerance {tol:.3e}"
        )
    return p


def hermitian_eigendecompose(
    m, tol: float = TAU_HERM
) -> list[tuple[float, np.ndarray]]:
    """Eigenpairs of a Hermitian matrix, eigenvalues ascending.

    Returns ``[(lambda_0, v_0), ...]`` with orthonormal eigenvectors.  The
    reconstruction residual ``max|m - sum(lambda v v^dag)|`` is checked against
    ``dim * tol`` as a convergence guard.
    """
    m = check_hermitian(m, tol)
    dim = m.shape[0]
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh rarely fails
        raise ConvergenceFailure(str(exc)) from exc
    recon = (v * w) @ v.conj().T
    if np.abs(recon - m).max() > dim * max(tol, 1e-12):
        raise ConvergenceFailure("eigendecomposition reconstruction residual too large")
    return [(float(w[i]), v[:, i].copy()) for i in range(dim)]


def psd_sqrt(m, tol: float = TAU_PSD) -> np.ndarray:
    """The unique Hermitian PSD square root S with S @ S == m.

    For a projector this returns the projector itself (eigenvalues 0 and 1 are
    fixed points of the square root).
    """
    m = check_hermitian(m, max(tol, TAU_HERM))
    w, v = np.linalg.eigh(m)
    if w[0] < -tol:
        raise NotPsd(f"negative eigenvalue {w[0]:.3e} below -{tol:.3e}")
    s = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    return (s + s.conj().T) / 2.0


def frobenius_norm(m) -> float:
    return float(np.linalg.norm(as_matrix(m)))


def vector_norm(v) -> float:
    return float(np.linalg.norm(as_vector(v)))


def adjoint(m) -> np.ndarray:
    return as_matrix(m).conj().T


def trace_inner(a: np.ndarray, b: np.ndarray):
    """Re Tr(a @ b) without forming the product matrix.

    Either argument may be a ``(..., d, d)`` stack: the result then holds
    Re Tr(a[i] @ b[j]) for every pair, shaped ``a.shape[:-2] + b.shape[:-2]``,
    from one matrix product.  Two matrices give a float.
    """
    if a.shape[-2:] != b.shape[-2:]:
        raise DimensionMismatch(f"operator shapes {a.shape} and {b.shape} differ")
    d2 = a.shape[-1] * a.shape[-2]
    flat = np.swapaxes(a, -1, -2).reshape(-1, d2) @ b.reshape(-1, d2).T
    out = flat.real.reshape(a.shape[:-2] + b.shape[:-2])
    return float(out) if out.ndim == 0 else out


def kron_delta(x, y) -> int:
    return 1 if x == y else 0


def pure_density(v) -> np.ndarray:
    v = as_vector(v)
    return np.outer(v, v.conj())


def pure_state_vector(rho: np.ndarray, tol: float = 1e-7) -> np.ndarray | None:
    """Extract the state vector of a (near-)pure density matrix, else None."""
    w, v = np.linalg.eigh(rho)
    if w[-1] < 1.0 - tol:
        return None
    vec = v[:, -1].copy()
    # Fix the global phase: make the largest-magnitude component real positive.
    k = int(np.argmax(np.abs(vec)))
    phase = vec[k] / abs(vec[k])
    return vec / phase


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of a - b for Hermitian a, b."""
    check_same_dim(a, b)
    w = np.linalg.eigvalsh(a - b)
    return float(np.abs(w).sum() / 2.0)


def orthonormalize(vectors: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis (columns) of the column span, dropping null directions."""
    m = as_matrix(vectors)
    if m.shape[1] == 0:
        return m
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    rank = int(np.sum(s > tol * max(1.0, s[0] if s.size else 1.0)))
    return u[:, :rank]


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_projector(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    if not 0 <= rank <= dim:
        raise ValueError(f"rank {rank} out of range for dimension {dim}")
    u = haar_unitary(dim, rng)
    b = u[:, :rank]
    p = b @ b.conj().T
    return (p + p.conj().T) / 2.0


def random_state_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2.0
