"""Worst-residual tracking with a capped, canonically ordered witness list.

Shared by the permutator scans and the distribution property checks.
"""

from __future__ import annotations

import numpy as np

__all__ = ["WITNESS_CAP", "WorstTracker"]

WITNESS_CAP = 20


class WorstTracker:
    """Accumulates the worst residual plus a capped, canonically ordered witness list."""

    def __init__(self, tol: float):
        self.tol = tol
        self.worst = 0.0
        self.worst_witness: dict | None = None
        self.witnesses: list[dict] = []
        self.failures = 0

    def add(self, residual: float, witness: dict) -> None:
        if residual > self.worst:
            self.worst = residual
            self.worst_witness = witness
        if residual > self.tol:
            self.failures += 1
            if len(self.witnesses) < WITNESS_CAP:
                self.witnesses.append({**witness, "residual": residual})

    def add_array(self, residuals: np.ndarray, witness_at) -> None:
        """``add`` for each entry of ``residuals`` in order; ``witness_at(k)``
        builds entry k's witness, and is called only for the entries kept."""
        residuals = np.ravel(residuals)
        if not residuals.size:
            return
        top = int(np.argmax(residuals))
        if residuals[top] > self.worst:
            self.worst = float(residuals[top])
            self.worst_witness = witness_at(top)
        failing = np.flatnonzero(residuals > self.tol)
        self.failures += len(failing)
        for k in failing[: max(0, WITNESS_CAP - len(self.witnesses))]:
            self.witnesses.append({**witness_at(int(k)), "residual": float(residuals[k])})

    def final_witnesses(self) -> list[dict]:
        out = list(self.witnesses)
        if self.worst_witness is not None and self.worst > self.tol:
            tagged = {**self.worst_witness, "residual": self.worst}
            if tagged not in out:
                out.append(tagged)
        out.sort(key=lambda w: -w["residual"])
        return out[:WITNESS_CAP]
