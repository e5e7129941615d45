"""JSON interchange: complex numbers as [re, im] pairs, matrices row-major.

One canonical rendering (sorted keys, two-space indent, trailing newline) is
used everywhere so that identical inputs always produce identical bytes.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from typing import Any

import numpy as np

from .counterexample import CounterexampleInstance, SearchResult
from .distribution import PropertyReport, StateFamily
from .errors import ParseError
from .jordan import JordanDecomposition, RepairResult
from .linalg import GOLDEN_CONSTRAINT_TOL, as_matrix, as_vector, pure_density
from .measurement import MeasurementFamily, Povm
from .permutation import PermutatorReport

__all__ = [
    "canonical_dumps",
    "complex_to_pair",
    "pair_to_complex",
    "vector_to_wire",
    "matrix_to_wire",
    "wire_to_vector",
    "wire_to_matrix",
    "instance_to_wire",
    "wire_to_instance",
    "wire_to_check_inputs",
    "report_to_wire",
    "permutator_report_to_wire",
    "decomposition_to_wire",
    "repair_to_wire",
    "search_result_to_wire",
    "load_json_file",
]


def canonical_dumps(obj: Any) -> str:
    """``json.dumps(_plain(obj), indent=2, sort_keys=True) + "\\n"``, byte for byte."""
    return _render(obj, "\n") + "\n"


def _render(obj: Any, nl: str) -> str:
    """One recursive pass of the canonical layout; ``nl`` is the newline plus
    the current indent.  (The stdlib's C encoder cannot indent; its pure
    Python one, plus ``_plain``, takes 1.7 times as long on a check report.)"""
    if isinstance(obj, float) and math.isfinite(obj):
        return float.__repr__(obj)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, int):
        return ("true" if obj else "false") if isinstance(obj, bool) else int.__repr__(obj)
    inner = nl + "  "
    if isinstance(obj, (list, tuple)):
        return "[" + inner + ("," + inner).join([_render(v, inner) for v in obj]) + nl + "]" if obj else "[]"
    if isinstance(obj, dict):
        items = sorted({str(k): v for k, v in obj.items()}.items())
        body = ("," + inner).join([encode_basestring_ascii(k) + ": " + _render(v, inner) for k, v in items])
        return "{" + inner + body + nl + "}" if items else "{}"
    if isinstance(obj, (np.ndarray, np.generic, float)):
        return _render(_plain(obj), nl)  # arrays, numpy scalars, non-finite floats
    return json.dumps(obj)  # None; anything else raises TypeError


def _plain(obj: Any) -> Any:
    """Recursively strip numpy scalar/array types down to JSON-native ones."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if obj.ndim == 1:
            return vector_to_wire(obj)
        return matrix_to_wire(obj)
    if isinstance(obj, np.generic):
        return _plain(obj.item())
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def complex_to_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def pair_to_complex(pair) -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ParseError(f"expected a [re, im] pair, got {pair!r}")
    return complex(float(pair[0]), float(pair[1]))


def vector_to_wire(v: np.ndarray) -> list:
    return [complex_to_pair(z) for z in np.asarray(v, dtype=complex)]


def matrix_to_wire(m: np.ndarray) -> list:
    return [[complex_to_pair(z) for z in row] for row in np.asarray(m, dtype=complex)]


def wire_to_vector(obj) -> np.ndarray:
    try:
        return as_vector([pair_to_complex(p) for p in obj])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad vector payload: {exc}") from exc


def wire_to_matrix(obj) -> np.ndarray:
    try:
        return as_matrix([[pair_to_complex(p) for p in row] for row in obj])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad matrix payload: {exc}") from exc


def instance_to_wire(inst: CounterexampleInstance) -> dict:
    out = {
        "dim": inst.dim,
        "state": vector_to_wire(inst.state),
        "projectors": [matrix_to_wire(p) for p in inst.projectors],
    }
    if inst.eigenvector_form is not None:
        out["eigenvectors"] = [
            [vector_to_wire(v) for v in vs] for vs in inst.eigenvector_form
        ]
    return out


def wire_to_instance(obj: dict, tol: float | None = GOLDEN_CONSTRAINT_TOL) -> CounterexampleInstance:
    """Parse an instance payload; ``tol=None`` defers validation to the caller."""
    for key in ("dim", "state", "projectors"):
        if key not in obj:
            raise ParseError(f"instance payload missing key {key!r}")
    eig = None
    if obj.get("eigenvectors") is not None:
        eig = [[wire_to_vector(v) for v in vs] for vs in obj["eigenvectors"]]
    try:
        return CounterexampleInstance(
            dim=int(obj["dim"]),
            state=wire_to_vector(obj["state"]),
            projectors=[wire_to_matrix(p) for p in obj["projectors"]],
            eigenvector_form=eig,
            tol=math.inf if tol is None else tol,
        )
    except ValueError as exc:
        raise ParseError(f"invalid instance: {exc}") from exc


def _wire_to_state(obj) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ParseError(f"bad state payload: {obj!r}")
    if isinstance(obj[0], list) and obj[0] and isinstance(obj[0][0], list):
        return wire_to_matrix(obj)
    v = wire_to_vector(obj)
    norm = float(np.linalg.norm(v))
    if norm < 1e-12:
        raise ParseError("state vector has (near-)zero norm")
    return pure_density(v / norm)


def wire_to_check_inputs(
    obj: dict, tol: float = GOLDEN_CONSTRAINT_TOL
) -> tuple[MeasurementFamily, StateFamily]:
    """A measurement family plus state family from either accepted payload shape.

    Instance shape ({dim, state, projectors}) induces the binary projective
    family over the projectors with the single given state.  Family shape
    ({states, measurements: [{elements, outcomes?}...]}) is read directly;
    states may be vectors (normalized to pure densities) or density matrices.
    """
    if "projectors" in obj:
        inst = wire_to_instance(obj, tol=None)
        family = MeasurementFamily.binary_projective(inst.projectors, tol=tol)
        return family, StateFamily([pure_density(inst.state)], tol=tol)
    if "measurements" not in obj or "states" not in obj:
        raise ParseError(
            "payload must carry either 'projectors'+'state' or 'measurements'+'states'"
        )
    povms = []
    for k, m in enumerate(obj["measurements"]):
        if "elements" not in m:
            raise ParseError(f"measurement {k + 1} missing 'elements'")
        elements = [wire_to_matrix(e) for e in m["elements"]]
        outcomes = m.get("outcomes")
        povms.append(
            Povm.from_elements(
                elements,
                outcomes=None if outcomes is None else tuple(int(x) for x in outcomes),
                tol=tol,
            )
        )
    states = [_wire_to_state(s) for s in obj["states"]]
    return MeasurementFamily.from_povms(povms), StateFamily(states, tol=tol)


def report_to_wire(report: PropertyReport) -> dict:
    return {
        "property": report.property_name,
        "passed": bool(report.passed),
        "worst_residual": float(report.worst_residual),
        "tol": float(report.tol),
        "witnesses": _plain(report.witnesses),
        "details": _plain(report.details),
    }


def permutator_report_to_wire(report: PermutatorReport) -> dict:
    return {
        "subset_size": report.s,
        "passed": bool(report.passed),
        "worst_trace_defect": float(report.worst_trace_defect),
        "worst_vector_defect": float(report.worst_vector_defect),
        "witness_permutation": _plain(report.witness_permutation),
        "mode": report.mode,
        "tol": float(report.tol),
        "witnesses": _plain(report.witnesses),
    }


def decomposition_to_wire(dec: JordanDecomposition) -> dict:
    return {
        "dim": dec.dim,
        "one_dim_blocks": [
            {"u": vector_to_wire(b.u), "lambda1": b.lambda1, "lambda2": b.lambda2}
            for b in dec.one_dim_blocks
        ],
        "two_dim_blocks": [
            {
                "v1": vector_to_wire(b.v1),
                "v1_perp": vector_to_wire(b.v1_perp),
                "theta": float(b.theta),
            }
            for b in dec.two_dim_blocks
        ],
    }


def repair_to_wire(res: RepairResult) -> dict:
    return {
        "p2_prime": matrix_to_wire(res.p2_prime),
        "epsilon": float(res.epsilon),
        "on_state_distance": float(res.on_state_distance),
        "sqrt2_epsilon": float(math.sqrt(2.0) * res.epsilon),
        "bound_margin": float(res.bound_margin),
        "commutator_norm": float(res.commutator_norm),
        "identity_residual": float(res.identity_residual),
        "block_terms": _plain(res.block_terms),
        "decomposition": decomposition_to_wire(res.decomposition),
    }


def search_result_to_wire(res: SearchResult) -> dict:
    return {
        "instance": instance_to_wire(res.instance),
        "objective": float(res.objective),
        "worst_constraint_residual": float(res.worst_constraint_residual),
        "iterations": int(res.iterations),
        "evaluations": int(res.evaluations),
        "restart": int(res.restart),
    }


def load_json_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: top-level JSON value must be an object")
    return obj
