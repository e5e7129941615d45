"""Command-line interface.

Subcommands: ``verify-appendix`` (golden instance check), ``check`` (property
suite on a family or instance file), ``jordan`` and ``repair`` (two-projector
decomposition and commuting replacement), ``search`` (seeded instance
search).  Every run is deterministic given its flags and seed; JSON output is
canonical, with timing isolated in the manifest.  Exit codes: 0 success,
1 usage or input error, 2 semantic failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import sys
import time

from . import __version__
from .counterexample import (
    SearchConfig,
    load_appendix_instance,
    search,
    verify_instance,
)
from .distribution import (
    PROPERTY_NAMES,
    _OrbitEngine,
    run_property_checks,
    theorem1_check,
    theorem2_verdict,
)
from .errors import ParseError, QjointError
from .jordan import jordan_decompose, repair_projector
from .linalg import GOLDEN_CONSTRAINT_TOL, CHECK_TOL, TAU_HERM
from .serialize import (
    canonical_dumps,
    decomposition_to_wire,
    instance_to_wire,
    load_json_file,
    permutator_report_to_wire,
    repair_to_wire,
    report_to_wire,
    search_result_to_wire,
    wire_to_check_inputs,
    wire_to_instance,
    wire_to_matrix,
    wire_to_vector,
)

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _hash_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _manifest(args: argparse.Namespace, input_paths: list[str], wall_time: float) -> dict:
    arguments = {
        k: v for k, v in vars(args).items() if k not in ("func", "command")
    }
    manifest = {
        "command": args.command,
        "arguments": arguments,
        "inputs": {p: _hash_file(p) for p in input_paths},
        "version": __version__,
        "wall_time_s": wall_time,
    }
    if "seed" in arguments:
        manifest["seed"] = arguments["seed"]
    return manifest


def _emit(args: argparse.Namespace, payload: dict, human_lines: list[str]) -> None:
    text = canonical_dumps(payload)
    output = getattr(args, "output", None)
    if output and args.command != "search":
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    if getattr(args, "json", False):
        sys.stdout.write(text)
    else:
        for line in human_lines:
            print(line)


def cmd_verify_appendix(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    inputs = []
    if args.input:
        inst = wire_to_instance(load_json_file(args.input), tol=None)
        inputs = [args.input]
        expected = None
    else:
        inst = load_appendix_instance()
        expected = 0.25
    report = verify_instance(inst, tol=args.tol, expected_defect=expected)
    ok = report.passed and report.details["is_counterexample"]
    payload = {
        "command": "verify-appendix",
        "result": report_to_wire(report),
        "manifest": _manifest(args, inputs, time.perf_counter() - start),
    }
    lines = [
        f"block-swap defect: {report.details['block_swap_defect']:.10f}"
        + (f" (expected {expected})" if expected is not None else ""),
        f"worst pairwise commutator on state: {report.details['worst_pairwise_defect']:.3e}",
        f"worst constraint residual: {report.worst_residual:.3e} (tol {args.tol:.1e})",
    ]
    if ok:
        lines.append("verdict: counterexample verified")
    elif not report.passed:
        lines.append("verdict: FAILED (constraints or expected defect not met)")
    else:
        lines.append("verdict: FAILED (defect below threshold)")
    _emit(args, payload, lines)
    return 0 if ok else 2


def _parse_properties(raw: str | None) -> tuple[str, ...]:
    if raw is None:
        return PROPERTY_NAMES
    names = tuple(tok.strip() for tok in raw.split(",") if tok.strip())
    unknown = [n for n in names if n not in PROPERTY_NAMES]
    if unknown:
        raise ParseError(
            f"unknown properties {unknown}; choose from {list(PROPERTY_NAMES)}"
        )
    return names


def cmd_check(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    props = _parse_properties(args.properties)
    if not props:
        payload = {
            "command": "check",
            "result": {"reports": {}, "failed": []},
            "manifest": _manifest(args, [args.input], time.perf_counter() - start),
        }
        _emit(args, payload, ["no properties selected; nothing to do"])
        return 0
    family, states = wire_to_check_inputs(
        load_json_file(args.input), tol=max(args.tol, GOLDEN_CONSTRAINT_TOL)
    )
    engine = _OrbitEngine(family, states)  # one engine for the checks and both theorems
    reports = run_property_checks(family, states, properties=props, tol=args.tol, _orbits=engine)
    result: dict = {
        "reports": {name: report_to_wire(reports[name]) for name in reports},
    }
    if {"marginals", "disjointness", "reducibility"} <= set(props):
        thm1 = theorem1_check(family, states, tol=args.tol, precomputed=reports, _orbits=engine)
        result["theorem1"] = report_to_wire(thm1)
    if set(PROPERTY_NAMES[1:]) <= set(props):
        verdict = theorem2_verdict(family, states, tol=args.tol, precomputed=reports, _orbits=engine)
        result["theorem2"] = {
            "joint_distribution_exists": verdict["joint_distribution_exists"],
            "fully_permutable": verdict["fully_permutable"],
            "on_state_projectors": verdict["on_state_projectors"],
            "equivalence_agrees": verdict["equivalence_agrees"],
            "permutator": permutator_report_to_wire(verdict["permutator_report"]),
        }
    failed = [name for name in props if not reports[name].passed]
    result["failed"] = failed
    payload = {
        "command": "check",
        "result": result,
        "manifest": _manifest(args, [args.input], time.perf_counter() - start),
    }
    lines = []
    for name in props:
        rep = reports[name]
        status = "PASS" if rep.passed else "FAIL"
        lines.append(
            f"{status}  {name}: worst residual {rep.worst_residual:.3e} (tol {rep.tol:.1e})"
        )
        if not rep.passed and rep.witnesses:
            lines.append(f"      witness: {rep.witnesses[0]}")
    if "theorem2" in result:
        t2 = result["theorem2"]
        lines.append(
            "joint distribution exists: "
            f"{t2['joint_distribution_exists']}; permutable + on-state projectors: "
            f"{t2['fully_permutable'] and t2['on_state_projectors']}; "
            f"equivalence agrees: {t2['equivalence_agrees']}"
        )
    _emit(args, payload, lines)
    return 2 if failed else 0


def cmd_jordan(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    obj = load_json_file(args.input)
    for key in ("p1", "p2"):
        if key not in obj:
            raise ParseError(f"{args.input}: missing key {key!r}")
    p1 = wire_to_matrix(obj["p1"])
    p2 = wire_to_matrix(obj["p2"])
    dec = jordan_decompose(p1, p2, args.tol)
    payload = {
        "command": "jordan",
        "result": {
            "decomposition": decomposition_to_wire(dec),
            "residuals": dec.residuals(p1, p2),
        },
        "manifest": _manifest(args, [args.input], time.perf_counter() - start),
    }
    angles = ", ".join(f"{b.theta:.6f}" for b in dec.two_dim_blocks) or "none"
    lines = [
        f"{len(dec.one_dim_blocks)} one-dim blocks, "
        f"{len(dec.two_dim_blocks)} two-dim blocks (dim {dec.dim})",
        f"principal angles: {angles}",
    ]
    _emit(args, payload, lines)
    return 0


def cmd_repair(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    obj = load_json_file(args.input)
    for key in ("p1", "p2", "state"):
        if key not in obj:
            raise ParseError(f"{args.input}: missing key {key!r}")
    res = repair_projector(
        wire_to_matrix(obj["p1"]),
        wire_to_matrix(obj["p2"]),
        wire_to_vector(obj["state"]),
        args.tol,
    )
    payload = {
        "command": "repair",
        "result": repair_to_wire(res),
        "manifest": _manifest(args, [args.input], time.perf_counter() - start),
    }
    lines = [
        f"epsilon (commutation defect on state): {res.epsilon:.6e}",
        f"on-state distance ||(P2' - P2) psi||:  {res.on_state_distance:.6e}",
        f"sqrt(2) * epsilon bound:               {math.sqrt(2.0) * res.epsilon:.6e}"
        f" (margin {res.bound_margin:.3e})",
    ]
    _emit(args, payload, lines)
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    try:
        ranks = tuple(int(tok) for tok in args.ranks.split(",") if tok.strip())
        config = SearchConfig(
            dim=args.dim,
            n_projectors=len(ranks),
            ranks=ranks,
            seed=args.seed,
            restarts=args.restarts,
            constraint_tol=args.tol,
        )
    except ValueError as exc:
        raise ParseError(f"invalid search configuration: {exc}") from exc
    result = search(config)
    wire = search_result_to_wire(result)
    payload = {
        "command": "search",
        "result": wire,
        "manifest": _manifest(args, [], time.perf_counter() - start),
    }
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(canonical_dumps(wire["instance"]))
    lines = [
        f"objective (block-swap defect): {result.objective:.6f}",
        f"worst constraint residual: {result.worst_constraint_residual:.3e}",
        f"winning restart: {result.restart} (seed {args.seed}); "
        f"{result.iterations} L-BFGS-B iterations, "
        f"{result.evaluations} objective and Jacobian evaluations",
    ]
    if args.output:
        lines.append(f"instance written to {args.output}")
    _emit(args, payload, lines)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="qjoint",
        description=(
            "Decide and demonstrate when sequences of quantum measurements "
            "admit a classical joint outcome distribution on given states."
        ),
    )
    parser.add_argument("--version", action="version", version=f"qjoint {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("verify-appendix", help="verify the bundled golden instance")
    p.add_argument("--input", help="alternative instance JSON to verify instead")
    p.add_argument("--tol", type=float, default=GOLDEN_CONSTRAINT_TOL,
                   help="constraint tolerance (default 1e-6, the published-data tier)")
    p.add_argument("--json", action="store_true", help="print canonical JSON to stdout")
    p.add_argument("--output", help="write the JSON report to this file")
    p.set_defaults(func=cmd_verify_appendix)

    p = sub.add_parser("check", help="run distribution property checks on a file")
    p.add_argument("--input", required=True,
                   help="family JSON ({states, measurements}) or instance JSON "
                        "({dim, state, projectors})")
    p.add_argument("--properties",
                   help="comma-separated subset of: " + ", ".join(PROPERTY_NAMES)
                        + " (default all; empty string runs nothing)")
    p.add_argument("--tol", type=float, default=CHECK_TOL,
                   help="property check tolerance (default 1e-7); input validation "
                        "uses at least 1e-6")
    p.add_argument("--json", action="store_true", help="print canonical JSON to stdout")
    p.add_argument("--output", help="write the JSON report to this file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("jordan", help="block-decompose two projectors")
    p.add_argument("--input", required=True, help="JSON with keys p1, p2")
    p.add_argument("--tol", type=float, default=TAU_HERM)
    p.add_argument("--json", action="store_true", help="print canonical JSON to stdout")
    p.add_argument("--output", help="write the JSON decomposition to this file")
    p.set_defaults(func=cmd_jordan)

    p = sub.add_parser("repair", help="commuting replacement for the second projector")
    p.add_argument("--input", required=True, help="JSON with keys p1, p2, state")
    p.add_argument("--tol", type=float, default=TAU_HERM)
    p.add_argument("--json", action="store_true", help="print canonical JSON to stdout")
    p.add_argument("--output", help="write the JSON repair result to this file")
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("search", help="seeded random search for new instances")
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--ranks", default="1,2,3,2",
                   help="comma-separated projector ranks; their count sets the "
                        "number of projectors (default 1,2,3,2)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=64)
    p.add_argument("--tol", type=float, default=1e-7,
                   help="constraint tolerance for accepting an instance")
    p.add_argument("--json", action="store_true", help="print canonical JSON to stdout")
    p.add_argument("--output", help="write the found instance JSON to this file")
    p.set_defaults(func=cmd_search)
    return parser


_parser = functools.cache(build_parser)  # built on the first main call, then reused


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"qjoint: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"qjoint: error: {exc}", file=sys.stderr)
        return 1
    except (QjointError, ValueError) as exc:
        print(f"qjoint: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
