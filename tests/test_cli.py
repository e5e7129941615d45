import json
import math
import subprocess
import sys

import numpy as np
import pytest

import qjoint as q
from qjoint.cli import main
from qjoint.distribution import _OrbitEngine
from qjoint.serialize import canonical_dumps, instance_to_wire, matrix_to_wire, vector_to_wire
from conftest import make_commuting_family


@pytest.fixture()
def appendix_file(tmp_path, appendix):
    path = tmp_path / "instance.json"
    path.write_text(canonical_dumps(instance_to_wire(appendix)))
    return str(path)


@pytest.fixture()
def commuting_family_file(tmp_path):
    rng = np.random.default_rng(0)
    fam, states = make_commuting_family(rng, dim=4, n=3, n_states=2)
    payload = {
        "measurements": [
            {"elements": [matrix_to_wire(e) for e in povm.elements]}
            for povm in fam.povms
        ],
        "states": [matrix_to_wire(s) for s in states.states],
    }
    path = tmp_path / "family.json"
    path.write_text(canonical_dumps(payload))
    return str(path)


@pytest.fixture()
def projector_pair_file(tmp_path):
    theta = 0.4
    v = np.array([math.cos(theta), math.sin(theta)], dtype=complex)
    payload = {
        "p1": matrix_to_wire(np.diag([1.0, 0.0]).astype(complex)),
        "p2": matrix_to_wire(np.outer(v, v.conj())),
        "state": vector_to_wire(np.array([1.0, 0.0], dtype=complex)),
    }
    path = tmp_path / "pair.json"
    path.write_text(canonical_dumps(payload))
    return str(path)


def test_verify_appendix_passes(capsys):
    assert main(["verify-appendix"]) == 0
    out = capsys.readouterr().out
    assert "block-swap defect: 0.2500000021 (expected 0.25)" in out
    assert "verdict: counterexample verified" in out


def test_verify_appendix_json_payload(capsys):
    assert main(["verify-appendix", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "verify-appendix"
    assert payload["result"]["passed"] is True
    assert payload["result"]["details"]["is_counterexample"] is True
    man = payload["manifest"]
    assert man["version"] == q.__version__
    assert man["inputs"] == {}
    assert isinstance(man["wall_time_s"], float)


def test_verify_appendix_strict_tolerance_fails(capsys):
    """The published data is only good to ~1e-6; demanding 1e-9 must fail."""
    assert main(["verify-appendix", "--tol", "1e-9"]) == 2
    assert "FAILED" in capsys.readouterr().out


def test_verify_appendix_external_input(tmp_path, capsys):
    p = np.diag([1.0, 0.0]).astype(complex)
    payload = {
        "dim": 2,
        "state": vector_to_wire(np.array([1.0, 0.0], dtype=complex)),
        "projectors": [matrix_to_wire(p), matrix_to_wire(p)],
    }
    path = tmp_path / "commuting.json"
    path.write_text(canonical_dumps(payload))
    assert main(["verify-appendix", "--input", str(path)]) == 2
    assert "defect below threshold" in capsys.readouterr().out


def test_verify_appendix_missing_file():
    assert main(["verify-appendix", "--input", "/no/such/file.json"]) == 1


def test_verify_appendix_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    assert main(["verify-appendix", "--input", str(path)]) == 1


def test_check_commuting_family_passes(commuting_family_file, capsys):
    assert main(["check", "--input", commuting_family_file]) == 0
    out = capsys.readouterr().out
    for name in (
        "functional_axioms",
        "marginals",
        "disjointness",
        "reducibility",
        "sequential_independence",
        "on_state_projector",
    ):
        assert f"PASS  {name}" in out
    assert "joint distribution exists: True" in out
    assert "equivalence agrees: True" in out


def test_check_json_is_deterministic_with_work_counts(appendix_file, capsys):
    """Two runs of ``check --json`` print byte-identical payloads outside the
    manifest, and the marginals report counts its orbit's work."""
    results = []
    for _ in range(2):
        assert main(["check", "--input", appendix_file, "--tol", "1e-6", "--json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        del payload["manifest"]
        results.append(canonical_dumps(payload))
    assert results[0] == results[1]
    details = json.loads(results[0])["result"]["reports"]["marginals"]["details"]
    assert details["orbit_size"] == (
        1 + details["branches"] - details["dead_branches"] - details["dedup_merges"]
    )
    assert details["dead_branches"] > 0 and details["dedup_merges"] > 0


def test_check_appendix_instance_fails_with_witness(appendix_file, capsys):
    code = main(["check", "--input", appendix_file, "--tol", "1e-6", "--json"])
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    result = payload["result"]
    assert result["reports"]["functional_axioms"]["passed"] is True
    assert set(result["failed"]) == {
        "marginals",
        "disjointness",
        "reducibility",
        "sequential_independence",
        "on_state_projector",
    }
    seq = result["reports"]["sequential_independence"]
    assert seq["witnesses"][0]["blocks"] == [[1, 2], [3], [4]]
    t2 = result["theorem2"]
    assert t2["joint_distribution_exists"] is False
    assert t2["equivalence_agrees"] is True
    assert result["theorem1"]["details"]["status"] == "not_applicable"


def test_check_single_property(commuting_family_file, capsys):
    assert main([
        "check", "--input", commuting_family_file,
        "--properties", "functional_axioms", "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload["result"]["reports"]) == ["functional_axioms"]
    assert "theorem2" not in payload["result"]


def test_check_empty_properties(commuting_family_file, capsys):
    assert main(["check", "--input", commuting_family_file, "--properties", ""]) == 0
    assert "nothing to do" in capsys.readouterr().out


def test_check_unknown_property(commuting_family_file):
    assert main([
        "check", "--input", commuting_family_file, "--properties", "bogus",
    ]) == 1


def test_check_requires_input():
    with pytest.raises(SystemExit) as exc:
        main(["check"])
    assert exc.value.code == 1


def test_jordan_command(projector_pair_file, capsys):
    assert main(["jordan", "--input", projector_pair_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    blocks = payload["result"]["decomposition"]["two_dim_blocks"]
    assert len(blocks) == 1
    assert blocks[0]["theta"] == pytest.approx(0.4, abs=1e-12)
    assert payload["result"]["residuals"]["p1_reconstruction"] < 1e-12


def test_jordan_rejects_non_projector(tmp_path):
    payload = {
        "p1": matrix_to_wire(np.diag([0.5, 0.5]).astype(complex)),
        "p2": matrix_to_wire(np.eye(2, dtype=complex)),
    }
    path = tmp_path / "bad_pair.json"
    path.write_text(canonical_dumps(payload))
    assert main(["jordan", "--input", str(path)]) == 2


def test_jordan_missing_key(tmp_path):
    path = tmp_path / "short.json"
    path.write_text('{"p1": []}')
    assert main(["jordan", "--input", str(path)]) == 1


def test_repair_command(projector_pair_file, capsys):
    assert main(["repair", "--input", projector_pair_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    result = payload["result"]
    assert result["bound_margin"] >= 0.0
    assert result["on_state_distance"] <= result["sqrt2_epsilon"] + 1e-12
    assert result["identity_residual"] <= 1e-8


def test_repair_human_output(projector_pair_file, capsys):
    assert main(["repair", "--input", projector_pair_file]) == 0
    out = capsys.readouterr().out
    assert "epsilon (commutation defect on state)" in out
    assert "sqrt(2) * epsilon bound" in out


def test_search_infeasible_exit_code(capsys):
    code = main([
        "search", "--dim", "2", "--ranks", "1,1", "--seed", "0", "--restarts", "2",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "NoFeasiblePointFound" in err


def test_search_reports_restart_and_work_counts(capsys):
    """Dim 4, seed 2 is the smallest case seen to find an instance."""
    args = ["search", "--dim", "4", "--seed", "2", "--restarts", "1"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "winning restart: 0 (seed 2)" in out
    assert "L-BFGS-B iterations" in out
    assert main(args + ["--json"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["restart"] == 0
    assert 0 < result["iterations"] < result["evaluations"]
    assert "seed_used" not in result


def test_search_bad_configuration():
    assert main(["search", "--restarts", "0"]) == 1
    assert main(["search", "--ranks", "1,x"]) == 1
    assert main(["search", "--dim", "4", "--ranks", "9,1"]) == 1


def test_output_file_and_determinism(appendix_file, tmp_path, capsys):
    """Reruns produce byte-identical results; only the manifest timing moves."""
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["verify-appendix", "--output", str(out1)]) == 0
    assert main(["verify-appendix", "--output", str(out2)]) == 0
    capsys.readouterr()
    p1 = json.loads(out1.read_text())
    p2 = json.loads(out2.read_text())
    assert p1["result"] == p2["result"]
    assert canonical_dumps(p1["result"]) == canonical_dumps(p2["result"])
    man1, man2 = p1["manifest"], p2["manifest"]
    drop = {"output"}  # the differing output path is itself an argument
    assert {k: v for k, v in man1["arguments"].items() if k not in drop} == {
        k: v for k, v in man2["arguments"].items() if k not in drop
    }


def test_console_script_version():
    proc = subprocess.run(
        ["qjoint", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert q.__version__ in proc.stdout


def test_module_invocation_matches_script():
    proc = subprocess.run(
        [sys.executable, "-m", "qjoint.cli", "verify-appendix"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "counterexample verified" in proc.stdout


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def _without_timing(text: str) -> dict:
    payload = json.loads(text)
    del payload["manifest"]["wall_time_s"]
    return payload


def test_successive_main_calls_share_no_state(appendix_file, projector_pair_file, tmp_path, capsys):
    """``main`` reuses one parser across calls in a process.  A run of all five
    commands, in-process, still prints what fresh processes print (checked for
    ``check`` and ``verify-appendix``), every payload in the bytes of
    ``json.dumps(indent=2, sort_keys=True)``, and a usage error still exits 1."""
    full_check = ["check", "--input", appendix_file, "--tol", "1e-6", "--json"]
    verify = ["verify-appendix", "--json"]
    found = tmp_path / "found.json"
    printed = {}
    with subprocess.Popen(
        [sys.executable, "-m", "qjoint.cli", *full_check], stdout=subprocess.PIPE, text=True
    ) as fresh_check, subprocess.Popen(
        [sys.executable, "-m", "qjoint.cli", *verify], stdout=subprocess.PIPE, text=True
    ) as fresh_verify:
        for argv, code in (
            (["check", "--input", appendix_file, "--properties", "marginals", "--json"], 2),
            (full_check, 2),
            (["jordan", "--input", projector_pair_file, "--json"], 0),
            (["repair", "--input", projector_pair_file, "--json"], 0),
            (["search", "--dim", "4", "--seed", "2", "--restarts", "1", "--output", str(found), "--json"], 0),
            (verify, 0),
        ):
            assert main(argv) == code, argv
            text = capsys.readouterr().out
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", argv
            printed[argv[0]] = text
        assert found.exists()
        with pytest.raises(SystemExit) as exc:
            main(["check"])
        assert exc.value.code == 1
        for proc, name, code in ((fresh_check, "check", 2), (fresh_verify, "verify-appendix", 0)):
            out, _ = proc.communicate(timeout=120)
            assert proc.returncode == code
            assert _without_timing(out) == _without_timing(printed[name]), name


def test_check_builds_one_orbit_engine(appendix_file, monkeypatch, capsys):
    """The six checks, theorem 1 and theorem 2 of one ``check`` share one engine."""
    built = []
    init = _OrbitEngine.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(_OrbitEngine, "__init__", counting_init)
    assert main(["check", "--input", appendix_file, "--tol", "1e-6", "--json"]) == 2
    result = json.loads(capsys.readouterr().out)["result"]
    assert {"theorem1", "theorem2"} <= set(result)
    assert len(built) == 1
