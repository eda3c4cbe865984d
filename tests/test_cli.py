import json
from pathlib import Path

import pytest

from indegraph import cli

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_info_plain(capsys):
    code, out, _ = run(capsys, "info", "6")
    assert code == 0
    assert "I_G(Z_6)" in out
    assert "edges        13" in out
    assert "parts        4" in out
    assert "girth        3" in out
    assert "hamiltonian  yes" in out


def test_info_verify_agrees(capsys):
    code, out, _ = run(capsys, "info", "6", "--verify")
    assert code == 0
    assert "[agree]" in out
    assert "DISAGREE" not in out


def test_info_verify_sampled_range(capsys):
    for n in (2, 3, 4, 5, 9, 24, 30, 64, 97, 120):
        code, out, _ = run(capsys, "info", str(n), "--verify")
        assert code == 0, out
        assert "DISAGREE" not in out


def test_info_json(capsys):
    code, out, _ = run(capsys, "info", "5", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 5
    assert data["edges"] == 4
    assert data["star"] is True
    assert data["girth"] == "INFINITE"
    assert data["degrees"] == [[4, 1], [1, 4]]


def test_info_json_is_json_dumps_indented(capsys):
    code, out, _ = run(capsys, "info", "897612484786617600", "--json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_info_json_verify_notes_capacity(capsys):
    code, out, _ = run(
        capsys, "--oracle-limit", "10", "info", "50", "--verify", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert "build limit" in data["verify"]["note"]
    assert data["verify"]["checks"] == {}


def test_info_rejects_bad_n(capsys):
    code, _, err = run(capsys, "info", "1")
    assert code == 1
    assert "modulus" in err


def test_audit_strict_exit_codes(capsys):
    code, out, _ = run(capsys, "audit", "9", "--strict")
    assert code == 2
    assert "T2.17" in out
    code, _, _ = run(capsys, "audit", "2", "--strict")
    assert code == 0
    code, _, _ = run(capsys, "audit", "9")
    assert code == 0  # informational without --strict


def test_sweep_strict_and_formats(capsys):
    code, out, _ = run(capsys, "sweep", "2", "8", "--strict", "--format", "csv")
    assert code == 2
    assert "5,T4.1,MISMATCH,-1,2" in out
    code, out, _ = run(capsys, "sweep", "2", "12", "--format", "csv")
    assert code == 0
    assert "10,T2.10,MISMATCH,37,33" in out


def test_sweep_json_matches_library(capsys):
    from indegraph.audit import render_report, sweep as lib_sweep

    code, out, _ = run(capsys, "sweep", "2", "10", "--format", "json", "--jobs", "2")
    assert code == 0
    assert out == render_report(lib_sweep(2, 10), "json") + "\n"


def test_export_dot_golden(capsys):
    code, out, _ = run(capsys, "export", "6", "--format", "dot")
    assert code == 0
    assert out == (GOLDEN / "indep_6.dot").read_text()


def test_export_dot_labels(capsys):
    code, out, _ = run(capsys, "export", "6", "--format", "dot", "--label-orders")
    assert code == 0
    assert '0 [label="0 o=1"];' in out
    assert '1 [label="1 o=6"];' in out


def test_export_edgelist(capsys):
    code, out, _ = run(capsys, "export", "4", "--format", "edgelist")
    assert code == 0
    assert out == "0 1\n0 2\n0 3\n1 2\n2 3\n"


def test_export_json(capsys):
    code, out, _ = run(capsys, "export", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 2, "edges": [[0, 1]]}


def test_export_to_file(tmp_path, capsys):
    target = tmp_path / "g.dot"
    code, out, _ = run(capsys, "export", "6", "--format", "dot", "-o", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == (GOLDEN / "indep_6.dot").read_text()


def test_export_capacity_exit(capsys):
    code, _, err = run(capsys, "--oracle-limit", "10", "export", "50", "--format", "dot")
    assert code == 1
    assert "capacity" in err


def test_hamiltonian_outputs(capsys):
    code, out, _ = run(capsys, "hamiltonian", "6")
    assert code == 0
    assert out == "prediction: hamiltonian\n0 1 2 3 4 5\n"
    code, out, _ = run(capsys, "hamiltonian", "9")
    assert out == "prediction: not hamiltonian\nNONE\n"
    code, out, _ = run(capsys, "hamiltonian", "3")
    assert out.endswith("NONE\n")
    code, out, _ = run(capsys, "hamiltonian", "100")
    assert code == 0
    assert "search skipped" in out
    assert out.startswith("prediction: hamiltonian\n")


def test_env_limits_and_flag_precedence(capsys, monkeypatch):
    monkeypatch.setenv("INDEGRAPH_ORACLE_LIMIT", "10")
    code, _, err = run(capsys, "export", "50", "--format", "dot")
    assert code == 1 and "capacity" in err
    # explicit flag wins over the environment
    code, out, _ = run(capsys, "--oracle-limit", "100", "export", "50", "--format", "edgelist")
    assert code == 0 and out.count("\n") > 100


def test_env_rejects_garbage(capsys, monkeypatch):
    monkeypatch.setenv("INDEGRAPH_EXACT_LIMIT", "lots")
    code, _, err = run(capsys, "info", "6")
    assert code == 1
    assert "INDEGRAPH_EXACT_LIMIT" in err


def test_jobs_env_used_by_sweep(capsys, monkeypatch):
    monkeypatch.setenv("INDEGRAPH_JOBS", "2")
    code, out, _ = run(capsys, "sweep", "2", "6", "--format", "csv")
    assert code == 0
    assert out.split("\n")[1].startswith("2,")


def test_jobs_env_read_by_sweep_only(capsys, monkeypatch):
    monkeypatch.setenv("INDEGRAPH_JOBS", "0")
    code, _, _ = run(capsys, "info", "6")
    assert code == 0
    code, _, err = run(capsys, "sweep", "2", "6")
    assert code == 1
    assert "jobs" in err


def test_bad_limits_and_jobs_exit_one(capsys):
    code, _, err = run(capsys, "--exact-limit", "1", "info", "6")
    assert code == 1
    assert "exact_search_limit" in err
    code, _, err = run(capsys, "sweep", "2", "6", "--jobs", "0")
    assert code == 1
    assert "jobs" in err


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "2"])  # missing hi
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["export", "6"])  # --format required
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["nope"])
    assert exc.value.code == 1


def test_sweep_range_validation(capsys):
    code, _, err = run(capsys, "sweep", "9", "3")
    assert code == 1
    assert "lo" in err
