import dataclasses
import json
import tracemalloc
from pathlib import Path

import pytest

from indegraph import cli, closed_form, invariants, oracle, zn

from conftest import SMOOTH_MODULI

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
    for n in SMOOTH_MODULI:
        code, out, _ = run(capsys, "info", str(n), "--json")
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n", n


def test_info_json_sends_its_degree_table_to_the_c_encoder_once(capsys, monkeypatch):
    calls = []
    table_text = invariants._int_table_text
    monkeypatch.setattr(
        invariants, "_int_table_text",
        lambda value, indent: calls.append(len(value)) or table_text(value, indent),
    )
    code, out, _ = run(capsys, "info", "530755139915304876", "--json")
    assert code == 0
    assert calls == [len(json.loads(out)["degrees"])] == [2210]
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize("n, tests", [
    pytest.param(999_999_999_989, 1, id="prime"),
    pytest.param(2**61 - 1, 1, id="mersenne-61"),
    pytest.param(100_003 * 100_019, 3, id="semiprime"),
])
@pytest.mark.parametrize("command", [("info", "--json"), ("audit",)], ids=["info", "audit"])
def test_one_primality_test_per_cofactor(capsys, monkeypatch, empty_zn_caches,
                                         n, tests, command):
    # factorize tests each cofactor once; is_prime and everything else
    # reads its cached result. A semiprime takes three tests: itself and
    # its two prime factors.
    tested = []
    original = zn._is_cofactor_prime

    def counted(m):
        tested.append(m)
        return original(m)

    monkeypatch.setattr(zn, "_is_cofactor_prime", counted)
    code, _, _ = run(capsys, command[0], str(n), *command[1:])
    assert code == 0
    assert len(tested) == tests, tested


def test_info_verify_shows_the_oracles_value_as_the_row_shows_its_own(capsys, monkeypatch):
    # Doctor the closed forms for the star I_G(Z_5): a bool field, the
    # degree profile and the girth then disagree with the oracle.
    invariants = closed_form.invariants

    def doctored(n):
        return dataclasses.replace(
            invariants(n), connected=False, degree_counts=((4, 5),), girth=3
        )

    monkeypatch.setattr(closed_form, "invariants", doctored)
    code, out, _ = run(capsys, "info", "5", "--verify")
    assert code == 2
    assert "  connected    no  [DISAGREE: oracle says yes]\n" in out
    assert "  degrees      4x5  [DISAGREE: oracle says 4x1 1x4]\n" in out
    assert "  girth        3  [DISAGREE: oracle says INFINITE]\n" in out
    assert out.count("DISAGREE") == 3

    code, out, _ = run(capsys, "info", "5", "--verify", "--json")
    assert code == 2
    checks = json.loads(out)["verify"]["checks"]
    assert checks["connected"] == {"status": "disagree", "oracle": True}
    assert checks["degrees"] == {"status": "disagree", "oracle": [[4, 1], [1, 4]]}
    assert checks["girth"] == {"status": "disagree", "oracle": "INFINITE"}
    assert checks["edges"] == {"status": "agree", "oracle": 4}


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


@pytest.mark.parametrize("n", ["1", "0", "-3"])
def test_audit_rejects_bad_n(capsys, n):
    code, out, err = run(capsys, "audit", n)
    assert code == 1
    assert err == f"indegraph: error: modulus must be at least 2, got {n}\n"
    assert out == ""


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


def test_export_capacity_exit(capsys, tmp_path):
    code, _, err = run(capsys, "--oracle-limit", "10", "export", "50", "--format", "dot")
    assert code == 1
    assert "capacity" in err
    target = tmp_path / "g.dot"
    code, _, err = run(
        capsys, "--oracle-limit", "10", "export", "50", "--format", "dot", "-o", str(target)
    )
    assert code == 1 and "capacity" in err
    assert not target.exists()


# The export renderers as they were when each built its whole text in memory.


def whole_text_dot(graph, label_orders=False):
    lines = [f"graph indep_{graph.n} {{"]
    for v in range(graph.n):
        if label_orders:
            lines.append(f'  {v} [label="{v} o={graph.orders[v]}"];')
        else:
            lines.append(f"  {v};")
    lines.extend(f"  {a} -- {b};" for a, b in cli.edges(graph))
    lines.append("}")
    return "\n".join(lines) + "\n"


def whole_text_edgelist(graph):
    return "".join(f"{a} {b}\n" for a, b in cli.edges(graph))


def test_export_bytes_match_the_whole_text_renderers(capsys):
    for n in range(2, 65):
        graph = oracle.build(n)
        edges = [[a, b] for a, b in cli.edges(graph)]
        expected = {
            ("json",): json.dumps({"n": n, "edges": edges}) + "\n",
            ("edgelist",): whole_text_edgelist(graph),
            ("dot",): whole_text_dot(graph),
            ("dot", "--label-orders"): whole_text_dot(graph, label_orders=True),
        }
        for (fmt, *flags), text in expected.items():
            code, out, _ = run(capsys, "export", str(n), "--format", fmt, *flags)
            assert code == 0
            assert out == text, (n, fmt, flags)


@pytest.mark.parametrize("fmt", ["dot", "json", "edgelist"])
def test_export_memory_stays_flat(tmp_path, capsys, fmt):
    # n = 500 has 93,749 edges, a 0.7-1.3 MB file, written one edge at a
    # time; a renderer that builds the whole text peaks at 6.9-13.3 MB.
    target = tmp_path / f"g.{fmt}"
    tracemalloc.start()
    try:
        code, _, _ = run(capsys, "export", "500", "--format", fmt, "-o", str(target))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert target.stat().st_size > 5 * 10**5
    assert peak < 10**6, peak


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


def test_limits_come_from_flags_only(capsys, monkeypatch):
    # The environment sets no limit; only --oracle-limit lowers the default.
    monkeypatch.setenv("INDEGRAPH_ORACLE_LIMIT", "10")
    code, out, _ = run(capsys, "export", "50", "--format", "edgelist")
    assert code == 0 and out.count("\n") > 100
    code, _, err = run(capsys, "--oracle-limit", "10", "export", "50", "--format", "dot")
    assert code == 1 and "capacity" in err


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
