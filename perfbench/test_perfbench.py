"""Self-test of the benchmark: python3 -m pytest perfbench

Shrinks each workload to a few small inputs, so the whole file runs in
well under a minute.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from dualnets import cli, latin, nets, plane  # noqa: E402
from dualnets.gf import find_prime  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_MAP = json.loads((HERE / "layers.json").read_text())


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(W, "LADDER", (("triangular", 5, 11, None), ("conic-line", 5, 11, None),
                                      ("pencil", 7, 7, None), ("tetrahedron", 6, 13, 3)))
    monkeypatch.setattr(W, "ALGEBRAIC", (("fermat", 3, 19, None), ("hesse4", 3, 7, None)))
    monkeypatch.setattr(W, "LATIN_SQUARES", ((5, 11), (6, 7)))


def last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_small_pass_emits_every_metric(small, capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace)])
    result = last_json(capsys)
    assert code == 0
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_counters_repeat_exactly(small):
    for workload in ("ladder", "algebraic", "latin"):
        first, second = (run.traced(workload, 5)[1] for _ in range(2))
        counts = [k for k, (_, unit) in first.items()
                  if unit in ("count", "ratio") and k != "trace.overhead_ratio"]
        assert counts
        assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_injected_wrong_output_is_counted(small, monkeypatch):
    real = nets.find_centers
    monkeypatch.setattr(nets, "find_centers", lambda net: real(net) | {(0, 1, 0)})
    checker, one_pass = run.traced_cli("ladder", 1)
    one_pass()
    assert checker.failed > 0 and checker.attempted > checker.failed


def test_wrong_echo_and_missing_line_fail():
    doc = W.make_docs("ladder", 1)[0]
    run.setup_cli([doc], lambda argv: run.call_main(cli, argv))
    good = json.dumps({"verified": True, "k": 3, "n": doc.n, "p": doc.p, "char_exception": False})
    assert W.check_cli("verify", doc, 0, good, "") is None
    assert W.check_cli("verify", doc, 0, good.replace('"n": 5', '"n": 6'), "") is not None
    assert W.check_cli("reject", doc, 1, json.dumps({"verified": False}), "") is not None
    assert W.check_cli("verify", doc, 0, good, "Traceback (most recent call last)") is not None


def test_mutation_always_breaks_the_net():
    for seed in range(20):
        doc = next(d for d in W.make_docs("ladder", seed) if d.family == "conic-line")
        run.setup_cli([doc], lambda argv: run.call_main(cli, argv))
        assert oracle.is_dual_net(doc.comps, doc.p)
        assert not oracle.is_dual_net(doc.mutant_comps, doc.p)


def test_fixed_parameters_match_the_library():
    for family, n, p, m in W.LADDER:
        if family in W.PARAMETRIZED and p != 181:
            assert p == find_prime(n)
    assert all(p == find_prime(n) for n, p in W.LATIN_SQUARES)
    assert W.LATIN_GROUPS == len(latin.group_catalog(16))


def test_oracle_cross_ratio_matches_the_pinned_convention():
    p = 31
    A, B = (1, 0, 1), (1, 2, 3)
    line = plane.join(A, B, p)
    others = [X for X in plane.line_points(line, p) if X not in (A, B)]
    for C, D in zip(others, others[1:]):
        want = plane.cross_ratio(A, B, C, D, p)
        assert oracle.kappa_string(oracle.kappa4(A, B, C, D, p)) == repr(want)


def test_refuses_a_directory_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable] + BENCH["command"][1:] + [
        "--workload", "latin", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_layer_map_covers_every_metric():
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    names = [name for entry in LAYER_MAP["layers"] for name in entry["metrics"]]
    assert sorted(names) == sorted(m["name"] for m in BENCH["per_layer"])
    for entry in LAYER_MAP["layers"]:
        for workload, moved in entry["moves"].items():
            assert workload in LAYER_MAP["workloads"]
            assert set(moved) <= e2e | set(LAYER_MAP["report_only"])
    assert set(LAYER_MAP["workloads"]) == {w["name"] for w in BENCH["workloads"]}
