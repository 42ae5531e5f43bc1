"""The layer ladder in bench/ladder.py: its entry schema and its counters."""

import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
LADDER = os.path.join(ROOT, "bench", "ladder.py")


def check_entry(entry):
    assert sorted(entry) == ["commit", "host", "quick", "rungs", "src_modified", "utc"]
    assert sorted(entry["host"]) == ["cpus", "machine", "python"]
    assert entry["rungs"]
    for rung in entry["rungs"]:
        # every rung may carry the reference loop's time, which older entries
        # lack; cli rungs of older entries also carry their children's CPU time
        keys = ["counts", "k", "layer", "min_s", "name", "size"]
        assert sorted(rung) in (keys, sorted(keys + ["ref_s"]), sorted(keys + ["min_cpu_s"]),
                                sorted(keys + ["min_cpu_s", "ref_s"]))
        assert rung["k"] >= 1 and rung["min_s"] > 0
        if "min_cpu_s" in rung:
            assert rung["layer"] == "cli" and rung["min_cpu_s"] > 0
        if "ref_s" in rung:
            assert rung["ref_s"] > 0
        # tracer counters that stay 0 are left out; the count of standard
        # library modules on an older entry's cli rung may be 0
        counts = dict(rung["counts"])
        if "python.modules" in counts:
            python = counts.pop("python.modules")
            assert rung["layer"] == "cli" and isinstance(python, int) and python >= 0
        assert all(isinstance(v, int) and v > 0 for v in counts.values())


def quick_run(*extra):
    done = subprocess.run([sys.executable, LADDER, "--quick", *extra], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_quick_ladder_schema_and_repeatable_counts(tmp_path):
    history = str(tmp_path / "layers.json")
    first = quick_run("--append", history)
    second = quick_run("--append", history)
    for entry in (first, second):
        check_entry(entry)
        assert entry["quick"] is True
    # one size per rung, and the counters repeat exactly; times are not compared
    assert [r["layer"] for r in first["rungs"]] \
        == ["curves", "nets", "nets", "nets", "nets", "latin", "latin"]
    assert [(r["name"], r["size"], r["counts"]) for r in first["rungs"]] \
        == [(r["name"], r["size"], r["counts"]) for r in second["rungs"]]
    # every rung records the reference loop's time
    assert all(r["ref_s"] > 0 for r in first["rungs"])
    # the classify rung reads its cubics' points off lines, not a plane listing
    assert "plane.all_points" not in first["rungs"][1]["counts"]
    assert first["rungs"][1]["counts"]["nets.classify"] == 4
    # the verifier joins each point of component 0 with the 3n - 1 other
    # net points; the center search tests the n^2 candidates of a net
    # that has no center, and leaves out the found counter that stays 0
    verify, centers = first["rungs"][2:4]
    assert verify["size"] == centers["size"] == {"n": 15}
    assert verify["counts"] == {"nets.verify": 1, "plane.join": 15 * (3 * 15 - 1)}
    assert centers["counts"]["nets.find_centers.tested"] == 15 ** 2
    assert "nets.find_centers.found" not in centers["counts"]
    # classify decides the tetrahedral split from the line table, with no
    # verify of a face
    tetrahedron = first["rungs"][4]
    assert tetrahedron["size"] == {"m": 6}
    assert tetrahedron["counts"]["nets.classify"] == 1
    assert "nets.verify" not in tetrahedron["counts"]
    with open(history) as fh:
        assert json.load(fh) == [first, second]


def test_recorded_entries_keep_the_schema():
    with open(os.path.join(ROOT, "BENCH_layers.json")) as fh:
        history = json.load(fh)
    assert history
    for entry in history:
        check_entry(entry)
