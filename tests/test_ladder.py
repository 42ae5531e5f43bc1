"""The layer ladder in bench/ladder.py: its entry schema and its counters."""

import copy
import json
import os

from util import run_child

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


def last_recorded_entry():
    with open(os.path.join(ROOT, "BENCH_layers.json")) as fh:
        return json.load(fh)[-1]


def counter_mismatches(rungs, recorded):
    """One message for each counter of each rung in rungs that differs from
    the rung of the same layer, name and size in the recorded entry, and
    one for each rung the entry lacks; counters are compared for equality."""
    def key(rung):
        return rung["layer"], rung["name"], tuple(sorted(rung["size"].items()))

    want = {key(rung): rung["counts"] for rung in recorded["rungs"]}
    out = []
    for rung in rungs:
        label = "%s rung %r at %r" % (rung["layer"], rung["name"], rung["size"])
        if key(rung) not in want:
            out.append("%s: not in the recorded entry" % label)
            continue
        got, had = rung["counts"], want[key(rung)]
        out.extend("%s: %s is %s, recorded %s" % (label, name, got.get(name), had.get(name))
                   for name in sorted(set(got) | set(had)) if got.get(name) != had.get(name))
    return out


def test_quick_ladder_schema_and_repeatable_counts(tmp_path):
    # one run, appended to a history that already holds the last recorded
    # entry, whose counters it must repeat exactly (below); times are not compared
    recorded = last_recorded_entry()
    history = tmp_path / "layers.json"
    history.write_text(json.dumps([recorded]))
    done = run_child(LADDER, "--quick", "--append", str(history), timeout=120)
    assert done.returncode == 0, done.stderr
    first = json.loads(done.stdout)
    check_entry(first)
    assert first["quick"] is True
    # one size per rung
    assert [r["layer"] for r in first["rungs"]] \
        == ["curves", "nets", "nets", "nets", "nets", "latin", "latin", "latin"]
    # every rung records the reference loop's time
    assert all(r["ref_s"] > 0 for r in first["rungs"])
    # the classify rung reads its cubics' points off lines, not a plane listing
    assert "plane.all_points" not in first["rungs"][1]["counts"]
    assert first["rungs"][1]["counts"]["nets.classify"] == 4
    # the verifier keys the other net points by their line with each point
    # of component 0 and joins that point with component 1 only: n^2
    # joins; the center search tests the n^2 candidates of a net that has
    # no center, and leaves out the found counter that stays 0
    verify, centers = first["rungs"][2:4]
    assert verify["size"] == centers["size"] == {"n": 15}
    assert verify["counts"] == {"nets.verify": 1, "plane.join": 15 ** 2}
    assert centers["counts"]["nets.find_centers.tested"] == 15 ** 2
    assert "nets.find_centers.found" not in centers["counts"]
    # classify decides the tetrahedral split from the line table, with no
    # verify of a face
    tetrahedron = first["rungs"][4]
    assert tetrahedron["size"] == {"m": 6}
    assert tetrahedron["counts"]["nets.classify"] == 1
    assert "nets.verify" not in tetrahedron["counts"]
    assert json.loads(history.read_text()) == [recorded, first]
    # the counters equal those of the last entry of BENCH_layers.json: a
    # change of work shows here until its entries are appended
    assert counter_mismatches(first["rungs"], recorded) == []


def test_counter_gate_names_each_changed_counter_and_unrecorded_rung():
    recorded = last_recorded_entry()
    rungs = copy.deepcopy(recorded["rungs"])
    assert counter_mismatches(rungs, recorded) == []
    verify = next(r for r in rungs if r["name"].startswith("verify(") and r["size"] == {"n": 15})
    joins = verify["counts"]["plane.join"]
    verify["counts"]["plane.join"] += 1
    verify["counts"]["plane.meet"] = 1
    del verify["counts"]["nets.verify"]
    extra = dict(verify, size={"n": 16})
    label = "nets rung %r at {'n': 15}" % verify["name"]
    assert counter_mismatches(rungs + [extra], recorded) == [
        label + ": nets.verify is None, recorded 1",
        label + ": plane.join is %d, recorded %d" % (joins + 1, joins),
        label + ": plane.meet is 1, recorded None",
        "nets rung %r at {'n': 16}: not in the recorded entry" % verify["name"]]


def test_recorded_entries_keep_the_schema():
    with open(os.path.join(ROOT, "BENCH_layers.json")) as fh:
        history = json.load(fh)
    assert history
    for entry in history:
        check_entry(entry)
