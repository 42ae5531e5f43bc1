"""Golden CLI output: stdout and exit codes pinned byte for byte.

For every document below the fixture holds the output of `construct`, of
`verify`, `centers`, `crossratio` and `classify` on the constructed
document, and of `verify` on a one-point mutant of it.  Any change in what
the CLI prints for these inputs fails here.

Regenerate the fixture only for an intended change of output:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
import os
import sys
import tempfile

from util import run_main

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "cli_golden.json")

DOCUMENTS = {
    "triangular-15-181-c7": ("triangular", "--n", "15", "--p", "181", "--c", "7"),
    "conic-line-15-31-c3": ("conic-line", "--n", "15", "--p", "31", "--c", "3"),
    "pencil-19": ("pencil", "--p", "19"),
    "tetrahedron-6-61": ("tetrahedron", "--m", "6", "--p", "61"),
    "fermat-3-19": ("fermat", "--n", "3", "--p", "19"),
    "fermat-7-61": ("fermat", "--n", "7", "--p", "61"),
    "hesse4-7": ("hesse4", "--p", "7"),
    "hesse4-13": ("hesse4", "--p", "13"),
}

COMMANDS = ("verify", "centers", "crossratio", "classify")


def pinned(*argv):
    code, out, _ = run_main(*argv)
    return {"exit": code, "stdout": out}


def mutant(doc):
    """The document with the first point of component 1 replaced by the
    first affine point (1, y, z), in (y, z) order, that is no net point.
    Any single replaced point breaks a net of order n >= 2."""
    p = doc["p"]
    pts = {tuple(P) for comp in doc["components"] for P in comp}
    Q = next((1, y, z) for y in range(p) for z in range(p) if (1, y, z) not in pts)
    comps = [list(comp) for comp in doc["components"]]
    comps[1][0] = list(Q)
    return dict(doc, components=comps)


def outputs(name, argv, tmpdir):
    """Every pinned CLI result for one document, keyed by command."""
    got = {"construct": pinned("construct", *argv)}
    doc = json.loads(got["construct"]["stdout"])
    path = os.path.join(tmpdir, name + ".json")
    bad = os.path.join(tmpdir, name + "-mutant.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    with open(bad, "w") as fh:
        json.dump(mutant(doc), fh)
    for command in COMMANDS:
        got[command] = pinned(command, path)
    got["verify-mutant"] = pinned("verify", bad)
    return got


def all_outputs():
    with tempfile.TemporaryDirectory() as tmpdir:
        return {name: outputs(name, argv, tmpdir) for name, argv in DOCUMENTS.items()}


def test_cli_output_matches_golden_fixture():
    with open(FIXTURE) as fh:
        want = json.load(fh)
    assert sorted(want) == sorted(DOCUMENTS)
    got = all_outputs()
    for name in DOCUMENTS:
        for command, result in want[name].items():
            assert got[name][command] == result, (name, command)
        assert sorted(got[name]) == sorted(want[name]), name
    # the mutants are rejected, everything else succeeds
    for name in DOCUMENTS:
        assert want[name]["verify-mutant"]["exit"] == 1
        assert all(r["exit"] == 0 for c, r in want[name].items() if c != "verify-mutant")


if __name__ == "__main__":
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w") as fh:
        json.dump(all_outputs(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.exit(0)
