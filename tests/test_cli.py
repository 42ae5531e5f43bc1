import io
import json
import os
import subprocess
import sys

from dualnets.cli import load_document, main, net_document, to_jsonable


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def construct(capsys, tmp_path, name, *argv):
    rc, out, err = run(capsys, "construct", *argv)
    assert rc == 0, err
    path = tmp_path / (name + ".json")
    path.write_text(out)
    return str(path), json.loads(out)


def test_construct_and_verify_roundtrip(capsys, tmp_path):
    path, doc = construct(capsys, tmp_path, "cl",
                          "conic-line", "--n", "5", "--p", "11")
    assert doc["p"] == 11
    assert len(doc["components"]) == 3
    assert all(len(comp) == 5 for comp in doc["components"])
    assert doc["meta"]["family"] == "conic-line"
    rc, out, err = run(capsys, "verify", path)
    assert rc == 0
    report = json.loads(out)
    assert report == {"verified": True, "p": 11, "k": 3, "n": 5,
                      "char_exception": False}


def test_classify_and_centers(capsys, tmp_path):
    path, _ = construct(capsys, tmp_path, "cl",
                        "conic-line", "--n", "5", "--p", "11")
    rc, out, _ = run(capsys, "classify", path)
    assert rc == 0
    assert json.loads(out)["tag"] == "conic-line"
    rc, out, _ = run(capsys, "centers", path)
    assert rc == 0
    report = json.loads(out)
    assert report["centers"] == [[0, 0, 1]]
    assert report["count"] == 1


def test_crossratio_conic_line(capsys, tmp_path):
    path, _ = construct(capsys, tmp_path, "cl",
                        "conic-line", "--n", "5", "--p", "11")
    rc, out, _ = run(capsys, "crossratio", path)
    assert rc == 0
    rows = json.loads(out)["centers"]
    assert len(rows) == 1
    entry = rows[0]
    assert entry["center"] == [0, 0, 1]
    assert entry["kappa"] == "10"
    assert entry["kappa_plus_one_zero"] is True
    assert entry["kappa_squared_minus_kappa_plus_one_zero"] is False


def test_crossratio_fermat(capsys, tmp_path):
    path, _ = construct(capsys, tmp_path, "fm",
                        "fermat", "--n", "3", "--p", "19")
    rc, out, _ = run(capsys, "crossratio", path)
    assert rc == 0
    rows = json.loads(out)["centers"]
    assert [entry["center"] for entry in rows] == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    for entry in rows:
        assert entry["kappa_squared_minus_kappa_plus_one_zero"] is True


def test_hesse4_document_and_reports(capsys, tmp_path):
    path, doc = construct(capsys, tmp_path, "h4", "hesse4", "--p", "13")
    assert len(doc["components"]) == 4
    assert all(len(comp) == 3 for comp in doc["components"])
    rc, out, _ = run(capsys, "verify", path)
    assert rc == 0 and json.loads(out)["k"] == 4
    rc, out, _ = run(capsys, "classify", path)
    assert rc == 0
    report = json.loads(out)
    assert report["k"] == 4
    assert [d["tag"] for d in report["derived"]] == ["proper-algebraic"] * 4
    rc, out, _ = run(capsys, "crossratio", path)
    assert rc == 0
    entry = json.loads(out)
    assert entry["kappa"] == "10"
    assert entry["kappa_squared_minus_kappa_plus_one_zero"] is True
    assert entry["kappa_plus_one_zero"] is False


def test_construct_usage_errors(capsys, tmp_path):
    rc, _, err = run(capsys, "construct", "conic-line", "--n", "4", "--p", "13")
    assert rc == 2 and "odd" in err
    rc, _, err = run(capsys, "construct", "triangular", "--p", "11")
    assert rc == 2 and "requires --n" in err
    rc, _, err = run(capsys, "construct", "triangular", "--n", "5", "--p", "15")
    assert rc == 2 and "not prime" in err
    rc, _, err = run(capsys, "construct", "moebius", "--p", "11")
    assert rc == 2


def test_verify_failure_is_exit_one(capsys, tmp_path):
    path, doc = construct(capsys, tmp_path, "cl",
                          "conic-line", "--n", "5", "--p", "11")
    doc["components"][1][0] = [1, 2, 3]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc, out, _ = run(capsys, "verify", str(bad))
    assert rc == 1
    report = json.loads(out)
    assert report["verified"] is False
    assert "error" in report
    for command in ("classify", "centers", "crossratio"):
        rc, out, _ = run(capsys, command, str(bad))
        assert rc == 1


def test_document_loading_errors(capsys, tmp_path):
    junk = tmp_path / "junk.json"
    junk.write_text("{not json")
    rc, _, err = run(capsys, "verify", str(junk))
    assert rc == 2 and "invalid JSON" in err

    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"p": 11}))
    rc, _, err = run(capsys, "verify", str(incomplete))
    assert rc == 2 and "components" in err

    composite = tmp_path / "composite.json"
    composite.write_text(json.dumps({"p": 10, "components": []}))
    rc, _, err = run(capsys, "verify", str(composite))
    assert rc == 2 and "prime" in err

    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps({"p": 11, "components": [[[1, 0]]]}))
    rc, _, err = run(capsys, "verify", str(pairs))
    assert rc == 2 and "triples" in err

    rc, _, err = run(capsys, "verify", str(tmp_path / "missing.json"))
    assert rc == 2 and "error" in err

    # "meta" is an object, absent or null; "char_exception" a JSON boolean
    _, doc = construct(capsys, tmp_path, "pc", "pencil", "--p", "5")
    for meta, wanted in (([1], '"meta"'), ("x", '"meta"'), (0, '"meta"'),
                         ({"char_exception": "false"}, '"char_exception"'),
                         ({"char_exception": 1}, '"char_exception"'),
                         ({"char_exception": None}, '"char_exception"')):
        bad = tmp_path / "bad_meta.json"
        bad.write_text(json.dumps(dict(doc, meta=meta)))
        rc, out, err = run(capsys, "verify", str(bad))
        assert rc == 2 and wanted in err and "Traceback" not in err and out == ""
    for meta, code in ((None, 1), ({"char_exception": False}, 1),
                       ({"char_exception": True}, 0)):
        path = tmp_path / "meta.json"
        path.write_text(json.dumps(dict(doc, meta=meta)))
        assert run(capsys, "verify", str(path))[0] == code


def test_pencil_roundtrip_keeps_char_exception(capsys, tmp_path):
    path, doc = construct(capsys, tmp_path, "pc", "pencil", "--p", "5")
    assert doc["meta"]["char_exception"] is True
    rc, out, _ = run(capsys, "verify", path)
    assert rc == 0
    report = json.loads(out)
    assert report["char_exception"] is True and report["n"] == 5
    # without the flag the same points must be rejected as a usage-level
    # violation of the p > n convention
    del doc["meta"]
    stripped = tmp_path / "stripped.json"
    stripped.write_text(json.dumps(doc))
    rc, out, _ = run(capsys, "verify", str(stripped))
    assert rc == 1
    assert json.loads(out)["verified"] is False


def test_stdin_input(capsys, monkeypatch, tmp_path):
    path, doc = construct(capsys, tmp_path, "tr",
                          "triangular", "--n", "5", "--p", "11")
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    rc, out, _ = run(capsys, "verify", "-")
    assert rc == 0
    assert json.loads(out)["verified"] is True


def test_output_is_deterministic(capsys, tmp_path):
    rc1, out1, _ = run(capsys, "construct", "tetrahedron", "--m", "2", "--p", "13")
    rc2, out2, _ = run(capsys, "construct", "tetrahedron", "--m", "2", "--p", "13")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_document_roundtrip_is_stable(capsys, tmp_path):
    for argv in (("conic-line", "--n", "5", "--p", "11"),
                 ("fermat", "--n", "3", "--p", "19"),
                 ("hesse4", "--p", "13"),
                 ("pencil", "--p", "5")):
        rc, out, err = run(capsys, "construct", *argv)
        assert rc == 0, err
        doc = json.loads(out)
        net = load_document(json.dumps(doc))
        assert to_jsonable(net_document(net)) == doc


def test_demos_pass(capsys):
    for name in ("pencil", "conic-line", "fermat", "j0-identities",
                 "negative-sweeps"):
        rc, out, _ = run(capsys, "demo", name)
        assert rc == 0, out
        lines = [line for line in out.splitlines() if line]
        assert lines and all(line.startswith("PASS") for line in lines)


def test_demo_unknown_name(capsys):
    rc, _, err = run(capsys, "demo", "nonsense")
    assert rc == 2


def test_huge_primes(capsys, tmp_path):
    # a triangular net of order 3 over GF(10^18 + 3): deciding that p is
    # prime must not stall verify, which used trial division up to 10^9
    p = 10 ** 18 + 3
    xi = pow(5, (p - 1) // 3, p)
    assert xi != 1 and pow(xi, 3, p) == 1
    roots = [1, xi, xi * xi % p]
    doc = {"p": p, "components": [[[1, 0, r] for r in roots], [[0, 1, r] for r in roots],
                                  [[r, p - 1, 0] for r in roots]]}
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for command, want in (("verify", {"verified": True, "p": p, "k": 3, "n": 3,
                                      "char_exception": False}),
                          ("centers", {"centers": [], "count": 0})):
        done = subprocess.run([sys.executable, "-m", "dualnets.cli", command, "-"],
                              input=json.dumps(doc), capture_output=True, text=True,
                              env=env, timeout=30)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == want
    # above 2^64 primality is not decided: a usage error naming the limit
    big = tmp_path / "big.json"
    big.write_text(json.dumps(dict(doc, p=2 ** 64 + 13)))
    rc, out, err = run(capsys, "verify", str(big))
    assert rc == 2 and out == "" and "2^64" in err and "Traceback" not in err
    rc, out, err = run(capsys, "construct", "hesse4", "--p", str(2 ** 64 + 13))
    assert rc == 2 and out == "" and "2^64" in err
