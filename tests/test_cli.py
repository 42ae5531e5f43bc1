import io
import json
import os
import resource
import subprocess
import sys

import pytest

from dualnets import cli
from dualnets.cli import MAX_DOCUMENT_CHARS, USAGE, load_document, main, net_document
from dualnets.constructors import triangular_cyclic
from dualnets.cubic_group import CURVE_GROUP_MAX_P, FERMAT_PRIME_SCAN_CAP
from dualnets.nets import VERIFY_MAX_JOINS


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


MALFORMED = (
    (),
    ("nonsense",),
    ("construct",),
    ("construct", "moebius", "--p", "11"),
    ("construct", "triangular", "--n", "x", "--p", "11"),
    ("construct", "triangular", "--p", "11", "--n"),
    ("construct", "triangular", "--n", "5", "--p", "11", "--q", "3"),
    ("verify", "a", "b"),
    ("verify",),
    ("demo", "nope"),
)
COMMANDS = ("construct", "verify", "classify", "centers", "crossratio", "demo")


@pytest.mark.parametrize("argv", MALFORMED)
def test_usage_errors_exit_2_with_one_line(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == "" and "Traceback" not in err, argv
    assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


@pytest.mark.parametrize("argv", [(flag,) for flag in ("-h", "--help")]
                         + [(command, flag) for command in COMMANDS for flag in ("-h", "--help")])
def test_help_prints_usage_on_stdout(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 0 and out.startswith("usage: dualnets") and err == "", argv
    assert out == USAGE + "\n"


def test_readme_gives_the_help_text():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        assert "```\n%s\n```" % USAGE in fh.read()


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

    # hostile documents: nesting past the parser's recursion limit, and
    # bytes that are not UTF-8
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100000)
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    for command in ("verify", "classify", "centers", "crossratio"):
        rc, out, err = run(capsys, command, str(tmp_path / "missing.json"))
        assert rc == 2 and "error" in err and out == "", command
        rc, out, err = run(capsys, command, str(junk))
        assert rc == 2 and "invalid JSON" in err and out == "", command
        rc, out, err = run(capsys, command, str(nested))
        assert rc == 2 and "invalid JSON" in err and "Traceback" not in err and out == "", command
        rc, out, err = run(capsys, command, str(binary))
        assert rc == 2 and "error: " in err and "Traceback" not in err and out == "", command

    # "meta" is an object, absent or null; "char_exception" a JSON boolean;
    # coordinates are JSON integers, not floats that truncate to the first
    # point (0, 0, 1), numeric strings or booleans
    _, doc = construct(capsys, tmp_path, "pc", "pencil", "--p", "5")
    first = doc["components"][0][0]
    assert first == [0, 0, 1]

    def with_first_point(P):
        comps = [[P] + doc["components"][0][1:]] + doc["components"][1:]
        return dict(doc, components=comps)

    bad_docs = [(dict(doc, meta=meta), wanted) for meta, wanted in (
        ([1], '"meta"'), ("x", '"meta"'), (0, '"meta"'),
        ({"char_exception": "false"}, '"char_exception"'),
        ({"char_exception": 1}, '"char_exception"'),
        ({"char_exception": None}, '"char_exception"'))]
    bad_docs += [(with_first_point(P), "integer triples") for P in (
        [x + 0.9 for x in first], [str(x) for x in first], [bool(x) for x in first], 5)]
    bad_docs.append((dict(doc, components=5), "integer triples"))
    # json writes inf and nan as Infinity and NaN, which json.loads reads
    bad_docs += [(with_first_point([x, 0, 1]), "integer triples")
                 for x in (float("inf"), float("nan"))]
    bad_docs.append((with_first_point([0, 0, 0]), "zero triple is not projective"))
    for bad_doc, wanted in bad_docs:
        bad = tmp_path / "bad_doc.json"
        bad.write_text(json.dumps(bad_doc))
        rc, out, err = run(capsys, "verify", str(bad))
        assert rc == 2 and wanted in err and "Traceback" not in err and out == ""
    # well-formed documents of the wrong shape are no net: exit 1 with the
    # violation report on stdout
    for comps, wanted in ((doc["components"][:2], "at least 3 components"),
                          ([[], [], []], "empty component")):
        shape = tmp_path / "shape.json"
        shape.write_text(json.dumps(dict(doc, components=comps)))
        rc, out, err = run(capsys, "verify", str(shape))
        assert rc == 1 and wanted in json.loads(out)["error"] and err == ""
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


def test_document_read_is_bounded(capsys, monkeypatch, tmp_path):
    # a document of MAX_DOCUMENT_CHARS characters loads; one character more
    # exits 2 naming the limit, from a file or from stdin
    path, _ = construct(capsys, tmp_path, "tr", "triangular", "--n", "5", "--p", "11")
    with open(path) as fh:
        text = fh.read()
    monkeypatch.setattr(cli, "MAX_DOCUMENT_CHARS", len(text))
    message = ("error: the document is longer than MAX_DOCUMENT_CHARS = %d characters\n"
               % len(text))
    over = tmp_path / "over.json"
    over.write_text(text + " ")
    assert run(capsys, "verify", path)[0] == 0
    assert run(capsys, "verify", str(over)) == (2, "", message)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert run(capsys, "verify", "-")[0] == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(text + " "))
    assert run(capsys, "verify", "-") == (2, "", message)


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
        assert net_document(net) == doc


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


def _module_env():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def _run_module(*argv, stdin=None, timeout=10, max_bytes=None):
    """Run `python -m dualnets.cli argv`; max_bytes caps the child's
    address space, so a runaway allocation fails in the child alone."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (max_bytes, max_bytes))

    return subprocess.run([sys.executable, "-m", "dualnets.cli", *argv], input=stdin,
                          capture_output=True, text=True, env=_module_env(), timeout=timeout,
                          preexec_fn=cap if max_bytes is not None else None)


def test_root_of_unity_for_a_large_prime():
    # (p - 1) / 6 is prime here, so factorizing p - 1 by trial division
    # would stall construct for longer than the timeout; only n = 3 needs
    # factorizing
    p = 600000000000007963
    built = _run_module("construct", "triangular", "--n", "3", "--p", str(p))
    assert built.returncode == 0, built.stderr
    assert json.loads(built.stdout)["p"] == p
    checked = _run_module("verify", "-", stdin=built.stdout, timeout=30)
    assert checked.returncode == 0, checked.stderr
    assert json.loads(checked.stdout) == {"verified": True, "p": p, "k": 3, "n": 3,
                                          "char_exception": False}


def test_centers_of_an_order_1_net_over_a_large_field():
    # the centers are the other p - 1 points of the one net line; a sweep of
    # the p^2 + p + 1 points of the plane does not finish within the timeout
    doc = json.dumps({"p": 100003, "components": [[[1, 0, 0]], [[0, 1, 0]], [[1, 1, 0]]]})
    done = _run_module("centers", "-", stdin=doc)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["count"] == 100001
    assert report["centers"][:2] == [[1, 2, 0], [1, 3, 0]]
    assert report["centers"][-1] == [1, 100002, 0]


def test_endless_input_exits_2():
    # /dev/zero never ends; the read stops one character past the limit
    done = _run_module("verify", "/dev/zero", timeout=60, max_bytes=1 << 30)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == ("error: the document is longer than MAX_DOCUMENT_CHARS = %d "
                           "characters\n" % MAX_DOCUMENT_CHARS)


def test_closed_stdout_exits_141_quietly(tmp_path):
    # the reader takes one byte of the 1.6 MB of centers and closes the
    # pipe: the command ends with the status of a process SIGPIPE ended and
    # prints nothing on stderr, where it used to report a usage error
    doc = tmp_path / "order1.json"
    doc.write_text(json.dumps({"p": 100003,
                               "components": [[[1, 0, 0]], [[0, 1, 0]], [[1, 1, 0]]]}))
    with subprocess.Popen([sys.executable, "-m", "dualnets.cli", "centers", str(doc)],
                          bufsize=0, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=_module_env()) as proc:
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        _, err = proc.communicate(timeout=10)
    assert proc.returncode == 141 and err == b""


def test_centers_of_an_order_1_net_past_the_limit():
    # p - 1 centers over GF(2^61 - 1): centers and crossratio refuse before
    # listing any, while verify and classify answer
    doc = json.dumps({"p": 2 ** 61 - 1, "components": [[[1, 0, 0]], [[0, 1, 0]], [[1, 1, 0]]]})
    for command in ("centers", "crossratio"):
        done = _run_module(command, "-", stdin=doc)
        assert done.returncode == 2, command
        assert done.stdout == "" and "Traceback" not in done.stderr, command
        assert done.stderr.startswith("error: ") and "limit of 1000000" in done.stderr, command
    for command in ("verify", "classify"):
        assert _run_module(command, "-", stdin=doc).returncode == 0, command


def test_fermat_past_the_curve_group_limit():
    # listing the points of the Fermat cubic over GF(1000003) takes about
    # 10^12 Horner steps; construct refuses before listing any
    done = _run_module("construct", "fermat", "--n", "3", "--p", "1000003")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr
    assert "CURVE_GROUP_MAX_P = %d" % CURVE_GROUP_MAX_P in done.stderr
    assert FERMAT_PRIME_SCAN_CAP < CURVE_GROUP_MAX_P


def test_pencil_past_its_limit():
    # an order-p pencil net costs 3p^2 joins to verify, about 3 * 10^12 at
    # p = 1000003; construct refuses before listing a point
    for p in (503, 1000003):
        done = _run_module("construct", "pencil", "--p", str(p))
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr == ("error: k = 3, n = %d: k n^2 = %d joins exceed the verifier "
                               "limit VERIFY_MAX_JOINS = 750000\n" % (p, 3 * p * p))


def test_classify_and_crossratio_refuse_k_above_4():
    # five collinear points form an order-1 5-net: verify and centers answer,
    # while classify and crossratio are defined for 3- and 4-nets only
    doc = json.dumps({"p": 7, "components": [[[1, 0, 0]], [[0, 1, 0]], [[1, 1, 0]],
                                             [[1, 2, 0]], [[1, 3, 0]]]})
    for command in ("classify", "crossratio"):
        done = _run_module(command, "-", stdin=doc)
        assert done.returncode == 2, command
        assert done.stdout == "" and "Traceback" not in done.stderr, command
        assert done.stderr == "error: %s needs a 3-net or a 4-net, got k = 5\n" % command
    for command in ("verify", "centers"):
        assert _run_module(command, "-", stdin=doc).returncode == 0, command


def test_order_1_constructions_over_gf2():
    # the one root of unity in GF(2) has order 1, so the order-1
    # triangular net is built
    done = _run_module("construct", "triangular", "--n", "1", "--p", "2")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["components"] == [[[1, 0, 1]], [[0, 1, 1]], [[1, 1, 0]]]
    # the order-1 conic-line points put (1, 1, 1) in components 1 and 2:
    # construct reports the violation as verify does, with no traceback
    done = _run_module("construct", "conic-line", "--n", "1", "--p", "2")
    assert done.returncode == 1 and "Traceback" not in done.stderr
    assert json.loads(done.stdout) == {
        "verified": False, "component": 2,
        "error": "components 1 and 2 are not disjoint at (1, 1, 1)"}


def test_verifier_join_limit():
    # an order-1001 triangular net costs 3 * 1001^2 joins to verify: the
    # hand-made document and the construction are refused before a join
    p, n = 2003, 1001
    roots = [x for x in range(1, p) if pow(x, n, p) == 1]
    doc = json.dumps({"p": p, "components": [[[1, 0, r] for r in roots],
                                             [[0, 1, r] for r in roots],
                                             [[r, p - 1, 0] for r in roots]]})
    want = ("error: k = 3, n = 1001: k n^2 = 3006003 joins exceed the verifier limit "
            "VERIFY_MAX_JOINS = %d\n" % VERIFY_MAX_JOINS)
    runs = [_run_module(command, "-", stdin=doc)
            for command in ("verify", "classify", "centers", "crossratio")]
    runs.append(_run_module("construct", "triangular", "--n", str(n), "--p", str(p)))
    for done in runs:
        assert done.returncode == 2 and done.stdout == "" and done.stderr == want, done.args
    # the pencil nets that construct writes are those with p <= 499
    assert 3 * 499 ** 2 <= VERIFY_MAX_JOINS < 3 * 503 ** 2


def test_oversized_shape_is_refused_before_any_point(tmp_path):
    # three components of 280000 copies of [1, 0, 0], 9.2 MB: the limit is
    # checked on the lengths of the component lists, so the document exits
    # 2 before a point tuple is built, where it used to build all of them
    # and exit 1 on repeated points
    doc = tmp_path / "shape.json"
    doc.write_text(json.dumps({"p": 7, "components": [[[1, 0, 0]] * 280000] * 3}))
    done = _run_module("verify", str(doc), timeout=30, max_bytes=2 ** 30)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == ("error: k = 3, n = 280000: k n^2 = 235200000000 joins exceed the "
                           "verifier limit VERIFY_MAX_JOINS = %d\n" % VERIFY_MAX_JOINS)
    # a ragged or defective document is measured by its largest component,
    # before its coordinates or its component count are checked
    for comps, k, n in (([[[1, 0, 0]]] + [[[0, 1, 0]] * 501] * 2, 3, 501),
                        ([[5] * 501] * 3, 3, 501), ([[[1, 0, 0]] * 1000], 1, 1000)):
        with pytest.raises(ValueError) as err:
            load_document(json.dumps({"p": 7, "components": comps}))
        assert str(err.value) == ("k = %d, n = %d: k n^2 = %d joins exceed the verifier limit "
                                  "VERIFY_MAX_JOINS = %d" % (k, n, k * n * n, VERIFY_MAX_JOINS))


def test_array_count_is_refused_before_the_parse(tmp_path):
    # three components of 560000 copies of [1, 0, 0], 18.5 MB: more "["
    # than the largest net verify admits can hold, so the document exits 2
    # before json.loads builds a list, where it used to build them all and
    # exit 2 on the verifier limit
    arrays = 2 * VERIFY_MAX_JOINS + 1
    doc = tmp_path / "arrays.json"
    doc.write_text(json.dumps({"p": 7, "components": [[[1, 0, 0]] * 560000] * 3}))
    done = _run_module("verify", str(doc), timeout=30, max_bytes=2 ** 30)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == ("error: the document opens more than 2 VERIFY_MAX_JOINS + 1 = %d "
                           "arrays\n" % arrays)
    # every "[" of the text counts, meta and strings included: a net
    # document at the bound loads, one past it is refused
    net = net_document(triangular_cyclic(5, 11))
    pad = arrays - json.dumps(net).count("[")
    assert load_document(json.dumps(dict(net, meta={"pad": "[" * pad}))).n == 5
    with pytest.raises(ValueError, match="opens more than"):
        load_document(json.dumps(dict(net, meta={"pad": "[" * (pad + 1)})))


BIG_ORDER, BIG_P = 288230376151711813, 1152921504606847253  # p = 4 n + 1, both prime


@pytest.mark.parametrize("argv, n", [
    (("triangular", "--n", "1000000", "--p", "22000001"), 1000000),
    (("triangular", "--n", "100000000", "--p", "600000001"), 100000000),
    (("triangular", "--n", str(BIG_ORDER), "--p", str(BIG_P)), BIG_ORDER),
    (("conic-line", "--n", str(BIG_ORDER), "--p", str(BIG_P)), BIG_ORDER),
    (("tetrahedron", "--m", "100000000", "--p", "600000001"), 200000000),
    (("tetrahedron", "--m", str(BIG_ORDER), "--p", str(BIG_P)), 2 * BIG_ORDER),
    (("pencil", "--p", "503"), 503),
    (("pencil", "--p", "1000003"), 1000003),
])
def test_construct_refuses_oversized_orders(argv, n):
    # each order's net is past the verifier's limit, and construct says so
    # before it seeks a root of unity or builds a point: no list of n
    # points fits under the 1 GiB cap, and factorizing the large order by
    # trial division would outlast the timeout
    done = _run_module("construct", *argv, timeout=10, max_bytes=2 ** 30)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == ("error: k = 3, n = %d: k n^2 = %d joins exceed the verifier limit "
                           "VERIFY_MAX_JOINS = %d\n" % (n, 3 * n * n, VERIFY_MAX_JOINS))


def test_classify_node_off_the_coordinate_vertices(capsys, tmp_path):
    # a nodal-cubic coset net moved by a projectivity: its node (1, 17, 0)
    # lies on Z = 0 but is no vertex of the coordinate triangle
    doc = {"p": 19, "components": [[[1, 0, 15], [1, 1, 1], [1, 16, 10]],
                                   [[1, 5, 9], [1, 6, 2], [1, 11, 15]],
                                   [[1, 2, 5], [1, 8, 15], [1, 10, 6]]]}
    path = tmp_path / "node.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "classify", str(path))
    assert rc == 0, err
    report = json.loads(out)
    assert report["tag"] == "proper-algebraic"
    assert report["singular"] == [[1, 17, 0]]
    assert report["singular_type"] == "node"


# the count starts after the stdlib modules cli imports at its top (and re,
# which json imports): under -S, python 3.10 has not loaded os at start-up
PRELUDE = """
import contextlib, io, json, os, sys
before = set(sys.modules)
"""
FOOTPRINT = PRELUDE + """
from dualnets.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("dualnets.")),
                  sorted(m for m in set(sys.modules) - before if m.split(".")[0] != "dualnets")]))
"""


def _fresh_python(code, *argv):
    """stdout of `python -S -c code argv...` in a fresh interpreter on src.
    -S keeps site and its .pth hooks from loading modules (importlib among
    them) before the code runs, so the code sees every module it loads."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    done = subprocess.run([sys.executable, "-S", "-c", code, *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_commands_import_only_the_layers_they_run(capsys, tmp_path):
    # one process runs one command, so importing a layer it never calls is
    # start-up time on every op
    unused = {"dualnets.curves", "dualnets.cubic_group", "dualnets.constructors",
              "dualnets.latin", "dualnets.demos"}
    tri, doc = construct(capsys, tmp_path, "tri", "triangular", "--n", "5", "--p", "11")
    doc["components"][1][0] = [1, 2, 3]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    for argv, want in ((("verify", tri), 0), (("verify", str(bad)), 1),
                       (("centers", tri), 0), (("crossratio", tri), 0)):
        code, loaded, python = json.loads(_fresh_python(FOOTPRINT, *argv))
        assert code == want, argv
        assert not set(loaded) & unused, (argv, loaded)
        assert python == [], (argv, python)
    # construct loads the curve layers for the fermat family only
    for argv in (("triangular", "--n", "5", "--p", "11"), ("pencil", "--p", "7"),
                 ("conic-line", "--n", "5", "--p", "11"), ("fermat", "--n", "3", "--p", "19"),
                 ("tetrahedron", "--m", "3", "--p", "13"), ("hesse4", "--p", "13")):
        code, loaded, python = json.loads(_fresh_python(FOOTPRINT, "construct", *argv))
        curve_layers = {"dualnets.curves", "dualnets.cubic_group"} if argv[0] == "fermat" else set()
        assert code == 0 and set(loaded) & unused == {"dualnets.constructors"} | curve_layers, \
            (argv, loaded)
        assert python == [], (argv, python)
    # classify loads curves only when the points lie on a cubic: the order-6
    # tetrahedron net over GF(13) has a cubic fit of dimension 0; the hesse4
    # 4-net over GF(13) loads curves and not cubic_group
    fermat, _ = construct(capsys, tmp_path, "fermat", "fermat", "--n", "3", "--p", "19")
    tet, _ = construct(capsys, tmp_path, "tet", "tetrahedron", "--m", "3", "--p", "13")
    hesse, _ = construct(capsys, tmp_path, "hesse", "hesse4", "--p", "13")
    for path, want in ((fermat, {"dualnets.curves"}), (tet, set()),
                       (hesse, {"dualnets.curves"})):
        code, loaded, python = json.loads(_fresh_python(FOOTPRINT, "classify", path))
        assert code == 0 and set(loaded) & unused == want, (path, loaded)
        assert python == [], (path, python)
    # only demo loads the demos module; j0-identities samples points with
    # random, and loads no more than random does
    code, loaded, python = json.loads(_fresh_python(FOOTPRINT, "demo", "j0-identities"))
    assert code == 0 and set(loaded) & unused == {"dualnets.demos"}, loaded
    bare = PRELUDE + "import random\nprint(json.dumps(sorted(set(sys.modules) - before)))"
    assert python == json.loads(_fresh_python(bare)), python
    # the package loads a layer on first attribute access
    hook = ("import sys, dualnets.cli; assert 'dualnets.curves' not in sys.modules; "
            "print(dualnets.curves.j_of_cubic.__module__)")
    assert _fresh_python(hook).strip() == "dualnets.curves"
