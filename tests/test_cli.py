import json
import os
import select
import subprocess
import sys

import pytest

from dualnets import cli
from dualnets.cli import MAX_DOCUMENT_CHARS, USAGE, load_document, net_document
from dualnets.constructors import triangular_cyclic
from dualnets.cubic_group import CURVE_GROUP_MAX_P, FERMAT_PRIME_SCAN_CAP
from dualnets.nets import VERIFY_MAX_PAIRS
from test_cli_golden import FIXTURE
from util import CLI, TIMEOUT, child_env, run_child, run_main


def construct(tmp_path, name, *argv):
    rc, out, err = run_main("construct", *argv)
    assert rc == 0, err
    path = tmp_path / (name + ".json")
    path.write_text(out)
    return str(path), json.loads(out)


def test_construct_and_verify_roundtrip(tmp_path):
    path, doc = construct(tmp_path, "cl", "conic-line", "--n", "5", "--p", "11")
    assert doc["p"] == 11
    assert len(doc["components"]) == 3
    assert all(len(comp) == 5 for comp in doc["components"])
    assert doc["meta"]["family"] == "conic-line"
    rc, out, err = run_main("verify", path)
    assert rc == 0
    report = json.loads(out)
    assert report == {"verified": True, "p": 11, "k": 3, "n": 5,
                      "char_exception": False}


def test_classify_and_centers(tmp_path):
    path, _ = construct(tmp_path, "cl", "conic-line", "--n", "5", "--p", "11")
    rc, out, _ = run_main("classify", path)
    assert rc == 0
    assert json.loads(out)["tag"] == "conic-line"
    rc, out, _ = run_main("centers", path)
    assert rc == 0
    report = json.loads(out)
    assert report["centers"] == [[0, 0, 1]]
    assert report["count"] == 1


def test_crossratio_conic_line(tmp_path):
    path, _ = construct(tmp_path, "cl", "conic-line", "--n", "5", "--p", "11")
    rc, out, _ = run_main("crossratio", path)
    assert rc == 0
    rows = json.loads(out)["centers"]
    assert len(rows) == 1
    entry = rows[0]
    assert entry["center"] == [0, 0, 1]
    assert entry["kappa"] == "10"
    assert entry["kappa_plus_one_zero"] is True
    assert entry["kappa_squared_minus_kappa_plus_one_zero"] is False


def test_construct_usage_errors(tmp_path):
    rc, _, err = run_main("construct", "conic-line", "--n", "4", "--p", "13")
    assert rc == 2 and "odd" in err
    rc, _, err = run_main("construct", "triangular", "--p", "11")
    assert rc == 2 and "requires --n" in err
    rc, _, err = run_main("construct", "triangular", "--n", "5", "--p", "15")
    assert rc == 2 and "not prime" in err
    rc, _, err = run_main("construct", "moebius", "--p", "11")
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
def test_usage_errors_exit_2_with_one_line(argv):
    rc, out, err = run_main(*argv)
    assert rc == 2 and out == "" and "Traceback" not in err, argv
    assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


@pytest.mark.parametrize("argv", [(flag,) for flag in ("-h", "--help")]
                         + [(command, flag) for command in COMMANDS for flag in ("-h", "--help")])
def test_help_prints_usage_on_stdout(argv):
    rc, out, err = run_main(*argv)
    assert rc == 0 and out.startswith("usage: dualnets") and err == "", argv
    assert out == USAGE + "\n"


def test_readme_gives_the_help_text():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        assert "```\n%s\n```" % USAGE in fh.read()


def test_verify_failure_is_exit_one(tmp_path):
    path, doc = construct(tmp_path, "cl", "conic-line", "--n", "5", "--p", "11")
    doc["components"][1][0] = [1, 2, 3]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc, out, _ = run_main("verify", str(bad))
    assert rc == 1
    report = json.loads(out)
    assert report["verified"] is False
    assert "error" in report
    for command in ("classify", "centers", "crossratio"):
        rc, out, _ = run_main(command, str(bad))
        assert rc == 1


def test_document_loading_errors(tmp_path):
    junk = tmp_path / "junk.json"
    junk.write_text("{not json")
    rc, _, err = run_main("verify", str(junk))
    assert rc == 2 and "invalid JSON" in err

    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"p": 11}))
    rc, _, err = run_main("verify", str(incomplete))
    assert rc == 2 and "components" in err

    composite = tmp_path / "composite.json"
    composite.write_text(json.dumps({"p": 10, "components": []}))
    rc, _, err = run_main("verify", str(composite))
    assert rc == 2 and "prime" in err

    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps({"p": 11, "components": [[[1, 0]]]}))
    rc, _, err = run_main("verify", str(pairs))
    assert rc == 2 and "triples" in err

    # hostile documents: nesting past the parser's recursion limit, and
    # bytes that are not UTF-8
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100000)
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    for command in ("verify", "classify", "centers", "crossratio"):
        rc, out, err = run_main(command, str(tmp_path / "missing.json"))
        assert rc == 2 and "error" in err and out == "", command
        rc, out, err = run_main(command, str(junk))
        assert rc == 2 and "invalid JSON" in err and out == "", command
        rc, out, err = run_main(command, str(nested))
        assert rc == 2 and "invalid JSON" in err and "Traceback" not in err and out == "", command
        rc, out, err = run_main(command, "-", stdin=b"[" * 100000)
        assert rc == 2 and out == "" and "Traceback" not in err, command
        assert err.startswith("error: invalid JSON") and err.count("\n") == 1, command
        rc, out, err = run_main(command, str(binary))
        assert rc == 2 and "error: " in err and "Traceback" not in err and out == "", command

    # "meta" is an object, absent or null; "char_exception" a JSON boolean;
    # coordinates are JSON integers, not floats that truncate to the first
    # point (0, 0, 1), numeric strings or booleans
    _, doc = construct(tmp_path, "pc", "pencil", "--p", "5")
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
        rc, out, err = run_main("verify", str(bad))
        assert rc == 2 and wanted in err and "Traceback" not in err and out == ""
    # well-formed documents of the wrong shape are no net: exit 1 with the
    # violation report on stdout
    for comps, wanted in ((doc["components"][:2], "at least 3 components"),
                          ([[], [], []], "empty component")):
        shape = tmp_path / "shape.json"
        shape.write_text(json.dumps(dict(doc, components=comps)))
        rc, out, err = run_main("verify", str(shape))
        assert rc == 1 and wanted in json.loads(out)["error"] and err == ""
    for meta, code in ((None, 1), ({"char_exception": False}, 1),
                       ({"char_exception": True}, 0)):
        path = tmp_path / "meta.json"
        path.write_text(json.dumps(dict(doc, meta=meta)))
        assert run_main("verify", str(path))[0] == code


def test_pencil_roundtrip_keeps_char_exception(tmp_path):
    path, doc = construct(tmp_path, "pc", "pencil", "--p", "5")
    assert doc["meta"]["char_exception"] is True
    rc, out, _ = run_main("verify", path)
    assert rc == 0
    report = json.loads(out)
    assert report["char_exception"] is True and report["n"] == 5
    # without the flag the same points must be rejected as a usage-level
    # violation of the p > n convention
    del doc["meta"]
    stripped = tmp_path / "stripped.json"
    stripped.write_text(json.dumps(doc))
    rc, out, _ = run_main("verify", str(stripped))
    assert rc == 1
    assert json.loads(out)["verified"] is False


def test_stdin_input(tmp_path):
    path, doc = construct(tmp_path, "tr", "triangular", "--n", "5", "--p", "11")
    rc, out, _ = run_main("verify", "-", stdin=json.dumps(doc).encode())
    assert rc == 0
    assert json.loads(out)["verified"] is True


def test_document_read_is_bounded(monkeypatch, tmp_path):
    # a document of MAX_DOCUMENT_CHARS characters loads; one character more
    # exits 2 naming the limit, from a file, from stdin or from a text stream
    # in place of stdin; the limit counts characters, and the two-byte "é" is one
    _, doc = construct(tmp_path, "tr", "triangular", "--n", "5", "--p", "11")
    text = json.dumps(dict(doc, meta=dict(doc["meta"], note="café")), ensure_ascii=False)
    monkeypatch.setattr(cli, "MAX_DOCUMENT_CHARS", len(text))
    message = ("error: the document is longer than MAX_DOCUMENT_CHARS = %d characters\n"
               % len(text))
    path, over = tmp_path / "at.json", tmp_path / "over.json"
    path.write_bytes(text.encode())
    over.write_bytes((text + " ").encode())
    assert run_main("verify", str(path))[0] == 0
    assert run_main("verify", str(over)) == (2, "", message)
    assert run_main("verify", "-", stdin=text.encode())[0] == 0
    assert run_main("verify", "-", stdin=(text + " ").encode()) == (2, "", message)
    assert run_main("verify", "-", stdin=text)[0] == 0
    assert run_main("verify", "-", stdin=text + " ") == (2, "", message)


def test_document_is_strict_utf8_from_a_file_or_stdin(tmp_path):
    # one read rule whatever the locale or PYTHONIOENCODING: a document with
    # byte 0xe9 in a meta string is a usage error, and the same document
    # with the UTF-8 "é" loads, from a file and from stdin alike
    _, doc = construct(tmp_path, "tr", "triangular", "--n", "3", "--p", "7")
    good = json.dumps(dict(doc, meta=dict(doc["meta"], note="café")), ensure_ascii=False)
    bad = good.encode().replace("é".encode(), b"\xe9")
    for data, name in ((good.encode(), "good.json"), (bad, "bad.json")):
        (tmp_path / name).write_bytes(data)
    want = "error: 'utf-8' codec can't decode byte 0xe9"
    for done in (run_child(*CLI, "verify", str(tmp_path / "bad.json")),
                 run_child(*CLI, "verify", "-", stdin=bad)):
        assert done.returncode == 2 and done.stdout == "", done.args
        assert done.stderr.startswith(want) and done.stderr.count("\n") == 1, done.stderr
    for env in ({}, {"LC_ALL": "C", "PYTHONUTF8": "0"}, {"PYTHONIOENCODING": "latin-1"}):
        for done in (run_child(*CLI, "verify", str(tmp_path / "good.json"), env=env),
                     run_child(*CLI, "verify", "-", stdin=good.encode(), env=env)):
            assert done.returncode == 0, (env, done.args, done.stderr)
            assert json.loads(done.stdout)["verified"] is True
    # the in-process runner decodes as the interpreter does
    assert run_main("verify", "-", stdin=bad)[0] == 2
    assert run_main("verify", "-", stdin=good.encode())[0] == 0


def test_closed_stdin_exits_2():
    # with fd 0 closed the interpreter has no sys.stdin
    done = run_child(*CLI, "verify", "-", stdin=None)
    assert done.returncode == 2 and done.stdout == "" and "Traceback" not in done.stderr
    assert done.stderr == "error: there is no stdin to read the document from\n"
    assert run_main("verify", "-", stdin=None) == (2, "", done.stderr)


def test_output_is_deterministic(tmp_path):
    rc1, out1, _ = run_main("construct", "tetrahedron", "--m", "2", "--p", "13")
    rc2, out2, _ = run_main("construct", "tetrahedron", "--m", "2", "--p", "13")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_document_roundtrip_is_stable(tmp_path):
    for argv in (("conic-line", "--n", "5", "--p", "11"),
                 ("fermat", "--n", "3", "--p", "19"),
                 ("hesse4", "--p", "13"),
                 ("pencil", "--p", "5")):
        rc, out, err = run_main("construct", *argv)
        assert rc == 0, err
        doc = json.loads(out)
        net = load_document(json.dumps(doc))
        assert net_document(net) == doc


with open(FIXTURE) as fh:
    GOLDEN = json.load(fh)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_reports_are_plain_json_data(name):
    # every inspection report serializes with no encoder hook: the library
    # returns text, not PValues, for every value a command prints
    net = load_document(GOLDEN[name]["construct"]["stdout"])
    for inspect in cli.INSPECT.values():
        json.dumps(inspect(net), sort_keys=True)


def test_demos_pass():
    for name in ("pencil", "conic-line", "fermat", "j0-identities",
                 "negative-sweeps"):
        rc, out, _ = run_main("demo", name)
        assert rc == 0, out
        lines = [line for line in out.splitlines() if line]
        assert lines and all(line.startswith("PASS") for line in lines)


def test_demo_unknown_name():
    rc, _, err = run_main("demo", "nonsense")
    assert rc == 2


def test_huge_primes(tmp_path):
    # a triangular net of order 3 over GF(10^18 + 3): deciding that p is
    # prime must not stall verify, which used trial division up to 10^9
    p = 10 ** 18 + 3
    xi = pow(5, (p - 1) // 3, p)
    assert xi != 1 and pow(xi, 3, p) == 1
    roots = [1, xi, xi * xi % p]
    doc = {"p": p, "components": [[[1, 0, r] for r in roots], [[0, 1, r] for r in roots],
                                  [[r, p - 1, 0] for r in roots]]}
    for command, want in (("verify", {"verified": True, "p": p, "k": 3, "n": 3,
                                      "char_exception": False}),
                          ("centers", {"centers": [], "count": 0})):
        done = run_child(*CLI, command, "-", stdin=json.dumps(doc), timeout=30)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == want
    # above 2^64 primality is not decided: a usage error naming the limit
    big = tmp_path / "big.json"
    big.write_text(json.dumps(dict(doc, p=2 ** 64 + 13)))
    rc, out, err = run_main("verify", str(big))
    assert rc == 2 and out == "" and "2^64" in err and "Traceback" not in err
    rc, out, err = run_main("construct", "hesse4", "--p", str(2 ** 64 + 13))
    assert rc == 2 and out == "" and "2^64" in err


def test_root_of_unity_for_a_large_prime():
    # (p - 1) / 6 is prime here, so factorizing p - 1 by trial division
    # would stall construct for longer than the timeout; only n = 3 needs
    # factorizing
    p = 600000000000007963
    built = run_child(*CLI, "construct", "triangular", "--n", "3", "--p", str(p))
    assert built.returncode == 0, built.stderr
    assert json.loads(built.stdout)["p"] == p
    checked = run_child(*CLI, "verify", "-", stdin=built.stdout, timeout=30)
    assert checked.returncode == 0, checked.stderr
    assert json.loads(checked.stdout) == {"verified": True, "p": p, "k": 3, "n": 3,
                                          "char_exception": False}


def test_centers_of_an_order_1_net_over_a_large_field():
    # the centers are the other p - 1 points of the one net line; a sweep of
    # the p^2 + p + 1 points of the plane does not finish within the timeout
    doc = json.dumps({"p": 100003, "components": [[[1, 0, 0]], [[0, 1, 0]], [[1, 1, 0]]]})
    done = run_child(*CLI, "centers", "-", stdin=doc)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["count"] == 100001
    assert report["centers"][:2] == [[1, 2, 0], [1, 3, 0]]
    assert report["centers"][-1] == [1, 100002, 0]


def test_endless_input_exits_2():
    # /dev/zero never ends; the read stops one character past the limit
    done = run_child(*CLI, "verify", "/dev/zero", timeout=60, max_bytes=1 << 30)
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
    with subprocess.Popen([sys.executable, *CLI, "centers", str(doc)],
                          bufsize=0, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=child_env()) as proc:
        try:
            # the first read waits TIMEOUT seconds at most: a hung centers fails here
            assert select.select([proc.stdout], [], [], TIMEOUT)[0], "no output in time"
            assert proc.stdout.read(1) == b"{"
            proc.stdout.close()
            _, err = proc.communicate(timeout=TIMEOUT)
        finally:
            proc.kill()
    assert proc.returncode == 141 and err == b""


def test_centers_of_an_order_1_net_past_the_limit():
    # p - 1 centers over GF(2^61 - 1): centers and crossratio refuse before
    # listing any, while verify and classify answer
    doc = json.dumps({"p": 2 ** 61 - 1, "components": [[[1, 0, 0]], [[0, 1, 0]], [[1, 1, 0]]]})
    for command in ("centers", "crossratio"):
        done = run_child(*CLI, command, "-", stdin=doc)
        assert done.returncode == 2, command
        assert done.stdout == "" and "Traceback" not in done.stderr, command
        assert done.stderr.startswith("error: ") and "limit of 1000000" in done.stderr, command
    for command in ("verify", "classify"):
        assert run_child(*CLI, command, "-", stdin=doc).returncode == 0, command


def test_centers_of_a_pencil_net_past_the_limit():
    # the order-499 pencil net has 499 * 497 centers, each confirmed with
    # 499 joins, which ran past 300 s: centers and crossratio stop once the
    # centers times the order pass the limit, after about 3.5 s on a 2-core
    # x86 VM; the timeout leaves room for a loaded host
    rc, doc, err = run_main("construct", "pencil", "--p", "499")
    assert rc == 0, err
    for command in ("centers", "crossratio"):
        done = run_child(*CLI, command, "-", stdin=doc, timeout=30)
        assert done.returncode == 2 and done.stdout == "", command
        assert done.stderr == ("error: an order-499 net over GF(499) has more than 2004 "
                               "centers, past the limit _MAX_CENTERS = 1000000 on centers "
                               "times the order\n"), command


def test_fermat_past_the_curve_group_limit():
    # listing the points of the Fermat cubic over GF(1000003) takes about
    # 10^12 Horner steps; construct refuses before listing any
    done = run_child(*CLI, "construct", "fermat", "--n", "3", "--p", "1000003")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr
    assert "CURVE_GROUP_MAX_P = %d" % CURVE_GROUP_MAX_P in done.stderr
    assert FERMAT_PRIME_SCAN_CAP < CURVE_GROUP_MAX_P


def test_pencil_past_its_limit():
    # an order-p pencil net keys 3p^2 point pairs in verify, about 3 * 10^12 at
    # p = 1000003; construct refuses before listing a point
    for p in (503, 1000003):
        done = run_child(*CLI, "construct", "pencil", "--p", str(p))
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr == ("error: k = 3, n = %d: k n^2 = %d point pairs exceed the "
                               "verifier limit VERIFY_MAX_PAIRS = 750000\n" % (p, 3 * p * p))


def test_classify_and_crossratio_refuse_k_above_4():
    # five collinear points form an order-1 5-net: verify and centers answer,
    # while classify and crossratio are defined for 3- and 4-nets only
    doc = json.dumps({"p": 7, "components": [[[1, 0, 0]], [[0, 1, 0]], [[1, 1, 0]],
                                             [[1, 2, 0]], [[1, 3, 0]]]}).encode()
    for command in ("classify", "crossratio"):
        rc, out, err = run_main(command, "-", stdin=doc)
        assert rc == 2, command
        assert out == "" and "Traceback" not in err, command
        assert err == "error: %s needs a 3-net or a 4-net, got k = 5\n" % command
    for command in ("verify", "centers"):
        assert run_main(command, "-", stdin=doc)[0] == 0, command


def test_order_1_constructions_over_gf2():
    # the one root of unity in GF(2) has order 1, so the order-1
    # triangular net is built
    rc, out, err = run_main("construct", "triangular", "--n", "1", "--p", "2")
    assert rc == 0, err
    assert json.loads(out)["components"] == [[[1, 0, 1]], [[0, 1, 1]], [[1, 1, 0]]]
    # the order-1 conic-line points put (1, 1, 1) in components 1 and 2:
    # construct reports the violation as verify does, with no traceback
    rc, out, err = run_main("construct", "conic-line", "--n", "1", "--p", "2")
    assert rc == 1 and "Traceback" not in err
    assert json.loads(out) == {
        "verified": False, "component": 2,
        "error": "components 1 and 2 are not disjoint at (1, 1, 1)"}


@pytest.mark.parametrize("argv", [
    ("triangular", "--n", "1", "--p", "2"), ("triangular", "--n", "1", "--p", "3"),
    ("triangular", "--n", "2", "--p", "3"), ("conic-line", "--n", "1", "--p", "3")])
def test_smallest_documents_inspect_cleanly(argv):
    # pinned probes: each document construct writes at the smallest n and p
    # goes through every inspection command with one JSON line and no
    # traceback
    rc, doc, err = run_main("construct", *argv)
    assert rc == 0, err
    for command in ("verify", "classify", "centers", "crossratio"):
        rc, out, err = run_main(command, "-", stdin=doc.encode())
        assert rc in (0, 1) and "Traceback" not in err, (command, err)
        assert out.count("\n") == 1, (command, out)
        json.loads(out)


def test_verifier_join_limit():
    # an order-1001 triangular net keys 3 * 1001^2 point pairs in verify: the
    # hand-made document and the construction are refused before a join
    p, n = 2003, 1001
    roots = [x for x in range(1, p) if pow(x, n, p) == 1]
    doc = json.dumps({"p": p, "components": [[[1, 0, r] for r in roots],
                                             [[0, 1, r] for r in roots],
                                             [[r, p - 1, 0] for r in roots]]})
    want = ("error: k = 3, n = 1001: k n^2 = 3006003 point pairs exceed the verifier "
            "limit VERIFY_MAX_PAIRS = %d\n" % VERIFY_MAX_PAIRS)
    runs = [run_child(*CLI, command, "-", stdin=doc)
            for command in ("verify", "classify", "centers", "crossratio")]
    runs.append(run_child(*CLI, "construct", "triangular", "--n", str(n), "--p", str(p)))
    for done in runs:
        assert done.returncode == 2 and done.stdout == "" and done.stderr == want, done.args
    # the pencil nets that construct writes are those with p <= 499
    assert 3 * 499 ** 2 <= VERIFY_MAX_PAIRS < 3 * 503 ** 2


def test_oversized_shape_is_refused_before_any_point(tmp_path):
    # three components of 280000 copies of [1, 0, 0], 9.2 MB: the limit is
    # checked on the lengths of the component lists, so the document exits
    # 2 before a point tuple is built, where it used to build all of them
    # and exit 1 on repeated points
    doc = tmp_path / "shape.json"
    doc.write_text(json.dumps({"p": 7, "components": [[[1, 0, 0]] * 280000] * 3}))
    done = run_child(*CLI, "verify", str(doc), timeout=30, max_bytes=2 ** 30)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == ("error: k = 3, n = 280000: k n^2 = 235200000000 point pairs exceed "
                           "the verifier limit VERIFY_MAX_PAIRS = %d\n" % VERIFY_MAX_PAIRS)
    # a ragged or defective document is measured by its largest component,
    # before its coordinates or its component count are checked
    for comps, k, n in (([[[1, 0, 0]]] + [[[0, 1, 0]] * 501] * 2, 3, 501),
                        ([[5] * 501] * 3, 3, 501), ([[[1, 0, 0]] * 1000], 1, 1000)):
        with pytest.raises(ValueError) as err:
            load_document(json.dumps({"p": 7, "components": comps}))
        assert str(err.value) == ("k = %d, n = %d: k n^2 = %d point pairs exceed the verifier "
                                  "limit VERIFY_MAX_PAIRS = %d"
                                  % (k, n, k * n * n, VERIFY_MAX_PAIRS))


def test_array_count_is_refused_before_the_parse(tmp_path):
    # three components of 560000 copies of [1, 0, 0], 18.5 MB: more "["
    # than the largest net verify admits can hold, so the document exits 2
    # before json.loads builds a list, where it used to build them all and
    # exit 2 on the verifier limit
    arrays = 2 * VERIFY_MAX_PAIRS + 1
    doc = tmp_path / "arrays.json"
    doc.write_text(json.dumps({"p": 7, "components": [[[1, 0, 0]] * 560000] * 3}))
    done = run_child(*CLI, "verify", str(doc), timeout=30, max_bytes=2 ** 30)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == ("error: the document opens more than 2 VERIFY_MAX_PAIRS + 1 = %d "
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
    (("fermat", "--n", "600", "--p", "997"), 600),
    (("fermat", "--n", "1000000", "--p", "997"), 1000000),
])
def test_construct_refuses_oversized_orders(argv, n):
    # each order's net is past the verifier's limit, and construct says so
    # before it seeks a root of unity or builds a point: no list of n
    # points fits under the 1 GiB cap, and factorizing the large order by
    # trial division would outlast the timeout
    done = run_child(*CLI, "construct", *argv, timeout=10, max_bytes=2 ** 30)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == ("error: k = 3, n = %d: k n^2 = %d point pairs exceed the verifier "
                           "limit VERIFY_MAX_PAIRS = %d\n" % (n, 3 * n * n, VERIFY_MAX_PAIRS))


def test_classify_node_off_the_coordinate_vertices(tmp_path):
    # a nodal-cubic coset net moved by a projectivity: its node (1, 17, 0)
    # lies on Z = 0 but is no vertex of the coordinate triangle
    doc = {"p": 19, "components": [[[1, 0, 15], [1, 1, 1], [1, 16, 10]],
                                   [[1, 5, 9], [1, 6, 2], [1, 11, 15]],
                                   [[1, 2, 5], [1, 8, 15], [1, 10, 6]]]}
    path = tmp_path / "node.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run_main("classify", str(path))
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


def fresh_python(code, *argv):
    """stdout of `python -S -c code argv...`; -S keeps site and its .pth hooks
    from loading modules (importlib among them) before the code runs."""
    done = run_child("-S", "-c", code, *argv, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_commands_import_only_the_layers_they_run(tmp_path):
    # one process runs one command, so importing a layer it never calls is
    # start-up time on every op
    unused = {"dualnets.curves", "dualnets.cubic_group", "dualnets.constructors",
              "dualnets.latin", "dualnets.demos", "dualnets.classification"}
    tri, doc = construct(tmp_path, "tri", "triangular", "--n", "5", "--p", "11")
    doc["components"][1][0] = [1, 2, 3]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    for argv, want in ((("verify", tri), 0), (("verify", str(bad)), 1),
                       (("centers", tri), 0), (("crossratio", tri), 0)):
        code, loaded, python = json.loads(fresh_python(FOOTPRINT, *argv))
        assert code == want, argv
        assert not set(loaded) & unused, (argv, loaded)
        assert python == [], (argv, python)
    # construct loads the curve layers for the fermat family only
    for argv in (("triangular", "--n", "5", "--p", "11"), ("pencil", "--p", "7"),
                 ("conic-line", "--n", "5", "--p", "11"), ("fermat", "--n", "3", "--p", "19"),
                 ("tetrahedron", "--m", "3", "--p", "13"), ("hesse4", "--p", "13")):
        code, loaded, python = json.loads(fresh_python(FOOTPRINT, "construct", *argv))
        curve_layers = {"dualnets.curves", "dualnets.cubic_group"} if argv[0] == "fermat" else set()
        assert code == 0 and set(loaded) & unused == {"dualnets.constructors"} | curve_layers, \
            (argv, loaded)
        assert python == [], (argv, python)
    # classify always loads the classification module, and curves only when
    # the points lie on a cubic: the order-6 tetrahedron net over GF(13) has
    # a cubic fit of dimension 0; the hesse4 4-net over GF(13) loads curves
    # and not cubic_group
    fermat, _ = construct(tmp_path, "fermat", "fermat", "--n", "3", "--p", "19")
    tet, _ = construct(tmp_path, "tet", "tetrahedron", "--m", "3", "--p", "13")
    hesse, _ = construct(tmp_path, "hesse", "hesse4", "--p", "13")
    classification = {"dualnets.classification"}
    for path, want in ((fermat, classification | {"dualnets.curves"}), (tet, classification),
                       (hesse, classification | {"dualnets.curves"})):
        code, loaded, python = json.loads(fresh_python(FOOTPRINT, "classify", path))
        assert code == 0 and set(loaded) & unused == want, (path, loaded)
        assert python == [], (path, python)
    # only demo loads the demos module; j0-identities samples points with
    # random, and loads no more than random does
    code, loaded, python = json.loads(fresh_python(FOOTPRINT, "demo", "j0-identities"))
    assert code == 0 and set(loaded) & unused == {"dualnets.demos"}, loaded
    bare = PRELUDE + "import random\nprint(json.dumps(sorted(set(sys.modules) - before)))"
    assert python == json.loads(fresh_python(bare)), python
    # the package loads a layer on first attribute access
    hook = ("import sys, dualnets.cli; assert 'dualnets.curves' not in sys.modules; "
            "print(dualnets.curves.j_of_cubic.__module__)")
    assert fresh_python(hook).strip() == "dualnets.curves"
