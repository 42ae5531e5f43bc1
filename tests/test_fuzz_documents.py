"""Malformed net documents through the CLI's inspection commands.

Each example takes a small valid document of one constructor family and
changes one subtree of it: replaces it with another JSON value, deletes
it, duplicates it, or wraps it in a list or an object; or it splices a
byte in 0x80-0xff into one of the document's strings, so that the bytes
are no longer UTF-8.  verify, classify, centers and crossratio then read
the UTF-8 bytes on stdin through main, in process.  Each must exit 0, 1 or
2 with no exception escaping main; an exit of 2 writes exactly one
"error: ..." line to stderr and nothing to stdout, and an exit of 0 or 1
writes one JSON report to stdout and nothing to stderr.  A document that
is not UTF-8 exits 2.  Deterministic (derandomize=True).
"""

import copy
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dualnets import constructors  # noqa: E402
from dualnets.cli import net_document  # noqa: E402
from util import run_main  # noqa: E402

BASES = [json.dumps(net_document(net)) for net in (
    constructors.triangular_cyclic(5, 11), constructors.pencil_char_p(5),
    constructors.conic_line(5, 11), constructors.hesse_4net(7),
    constructors.algebraic_fermat(3, 19), constructors.tetrahedron(3, 13))]
COMMANDS = ("verify", "classify", "centers", "crossratio")
KEYS = st.sampled_from(["p", "components", "meta", "char_exception", "x"])
LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-3, 20), st.text(max_size=3),
                   st.sampled_from([2 ** 64, 10 ** 30, -2 ** 63, 1.5, float("inf"), float("nan")]))
VALUES = st.recursive(LEAVES, lambda kids: st.lists(kids, max_size=4)
                      | st.dictionaries(KEYS, kids, max_size=3), max_leaves=8)


def subtrees(node, path=()):
    """The paths of every subtree below node (not node itself)."""
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from subtrees(child, path + (key,))


@st.composite
def mutants(draw):
    doc = json.loads(draw(st.sampled_from(BASES)))
    path = draw(st.sampled_from(list(subtrees(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    node = parent[key]
    change = draw(st.sampled_from(["replace", "delete", "duplicate", "wrap", "byte"]))
    if change == "byte":
        # the base documents' strings hold no quote or backslash, so every
        # other quote opens one; the byte goes anywhere up to its closing quote
        text = json.dumps(doc).encode()
        quotes = [i for i, c in enumerate(text) if c == ord('"')]
        first = draw(st.sampled_from(quotes[::2]))
        at = draw(st.integers(first + 1, quotes[quotes.index(first) + 1]))
        return text[:at] + bytes([draw(st.integers(0x80, 0xff))]) + text[at:]
    if change == "replace":
        parent[key] = draw(VALUES)
    elif change == "delete":
        del parent[key]
    elif change == "duplicate" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(node))
    elif change == "duplicate":
        parent[draw(KEYS.filter(lambda other: other != key))] = copy.deepcopy(node)
    else:
        parent[key] = [node] if draw(st.booleans()) else {draw(KEYS): node}
    return json.dumps(doc).encode()


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(mutants())
def test_mutated_documents_exit_cleanly(data):
    for command in COMMANDS:
        rc, out, err = run_main(command, "-", stdin=data)
        # json.dumps writes ASCII: data that is not holds a spliced byte, no UTF-8
        assert rc in (0, 1, 2) and (rc == 2 or data.isascii()), (command, rc)
        if rc == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1 \
                and err.endswith("\n"), (command, err)
        else:
            assert err == "" and out.count("\n") == 1, (command, err)
            json.loads(out)
