"""Source checks on the package, read with the standard library's ast."""

import ast
import os
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SRC = os.path.join(ROOT, "src", "dualnets")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))
PERFBENCH = os.path.join(ROOT, "perfbench")

# Library API that only the tests call today.  Any other public function or
# class needs a caller in src/, perfbench/ or tests/test_acceptance.py;
# helpers that only tests use belong in tests/util.py.
ONLY_TESTS_CALL = {"extend_to_4net"}


def unused_imports(source):
    """The names a module imports (at any depth) but never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    with open(os.path.join(SRC, module)) as fh:
        assert unused_imports(fh.read()) == []


def test_unused_imports_finds_a_leftover():
    source = "from .plane import det3, normalize\n\ndef f(v, p):\n    return normalize(v, p)\n"
    assert unused_imports(source) == [(1, "det3")]


def foreign_imports(source):
    """(line, name) of each absolute import whose top-level module is
    neither in the standard library nor dualnets; relative imports pass."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.split(".")[0] not in sys.stdlib_module_names | {"dualnets"}]
    return found


@pytest.mark.parametrize("module", MODULES)
def test_imports_only_the_standard_library(module):
    # no runtime dependencies, and nothing from perfbench/ or the tests
    with open(os.path.join(SRC, module)) as fh:
        assert foreign_imports(fh.read()) == []


def test_foreign_imports_finds_a_dependency():
    source = ("import json, numpy.linalg\nfrom . import nets\nfrom .plane import join\n"
              "from dualnets.gf import is_prime\n\ndef f():\n    from perfbench import tracing\n"
              "    import os.path\n")
    assert foreign_imports(source) == [(1, "numpy.linalg"), (7, "perfbench")]


def uncalled_public_names(defining, calling):
    """The public top-level functions and classes of the sources in
    defining (file name -> source) that no source in defining or calling
    names, outside their own definition."""
    defined, named = {}, set()
    for label, source in list(defining.items()) + list(calling.items()):
        for top in ast.parse(source).body:
            owner = getattr(top, "name", None)
            if label in defining and isinstance(top, (ast.FunctionDef, ast.ClassDef)) \
                    and not owner.startswith("_"):
                defined[owner] = label
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute) else
                        node.name if isinstance(node, ast.alias) else None)
                if name is not None and (label, owner) != (defined.get(name), name):
                    named.add(name)
    return sorted((label, name) for name, label in defined.items() if name not in named)


def read_sources(directory, names):
    out = {}
    for name in names:
        with open(os.path.join(directory, name)) as fh:
            out[os.path.join(os.path.basename(directory), name)] = fh.read()
    return out


def test_every_public_name_has_a_caller_outside_the_tests():
    defining = read_sources(SRC, MODULES)
    calling = read_sources(PERFBENCH, sorted(f for f in os.listdir(PERFBENCH) if f.endswith(".py")))
    calling.update(read_sources(os.path.join(ROOT, "tests"), ["test_acceptance.py"]))
    uncalled = uncalled_public_names(defining, calling)
    assert [name for _, name in uncalled if name not in ONLY_TESTS_CALL] == []
    # the allowlist holds no name that has gained a caller or is gone
    assert sorted(name for _, name in uncalled) == sorted(ONLY_TESTS_CALL)


def test_uncalled_public_names_sees_only_outside_calls():
    defining = {"m.py": "def f(n):\n    return f(n - 1) if n else g()\n\n"
                        "def g():\n    return 0\n\ndef _h():\n    return 1\n\nclass C:\n    pass\n"}
    assert uncalled_public_names(defining, {}) == [("m.py", "C"), ("m.py", "f")]
    assert uncalled_public_names(defining, {"t.py": "from m import C\nm.f(3)\n"}) == []


def exit_code_sites(source):
    """(function, line) of each place outside main that picks an exit code:
    an except clause that does more than re-raise as ValueError, or a use of
    sys.stderr."""
    sites = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        if owner == "main":
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.ExceptHandler):
                raised = node.body[0] if len(node.body) == 1 else None
                if not (isinstance(raised, ast.Raise) and isinstance(raised.exc, ast.Call)
                        and getattr(raised.exc.func, "id", None) == "ValueError"):
                    sites.append((owner, node.lineno))
            elif isinstance(node, ast.Attribute) and node.attr == "stderr" \
                    and getattr(node.value, "id", None) == "sys":
                sites.append((owner, node.lineno))
    return sites


def test_only_main_turns_errors_into_exit_codes():
    # commands raise; main alone catches NetViolation (exit 1) and
    # ValueError/OSError (exit 2), and load_document only re-raises a
    # parse error as ValueError
    with open(os.path.join(SRC, "cli.py")) as fh:
        assert exit_code_sites(fh.read()) == []


def test_exit_code_sites_finds_a_catch_outside_main():
    source = ("import sys\n\ndef load(text):\n    try:\n        return int(text)\n"
              "    except TypeError as exc:\n        raise ValueError(str(exc))\n\n"
              "def cmd(x):\n    try:\n        return load(x)\n    except ValueError:\n"
              "        return 2\n\ndef warn():\n    print('x', file=sys.stderr)\n\n"
              "def main():\n    try:\n        return cmd(1)\n    except ValueError:\n"
              "        print('error', file=sys.stderr)\n        return 2\n")
    assert exit_code_sites(source) == [("cmd", 12), ("warn", 16)]


def output_sites(source):
    """(function, line) of each place outside main and _emit that writes a
    report or picks an exit code: a call of print or _emit, or a return of
    an int constant (or of a conditional with one as a branch)."""
    def int_constant(node):
        if isinstance(node, ast.IfExp):
            return int_constant(node.body) or int_constant(node.orelse)
        return isinstance(node, ast.Constant) and type(node.value) is int

    sites = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        if owner in ("main", "_emit"):
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("print", "_emit") \
                    or isinstance(node, ast.Return) and int_constant(node.value):
                sites.append((owner, node.lineno))
    return sorted(sites)


def test_only_main_writes_reports_and_returns_exit_codes():
    # a command returns its report; main alone writes it and picks the code
    with open(os.path.join(SRC, "cli.py")) as fh:
        assert output_sites(fh.read()) == []


def test_output_sites_finds_a_write_or_code_outside_main():
    source = ("import json\n\ndef _emit(obj):\n    print(json.dumps(obj))\n\n"
              "def cmd_a(x):\n    _emit({'x': x})\n    return 0\n\n"
              "def cmd_b(checks):\n    for claim in checks:\n        print(claim)\n"
              "    return 0 if all(checks) else 1\n\n"
              "def cmd_c(x):\n    return {'count': 0, 'ok': x > 0}\n\n"
              "def _flag(x):\n    return True\n\n"
              "def main():\n    _emit(cmd_c(1))\n    print('done')\n    return 0\n")
    assert output_sites(source) == [("cmd_a", 7), ("cmd_a", 8), ("cmd_b", 12), ("cmd_b", 13)]


def assert_statements(source):
    """The lines of the assert statements in a source, which python -O
    drops, and of each raise of AssertionError, a self-check that the tests
    should make instead."""
    def raises_assertion_error(node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return getattr(exc, "id", None) == "AssertionError"

    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)
            or isinstance(node, ast.Raise) and raises_assertion_error(node)]


@pytest.mark.parametrize("module", MODULES)
def test_no_assert_statements(module):
    # a check that must hold raises; a self-check belongs in the tests
    with open(os.path.join(SRC, module)) as fh:
        assert assert_statements(fh.read()) == []


def test_assert_statements_finds_one():
    source = "def f(x):\n    assert x, 'x'\n    return x\n"
    assert assert_statements(source) == [2]


def test_assert_statements_finds_a_raised_assertion_error():
    source = ("def f(x):\n    if not x:\n        raise AssertionError('x')\n"
              "    if x < 0:\n        raise AssertionError\n    raise ValueError(x)\n"
              "\ndef g():\n    raise\n")
    assert assert_statements(source) == [3, 5]


def test_package_refuses_an_unknown_attribute():
    import dualnets

    with pytest.raises(AttributeError, match="^module 'dualnets' has no attribute 'nope'$"):
        dualnets.nope
