"""Dual 3-nets and 4-nets embedded in PG(2, GF(p)), with exact verification."""

__version__ = "0.1.0"

# Each CLI command imports only the layers it runs; a submodule not yet
# imported is loaded on first attribute access (PEP 562), so
# `dualnets.curves` works after a bare `import dualnets`.  Every
# `from . import X` in the package asks this hook first, so it uses the
# builtin __import__, which loads no module but the one asked for.
_SUBMODULES = ("gf", "plane", "curves", "cubic_group", "latin", "nets", "classification",
               "constructors", "cli", "demos")


def __getattr__(name):
    if name in _SUBMODULES:
        __import__(__name__ + "." + name)
        return globals()[name]
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
