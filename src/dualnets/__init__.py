"""Dual 3-nets and 4-nets embedded in PG(2, GF(p)), with exact verification."""

__version__ = "0.1.0"

# Each CLI command imports only the layers it runs; a submodule not yet
# imported is loaded on first attribute access (PEP 562), so
# `dualnets.curves` works after a bare `import dualnets`.
_SUBMODULES = ("gf", "plane", "curves", "cubic_group", "latin", "nets", "constructors", "cli",
               "demos")


def __getattr__(name):
    if name in _SUBMODULES:
        from importlib import import_module
        return import_module("." + name, __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
