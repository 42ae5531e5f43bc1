"""Spans and counters around the public functions of each dualnets layer.

The program is not edited: the tracer rebinds every module-level name that
refers to a wrapped function, in every dualnets module, because the modules
import one another's functions by name (nets.join, constructors.verify,
curves.all_points, latin.join, ...).  Uninstalling restores the originals.

A span is [name, start, end, parent index, op id, returned normally].
Functions listed in SPANNED always open one; the other public functions of
a timed layer open one only when entered from another layer, so a layer's
self time is what it spends outside every other layer.  COUNTED functions
are only counted: timing each call would swamp them.
"""

import json
import time
from collections import Counter

LAYERS = ("gf", "plane", "curves", "cubic_group", "latin", "nets", "constructors", "cli")
TIMED = ("gf", "curves", "cubic_group", "latin", "nets", "constructors", "cli")
SPANNED = {
    "nets.verify", "nets.find_centers", "nets.classify", "nets.constant_cross_ratio",
    "nets.crossratio_4net", "curves.singular_points", "curves.j_of_cubic",
    "cubic_group.CurveGroup.find_invariant_subgroup", "latin.from_net",
    "latin.transversal_search", "latin.complete_mapping_exists",
    "latin.is_group_coordinatizable", "latin.isomorphic", "cli.main",
} | {"constructors." + f for f in (
    "triangular_cyclic", "pencil_char_p", "conic_line", "algebraic_fermat",
    "tetrahedron", "hesse_4net")}
COUNTED = {"plane." + f for f in ("join", "meet", "incident", "cross_ratio",
                                  "line_points", "all_points")}
CLASSES = {"curves": ("HomPoly", ("__init__", "eval_at", "partial", "gradient",
                                  "__mul__", "__rmul__", "__add__", "__sub__")),
           "cubic_group": ("CurveGroup", ("__init__", "third_intersection", "add", "neg",
                                          "scalar_mul", "order_of", "u_auto",
                                          "find_invariant_subgroup", "coset_net"))}


class Tracer:
    def __init__(self, package):
        """package: the imported dualnets package (its submodules loaded)."""
        self.modules = {name: getattr(package, name) for name in LAYERS}
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.op = -1
        self._saved = []

    # -- wrappers ---------------------------------------------------------

    def _counting(self, fn, name, on_result):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result
        return counted

    def _spanning(self, fn, name, layer, always, on_result):
        counts, spans, stack, clock = self.counts, self.spans, self.stack, time.perf_counter

        def spanned(*args, **kwargs):
            counts[name] += 1
            if not always and stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                rec = [name, clock(), 0.0, stack[-1][1] if stack else -1, self.op, False]
                stack.append((layer, len(spans)))
                spans.append(rec)
                try:
                    result = fn(*args, **kwargs)
                    rec[5] = True
                finally:
                    rec[2] = clock()
                    stack.pop()
            if on_result is not None:
                on_result(result)
            return result
        return spanned

    def _on_result_hooks(self):
        counts, spans, stack = self.counts, self.spans, self.stack

        def all_points(result):
            counts["plane.all_points.points"] += len(result)

        def line_on_curve(result):
            counts["curves.line_on_curve.hits"] += bool(result)

        def find_centers(result):
            counts["nets.find_centers.found"] += len(result)

        def candidate(result):
            if stack and spans[stack[-1][1]][0] == "nets.find_centers":
                counts["nets.find_centers.tested"] += 1

        return {"plane.all_points": all_points, "curves.line_on_curve": line_on_curve,
                "nets.find_centers": find_centers, "nets.is_perspective_center": candidate}

    # -- install / uninstall ------------------------------------------------

    def _targets(self):
        """(qualified name, layer, function) for every function to wrap."""
        out = []
        for layer, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not callable(obj) or isinstance(obj, type):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = "%s.%s" % (layer, attr)
                if layer == "plane" and name not in COUNTED:
                    continue
                if layer == "cli" and attr != "main":  # commands count as cli self time
                    continue
                out.append((name, layer, obj))
        return out

    def install(self):
        hooks = self._on_result_hooks()
        wrapped = {}
        for name, layer, fn in self._targets():
            hook = hooks.get(name)
            if layer in TIMED:
                wrapped[fn] = self._spanning(fn, name, layer, name in SPANNED, hook)
            else:
                wrapped[fn] = self._counting(fn, name, hook)
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                if callable(obj) and not isinstance(obj, type) and obj in wrapped:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])
        for layer, (cls_name, methods) in CLASSES.items():
            cls = getattr(self.modules[layer], cls_name)
            for meth in methods:
                fn = cls.__dict__[meth]
                name = "%s.%s.%s" % (layer, cls_name, meth)
                self._saved.append((cls, meth, fn))
                setattr(cls, meth, self._spanning(fn, name, layer, name in SPANNED, None))

    def uninstall(self):
        while self._saved:
            owner, attr, obj = self._saved.pop()
            setattr(owner, attr, obj)

    # -- results ----------------------------------------------------------

    def _times(self):
        """Inclusive time per name (outermost spans only) and self time per layer."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        inclusive, self_by_layer, self_by_name = Counter(), Counter(), Counter()
        for i, rec in enumerate(spans):
            name, dur = rec[0], rec[2] - rec[1]
            self_by_layer[name.split(".")[0]] += dur - child[i]
            self_by_name[name] += dur - child[i]
            parent, nested = rec[3], False
            while parent >= 0:
                if spans[parent][0] == name:
                    nested = True
                    break
                parent = spans[parent][3]
            if not nested:
                inclusive[name] += dur
        return inclusive, self_by_layer, self_by_name

    def metrics(self):
        c = self.counts
        inc, self_layer, self_name = self._times()
        spans = self.spans

        def ratio(num, den):
            return num / den if den else 0.0

        verify = [s for s in spans if s[0] == "nets.verify"]
        tet_verify = [s for s in verify
                      if s[3] >= 0 and spans[s[3]][0] == "constructors.tetrahedron"]
        out = {
            "nets.verify.calls": c["nets.verify"],
            "nets.verify.s": inc["nets.verify"],
            "nets.verify.accept_ratio": ratio(sum(s[5] for s in verify), len(verify)),
            "nets.find_centers.s": inc["nets.find_centers"],
            "nets.candidates.calls": c["nets.is_perspective_center"],
            "nets.find_centers.hit_ratio": ratio(c["nets.find_centers.found"],
                                                 c["nets.find_centers.tested"]),
            "nets.classify.self_s": self_name["nets.classify"],
            "nets.crossratio.s": inc["nets.constant_cross_ratio"] + inc["nets.crossratio_4net"],
            "plane.all_points.points": c["plane.all_points.points"],
            "curves.self_s": self_layer["curves"],
            "curves.line_on_curve.calls": c["curves.line_on_curve"],
            "curves.line_on_curve.hit_ratio": ratio(c["curves.line_on_curve.hits"],
                                                    c["curves.line_on_curve"]),
            "curves.restrict.calls": c["curves.restrict"],
            "curves.singular_points.s": inc["curves.singular_points"],
            "curves.j_of_cubic.s": inc["curves.j_of_cubic"],
            "cubic_group.self_s": self_layer["cubic_group"],
            "cubic_group.add.calls": c["cubic_group.CurveGroup.add"],
            "cubic_group.find_invariant_subgroup.s":
                inc["cubic_group.CurveGroup.find_invariant_subgroup"],
            "constructors.tetrahedron.accept_ratio": ratio(sum(s[5] for s in tet_verify),
                                                           len(tet_verify)),
            "latin.self_s": self_layer["latin"],
            "gf.calls": sum(v for k, v in c.items() if k.startswith("gf.")),
            "gf.self_s": self_layer["gf"],
            "cli.self_s": self_layer["cli"],
        }
        for f in ("join", "meet", "incident", "cross_ratio", "line_points", "all_points"):
            out["plane.%s.calls" % f] = c["plane." + f]
        for f in ("triangular_cyclic", "pencil_char_p", "conic_line", "algebraic_fermat",
                  "tetrahedron", "hesse_4net"):
            out["constructors.%s.s" % f] = inc["constructors." + f]
        for f in ("from_net", "transversal_search", "complete_mapping_exists",
                  "is_group_coordinatizable", "isomorphic"):
            out["latin.%s.s" % f] = inc["latin." + f]
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "ok"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)
