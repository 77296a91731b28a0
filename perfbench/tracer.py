"""Out-of-program tracing of the ``momentangle`` layers.

The tracer wraps each module's public functions and the public methods of
its classes, and records one span per call: name, start, end, parent span
and task id.  ``momentangle/__init__`` rebinds ``momentangle.homology`` to
the function, which shadows the submodule, so modules are taken from
``sys.modules``.  A function imported with ``from .x import f`` is bound in
several module namespaces; every binding of a wrapped function is replaced,
so a call is traced whichever module makes it.  The package source is never
edited.

``IntMatrix.__init__`` runs hundreds of thousands of times in the search,
so it is only counted, not spanned.  Of the other dunder methods only the
ones that do real work are traced.  Spans stay in memory; ``write`` puts
them in a file when the run ends.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "pipeline", "search", "charclasses", "torus", "homology",
          "simplicial", "intlinalg")

TRACED_DUNDERS = {"intlinalg.IntMatrix.__init__",
                  "intlinalg.IntMatrix.__matmul__",
                  "simplicial.SimplicialComplex.__init__"}
COUNT_ONLY = {"intlinalg.IntMatrix.__init__"}


# The quantity a span records besides its times, by span name:
# f(args, result).
RECORDED = {
    "intlinalg.smith": lambda args, result: args[0].rows * args[0].cols,
    "homology.is_homology_sphere":
        lambda args, result: len(result.complexes),
    "search.search_free": lambda args, result: (
        result.explored, result.complete_candidates, len(result.found)),
    "torus.extend_to_characteristic": lambda args, result: result.tries,
}


class Tracer:
    """Spans of one benchmark run, over any number of tasks."""

    def __init__(self):
        # [name, start, end, parent index, task, child seconds, attr]
        self.spans = []
        self.stack = []
        self.task = None
        self.counts = defaultdict(int)   # (name, task) -> calls

    # -- patching ------------------------------------------------------------

    def _span(self, fn, name):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        record = RECORDED.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self.task, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rec[2] = end
                if parent >= 0:
                    spans[parent][5] += end - rec[1]
            if record is not None:
                rec[6] = record(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counter(self, fn, name):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name, self.task] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _wrap(self, fn, name):
        return (self._counter if name in COUNT_ONLY else self._span)(fn, name)

    def patch(self):
        """Wrap the freshly imported package; a new import undoes it."""
        pkg = sys.modules["momentangle"]
        modules = {layer: sys.modules[f"momentangle.{layer}"]
                   for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__",
                                                   None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(obj, f"{layer}.{name}")
                elif inspect.isclass(obj):
                    self._patch_class(obj, f"{layer}.{name}")
        for mod in (pkg, *modules.values()):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])

    def _patch_class(self, cls, prefix):
        for name, attr in list(vars(cls).items()):
            qualified = f"{prefix}.{name}"
            if name.startswith("_") and qualified not in TRACED_DUNDERS:
                continue
            if isinstance(attr, classmethod):
                setattr(cls, name,
                        classmethod(self._wrap(attr.__func__, qualified)))
            elif inspect.isfunction(attr):
                setattr(cls, name, self._wrap(attr, qualified))

    # -- results -------------------------------------------------------------

    def write(self, path):
        """Spans as tab-separated lines: id, name, start, end, parent,
        task, self seconds, recorded quantity."""
        with open(path, "w") as fh:
            fh.write("id\tname\tstart\tend\tparent\ttask\tself_s\tattr\n")
            for i, (name, start, end, parent, task, child, attr) in \
                    enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t"
                         f"{task}\t{end - start - child:.9f}\t"
                         f"{'' if attr is None else attr}\n")


# Per-layer metrics named after a span: metric prefix -> span name.
SPAN_METRICS = {
    "intlinalg.smith": "intlinalg.smith",
    "intlinalg.matmul": "intlinalg.IntMatrix.__matmul__",
    "intlinalg.rank_mod2": "intlinalg.rank_mod2",
    "intlinalg.hermite_normal_form": "intlinalg.hermite_normal_form",
    "intlinalg.rref_mod2": "intlinalg.rref_mod2",
    "intlinalg.det": "intlinalg.det",
    "homology.chain_complex": "homology.chain_complex",
    "homology.homology": "homology.homology",
    "homology.is_homology_sphere": "homology.is_homology_sphere",
    "simplicial.SimplicialComplex.init":
        "simplicial.SimplicialComplex.__init__",
    "simplicial.link": "simplicial.SimplicialComplex.link",
    "simplicial.faces_of_dim": "simplicial.SimplicialComplex.faces_of_dim",
    "simplicial.minimal_nonfaces":
        "simplicial.SimplicialComplex.minimal_nonfaces",
    "search.search_free": "search.search_free",
    "charclasses.face_ring": "charclasses.face_ring_mod2",
    "charclasses.reduce": "charclasses.GradedMod2Ring.reduce",
    "charclasses.total_sw_class": "charclasses.total_sw_class",
    "charclasses.sw_numbers": "charclasses.sw_numbers",
    "torus.acts_freely": "torus.acts_freely",
    "torus.extend_to_characteristic": "torus.extend_to_characteristic",
    "pipeline.verify_c69_example": "pipeline.verify_c69_example",
}


def _ratio(num, den):
    return num / den if den else 0.0


def summarize(spans, counts, tasks):
    """Per-layer metrics of the spans and counts of the given tasks.

    Returns (metrics, per-task counts).  A ratio whose base is 0 on a
    workload (no search, no certificate) is reported as 0.
    """
    tasks = set(tasks)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    layer_self = defaultdict(float)
    smith_cells = smith_max = 0
    under_cert = {"homology.homology": 0,
                  "simplicial.SimplicialComplex.link": 0}
    smith_in_search = 0
    explored = complete = tries = 0
    cert_size = {}
    per_task = defaultdict(lambda: defaultdict(int))
    in_cert, in_search = {}, {}
    for i, (name, start, end, parent, task, child, attr) in enumerate(spans):
        if task not in tasks:
            continue
        pname = spans[parent][0] if parent >= 0 else None
        in_cert[i] = pname == "homology.is_homology_sphere" or \
            in_cert.get(parent, False)
        in_search[i] = pname == "search.search_free" or \
            in_search.get(parent, False)
        calls[name] += 1
        own = end - start - child
        self_s[name] += own
        layer_self[name.split(".", 1)[0]] += own
        tally = per_task[task]
        if name == "intlinalg.smith":
            smith_cells += attr
            smith_max = max(smith_max, attr)
            tally["smith_calls"] += 1
            smith_in_search += in_search[i]
        elif name in under_cert and in_cert[i]:
            under_cert[name] += 1
        elif name == "homology.is_homology_sphere":
            cert_size[task] = max(cert_size.get(task, 0), attr)
            tally["cert_complexes"] = cert_size[task]
        elif name == "search.search_free":
            explored += attr[0]
            complete += attr[1]
            tally["explored"] += attr[0]
            tally["found"] += attr[2]
        elif name == "torus.extend_to_characteristic":
            tries += attr
    inits = 0
    for (name, task), n in counts.items():
        if task in tasks and name == "intlinalg.IntMatrix.__init__":
            inits += n
            per_task[task]["intmatrix_inits"] += n

    metrics = {}
    for metric, span in SPAN_METRICS.items():
        sep = "_" if metric.endswith(".init") else "."
        metrics[f"{metric}{sep}calls"] = (calls[span], "count")
        metrics[f"{metric}{sep}self_s"] = (self_s[span], "s")
    metrics["intlinalg.smith.cells"] = (smith_cells, "count")
    metrics["intlinalg.smith.max_cells"] = (smith_max, "count")
    metrics["intlinalg.IntMatrix.init_calls"] = (inits, "count")
    metrics["homology.memo_miss_ratio"] = (
        _ratio(under_cert["homology.homology"],
               under_cert["simplicial.SimplicialComplex.link"]), "ratio")
    metrics["homology.cert_complexes"] = (sum(cert_size.values()), "count")
    metrics["search.explored"] = (explored, "count")
    metrics["search.complete_ratio"] = (_ratio(complete, explored), "ratio")
    metrics["search.smith_per_node"] = (_ratio(smith_in_search, explored),
                                        "ratio")
    metrics["torus.extend.tries"] = (tries, "count")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layer_self[layer], "s")
    return metrics, per_task
