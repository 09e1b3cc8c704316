"""Outside-in span tracer for ppk, kept in the benchmark's own files.

``install`` wraps each listed function in every ``ppk`` namespace that binds
it, so ``from .x import y`` re-bindings (``synth.Tbar``,
``analysis.r_w_quotient``, ``oracle.block_polynomial``) are traced as well.
Methods are wrapped on their class, together with every alias in the class
body (``__rmul__ = __mul__``).  Each call records a span: name, start, end
and the index of the enclosing span.  Spans stay in memory until ``dump``.

Forked ``--jobs`` workers inherit the wrappers but record nothing, so their
work shows as wait time inside the parent's span.

``layer_metrics`` turns a spans file into ``<name>.calls`` and
``<name>.self_s``; self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# (metric name, module, attribute path); methods use the class-qualified path
TARGETS = (
    ("ratcore.SeriesQ.mul", "ratcore", "SeriesQ.__mul__"),
    ("ratcore.SeriesQ.div", "ratcore", "SeriesQ.__truediv__"),
    ("ratcore.SeriesQ.log", "ratcore", "SeriesQ.log"),
    ("ratcore.PolyQ.mul", "ratcore", "PolyQ.__mul__"),
    ("ratcore.PolyQ.divmod", "ratcore", "PolyQ.__divmod__"),
    ("ratcore.poly_gcd", "ratcore", "poly_gcd"),
    ("ratcore.squarefree_decomposition", "ratcore", "squarefree_decomposition"),
    ("ratcore.RationalFunctionQ.init", "ratcore", "RationalFunctionQ.__init__"),
    ("words.enumerate_admissible", "words", "enumerate_admissible"),
    ("words.truncations", "words", "truncations"),
    ("words.counting_factor_counts", "words", "counting_factor_counts"),
    ("words.expand", "words", "expand"),
    ("words.factor_count", "words", "factor_count"),
    ("theta.T_poly", "theta", "T_poly"),
    ("theta.Tbar", "theta", "Tbar"),
    ("theta.theta0", "theta", "theta0"),
    ("synth.log_rw_series", "synth", "log_rw_series"),
    ("synth.block_polynomials_up_to", "synth", "block_polynomials_up_to"),
    ("synth.BlockPolynomial.evaluate_counts", "synth", "BlockPolynomial.evaluate_counts"),
    ("synth.BlockPolynomial.json_obj", "synth", "BlockPolynomial.json_obj"),
    ("synth.r_w_quotient", "synth", "r_w_quotient"),
    ("analysis.classify_word", "analysis", "classify_word"),
    ("analysis.poly_roots", "analysis", "poly_roots"),
    ("analysis.term_bound_series", "analysis", "term_bound_series"),
    ("oracle.triple_agreement_scan", "oracle", "triple_agreement_scan"),
    ("oracle.row_counts_bruteforce", "oracle", "row_counts_bruteforce"),
    ("oracle.equivalence_report", "oracle", "equivalence_report"),
    ("oracle.column_check", "oracle", "column_check"),
    ("cli.main", "cli", "main"),
)

# spans whose result length is also summed, as "<name>.items"
ITEM_COUNTED = ("words.enumerate_admissible",)


class Recorder:
    """Spans in parallel lists; a span's index is fixed when it starts."""

    def __init__(self, names):
        self.names = list(names)
        self.name_of = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.items = dict.fromkeys(ITEM_COUNTED, 0)
        self.stack = [-1]
        self.enabled = True

    def wrap(self, fn, name):
        name_id = self.names.index(name)
        count_items = name in self.items
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.starts)
            self.name_of.append(name_id)
            self.parents.append(self.stack[-1])
            self.ends.append(0)
            self.stack.append(idx)
            self.starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.ends[idx] = clock()
                self.stack.pop()
            if count_items:
                self.items[name] += len(out)
            return out

        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name_of,
                    "start_ns": self.starts,
                    "end_ns": self.ends,
                    "parent": self.parents,
                    "items": self.items,
                },
                fh,
            )


def _resolve(owner, path):
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def install():
    """Import every ppk module, wrap every target, return the recorder."""
    for mod in {mod for _, mod, _ in TARGETS}:
        importlib.import_module(f"ppk.{mod}")
    namespaces = [
        m for key, m in sys.modules.items() if key == "ppk" or key.startswith("ppk.")
    ]
    rec = Recorder(name for name, _, _ in TARGETS)
    for name, mod, path in TARGETS:
        # sys.modules, because the function ppk.theta shadows the submodule
        owner, attr = _resolve(sys.modules[f"ppk.{mod}"], path)
        orig = getattr(owner, attr)
        wrapper = rec.wrap(orig, name)
        # a class is shared by every namespace; a function is re-bound in each
        scopes = [owner] if isinstance(owner, type) else namespaces
        patched = 0
        for scope in scopes:
            for key, val in list(vars(scope).items()):
                if val is orig:
                    setattr(scope, key, wrapper)
                    patched += 1
        if not patched:
            raise RuntimeError(f"trace target {name} is bound nowhere")

    def stop_in_child():
        rec.enabled = False

    os.register_at_fork(after_in_child=stop_in_child)
    return rec


def layer_metrics(path):
    """Aggregate one spans file into per-layer calls, self seconds and items."""
    with open(path) as fh:
        data = json.load(fh)
    names = data["names"]
    starts, ends, parents = data["start_ns"], data["end_ns"], data["parent"]
    child_ns = [0] * len(starts)
    for i, parent in enumerate(parents):
        if parent >= 0:
            child_ns[parent] += ends[i] - starts[i]
    calls = [0] * len(names)
    self_ns = [0] * len(names)
    for i, name_id in enumerate(data["name"]):
        calls[name_id] += 1
        self_ns[name_id] += ends[i] - starts[i] - child_ns[i]
    out = {}
    for k, name in enumerate(names):
        out[f"{name}.calls"] = calls[k]
        out[f"{name}.self_s"] = self_ns[k] / 1e9
    for name, n in data["items"].items():
        out[f"{name}.items"] = n
    return out
