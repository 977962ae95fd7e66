"""Spans and work counters recorded from outside the library.

``Tracer.install`` replaces the public functions of the sgfl layers with
timing wrappers wherever a module looks them up (every ``sgfl.*`` module
global bound to the function, and the ``SemigroupPresentation`` methods),
plus ``BudgetMeter.spend``, whose nodes are charged to the layer of the
innermost open span.  ``uninstall`` puts the originals back.  Nothing
under ``src/`` is edited.

Spans are kept in memory as packed columns (name, start, end, parent span,
item id) and written to a file once the run ends.  Self time is a span's
duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter

# (module, function) pairs wrapped where every sgfl module looks them up.
FUNCTIONS = (
    ("cli", "main"),
    ("verdicts", "check_formula"),
    ("verdicts", "oracle_scan"),
    ("minrepl", "min_repl"),
    ("minrepl", "candidate_sets"),
    ("lengths", "longest_length"),
    ("lengths", "shortest_length"),
    ("semigroups", "new_semigroup"),
    ("semigroups", "minimal_generating_subset"),
    ("kunz", "kunz_point"),
    ("kunz", "semigroup_of_point"),
    ("kunz", "point_of_semigroup"),
    ("kunz", "main_verdict"),
    ("kunz", "sq_leq"),
    ("kunz", "is_m_atom_point"),
)
# SemigroupPresentation methods; the module-level forms forward to them.
METHODS = ("contains", "divides", "apery_set")

# Span names: min_repl is split by the dimension of its semigroup.
SPANS = tuple(
    name
    for module, function in FUNCTIONS
    for name in (
        (f"{module}.{function}.numerical", f"{module}.{function}.affine")
        if function == "min_repl"
        else (f"{module}.{function}",)
    )
) + tuple(f"semigroups.{method}" for method in METHODS)

BUDGET_LAYERS = ("lengths", "minrepl")

# Calls on an argument key already seen in the same item.
REPEAT_KEYS = (
    "minrepl.min_repl",
    "lengths.longest_length",
    "lengths.shortest_length",
    "semigroups.apery_set",
)
WORK_COUNTS = (
    "minrepl.min_repl.vectors",
    "verdicts.check_formula.targets",
    "verdicts.oracle_scan.checked",
)


def _semigroup_key(S):
    return (S.dim, S.generators)


class Tracer:
    """Records spans and counters for one traced pass."""

    def __init__(self):
        self.name_ids = {name: i for i, name in enumerate(SPANS)}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_item = array("i")
        # Open spans: [span id, name id, start, child time].
        self._open = []
        self._active = [0] * len(SPANS)  # open spans per name, for total_s
        self.calls = [0] * len(SPANS)
        self.self_s = [0.0] * len(SPANS)
        self.total_s = [0.0] * len(SPANS)
        self.nodes = {layer: 0 for layer in BUDGET_LAYERS}
        self.repeat_calls = {key: 0 for key in REPEAT_KEYS}
        self.repeat_hits = {key: 0 for key in REPEAT_KEYS}
        self.work = {key: 0 for key in WORK_COUNTS}
        self.item = -1
        self._seen = set()
        self._origin = perf_counter()
        self._restore = []

    # -- recording -----------------------------------------------------------

    def start_item(self, item):
        self.item = item
        self._seen = set()

    def _enter(self, name_id):
        sid = len(self.span_name)
        self.span_name.append(name_id)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.span_parent.append(self._open[-1][0] if self._open else -1)
        self.span_item.append(self.item)
        self._active[name_id] += 1
        self._open.append([sid, name_id, perf_counter(), 0.0])

    def _exit(self):
        end = perf_counter()
        sid, name_id, start, child = self._open.pop()
        duration = end - start
        self.span_start[sid] = start - self._origin
        self.span_end[sid] = end - self._origin
        self.calls[name_id] += 1
        self.self_s[name_id] += duration - child
        self._active[name_id] -= 1
        if not self._active[name_id]:
            self.total_s[name_id] += duration
        if self._open:
            self._open[-1][3] += duration

    def _repeat(self, key, arg_key):
        self.repeat_calls[key] += 1
        marker = (key, arg_key)
        if marker in self._seen:
            self.repeat_hits[key] += 1
        else:
            self._seen.add(marker)

    # -- patching ------------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        tracer = self
        name_id = self.name_ids[name]

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            tracer._enter(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _min_repl_wrapper(self, fn):
        tracer = self
        ids = {1: self.name_ids["minrepl.min_repl.numerical"]}
        affine_id = self.name_ids["minrepl.min_repl.affine"]

        def wrapper(S, m, *args, **kwargs):
            tracer._repeat("minrepl.min_repl", (_semigroup_key(S), S.vector(m)))
            tracer._enter(ids.get(S.dim, affine_id))
            try:
                report = fn(S, m, *args, **kwargs)
            finally:
                tracer._exit()
            tracer.work["minrepl.min_repl.vectors"] += len(report.minimal_vectors)
            return report

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace_everywhere(self, original, wrapper):
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("sgfl"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, original))

    def install(self):
        import sgfl
        from sgfl import budget, semigroups

        for module_name, function in FUNCTIONS:
            module = getattr(sgfl, module_name)
            original = getattr(module, function)
            name = f"{module_name}.{function}"
            if function == "min_repl":
                wrapper = self._min_repl_wrapper(original)
            elif function in ("longest_length", "shortest_length"):
                wrapper = self._wrap(
                    name,
                    original,
                    before=lambda args, name=name: self._repeat(
                        name, (_semigroup_key(args[0]), args[0].vector(args[1]))
                    ),
                )
            elif function == "check_formula":
                wrapper = self._wrap(name, original, after=self._count_targets)
            elif function == "oracle_scan":
                wrapper = self._wrap(name, original, after=self._count_checked)
            else:
                wrapper = self._wrap(name, original)
            self._replace_everywhere(original, wrapper)

        cls = semigroups.SemigroupPresentation
        for method in METHODS:
            original = cls.__dict__[method]
            before = None
            if method == "apery_set":
                before = lambda args: self._repeat(
                    "semigroups.apery_set", (_semigroup_key(args[0]), args[1])
                )
            setattr(cls, method, self._wrap(f"semigroups.{method}", original, before))
            self._restore.append((cls, method, original))

        meter = budget.BudgetMeter
        spend = meter.__dict__["spend"]
        open_spans = self._open
        charged = self.nodes
        layer_of = [name.split(".")[0] for name in SPANS]

        def traced_spend(meter_self, nodes=1):
            # Nodes go to the layer of the innermost open span.
            if open_spans:
                layer = layer_of[open_spans[-1][1]]
                if layer in charged:
                    charged[layer] += nodes
            return spend(meter_self, nodes)

        meter.spend = traced_spend
        self._restore.append((meter, "spend", spend))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def _count_targets(self, verdict):
        self.work["verdicts.check_formula.targets"] += len(verdict.checked)

    def _count_checked(self, verdict):
        self.work["verdicts.oracle_scan.checked"] += len(verdict.checked)

    # -- results -------------------------------------------------------------

    def metrics(self, busy_s):
        """Per-layer metrics by name: calls and seconds per span, counters.

        busy_s, the summed item time of the traced pass, is reported with
        them.  Self time is the span's duration minus its direct children;
        total time counts a span nested in itself once.
        """
        out = {"trace.busy_s": (busy_s, "s")}
        for i, name in enumerate(SPANS):
            out[f"{name}.calls"] = (self.calls[i], "count")
            out[f"{name}.self_s"] = (self.self_s[i], "s")
            out[f"{name}.total_s"] = (self.total_s[i], "s")
        for layer, nodes in self.nodes.items():
            out[f"budget.nodes.{layer}"] = (nodes, "count")
        for key in REPEAT_KEYS:
            calls = self.repeat_calls[key]
            share = self.repeat_hits[key] / calls if calls else 0.0
            out[f"{key}.repeat_share"] = (share, "ratio")
        for key, count in self.work.items():
            out[key] = (count, "count")
        return out

    def counts(self):
        """The deterministic part of the record: call and node counts."""
        return {
            "calls": dict(zip(SPANS, self.calls)),
            "nodes": dict(self.nodes),
            "repeats": dict(self.repeat_hits),
            "work": dict(self.work),
        }

    def write(self, path):
        """Spans as gzip-compressed JSON lines, one object per span."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            for sid, (name, start, end, parent, item) in enumerate(
                zip(self.span_name, self.span_start, self.span_end,
                    self.span_parent, self.span_item)
            ):
                handle.write(
                    f'{{"id":{sid},"name":"{SPANS[name]}","start":{start!r},'
                    f'"end":{end!r},"parent":{parent},"item":{item}}}\n'
                )
