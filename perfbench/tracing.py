"""
Traced runs: spans around the program's public functions, installed from
one hook table, and the per-layer metrics computed from them.

A span is (name, start, end, parent, size, flag).  Functions called once per
word ("leaf" hooks) are aggregated per (name, parent span) as call count,
total time and number of truthy results, so a traced pass keeps a few
thousand spans rather than millions; their time is still subtracted from
the parent's self time.  Self time is a span's duration minus its child
spans and leaf aggregates.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# (target, group, kind, size of the result, flag on the result).  The
# target is where the function is defined; `install` patches that name and
# every other name bound to the same object in the package (re-exports, `from x import y` copies
# such as greedy.avoids_all, greedy.classify_move, oracle.avoids_212,
# cli.run_to_payload).  Module attributes (oracle.language called as
# `oracle.language(...)`) go through the patched home name.
HOOKS = (
    ("cli.parse_and_dispatch", "cli.job", "span", None, None),
    ("greedy.run_to_payload", "cli.payload", "span", None, None),
    ("oracle.all_swords", "oracle.enumerate", "span", len, None),
    ("oracle.language", "oracle.filter", "span", len, None),
    ("oracle.count_avoiding", "oracle.filter", "span", None, None),
    ("patterns.avoids_all", "patterns.test", "leaf", None, None),
    ("patterns.avoids_212", "patterns.test", "leaf", None, None),
    ("greedy.generate_greedy", "greedy.scan", "span", lambda run: len(run.words),
     lambda run: not run.complete),
    ("greedy.verify_gray_code", "greedy.verify", "span", None, None),
    ("bumps.classify_move", "bumps.classify", "leaf", None, None),
    ("stirling.generate_loopless", "stirling.stream", "span", int, None),
    ("stirling.stirling_sequence", "stirling.materialize", "span", len, None),
    ("stirling.loopless_run", "stirling.materialize", "span", lambda run: len(run.words), None),
    ("trees.hamilton_path", "trees.hamilton", "span", len, None),
    ("trees.stirling_word_to_tree", "trees.tree", "span", None, None),
    ("trees.kcatalan_word_to_tree", "trees.tree", "span", None, None),
    ("trees.export_dot", "trees.dot", "span", lambda text: len(text.encode()), None),
    ("zigzag.syntactic_zigzag", "zigzag.closure", "span", None, None),
    ("zigzag.semantic_zigzag", "zigzag.closure", "span", None, None),
    ("zigzag.closed_under_maximum_jumps", "zigzag.closure", "span", None, None),
)

PACKAGE = "swordgen"


class Tracer:
    """Collects spans while installed; `install`/`uninstall` patch and
    restore the package's names."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.names = [target for target, *_ in hooks]
        self.spans: list[list] = []
        self.leaves: dict[tuple[int, int], list] = {}
        self.stack: list[int] = []
        self.in_leaf = False
        self.patched: list[tuple[object, str, object]] = []
        self.aliases: dict[str, list[str]] = {}
        self.unmeasured: list[str] = []

    def reset(self) -> None:
        # in place: the installed wrappers hold these containers
        self.spans.clear()
        self.leaves.clear()
        self.stack.clear()

    # --- wrappers ----------------------------------------------------------

    def _span(self, fn, nid: int, size, flag):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [nid, 0.0, 0.0, stack[-1] if stack else -1, 0, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if size is not None:
                rec[4] = size(result)
            if flag is not None:
                rec[5] = flag(result)
            return result

        return wrapper

    def _leaf(self, fn, nid: int):
        leaves, stack, clock = self.leaves, self.stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.in_leaf:
                return fn(*args, **kwargs)
            tracer.in_leaf = True
            try:
                start = clock()
                result = fn(*args, **kwargs)
                elapsed = clock() - start
            finally:
                tracer.in_leaf = False
            key = (nid, stack[-1] if stack else -1)
            agg = leaves.get(key)
            if agg is None:
                agg = leaves[key] = [0, 0.0, 0]
            agg[0] += 1
            agg[1] += elapsed
            if result:
                agg[2] += 1
            return result

        return wrapper

    # --- installation ------------------------------------------------------

    def install(self) -> None:
        __import__(PACKAGE)
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        self.unmeasured, self.aliases = [], {}
        for nid, (target, _group, kind, size, flag) in enumerate(self.hooks):
            module_name, _, attr = target.rpartition(".")
            home = modules.get(f"{PACKAGE}.{module_name}")
            fn = getattr(home, attr, None) if home is not None else None
            if not callable(fn):
                self.unmeasured.append(target)
                continue
            wrapper = self._leaf(fn, nid) if kind == "leaf" else self._span(fn, nid, size, flag)
            self.aliases[target] = []
            for mod_name, mod in modules.items():
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, name, wrapper)
                        self.patched.append((mod, name, fn))
                        self.aliases[target].append(f"{mod_name}.{name}")

    def uninstall(self) -> None:
        for mod, name, fn in reversed(self.patched):
            setattr(mod, name, fn)
        self.patched = []

    # --- arithmetic --------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus child spans and leaf aggregates."""
        own = [rec[2] - rec[1] for rec in self.spans]
        for _nid, start, end, parent, *_ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        for (_nid, parent), (_calls, seconds, _truthy) in self.leaves.items():
            if parent >= 0:
                own[parent] -= seconds
        return own

    def dump(self) -> dict:
        """Spans and leaf aggregates; name ids index `names`."""
        return {
            "spans": [list(rec) for rec in self.spans],
            "leaves": [[nid, parent, *agg] for (nid, parent), agg in self.leaves.items()],
        }


def layer_totals(tracer: Tracer, scale: float = 1.0) -> dict[str, dict[str, float]]:
    """Per hook group: calls, self seconds, summed result sizes and flags;
    truthy leaf results are also filed under "<group>@<parent group>".  A
    stream span nested in a materialising span is charged to the latter.
    Times are multiplied by `scale`."""
    groups = [hook[1] for hook in tracer.hooks]
    own = tracer.self_times()
    out: dict[str, dict[str, float]] = {}

    def slot(group: str) -> dict[str, float]:
        return out.setdefault(group, {"calls": 0, "self_s": 0.0, "size": 0, "flags": 0, "truthy": 0})

    span_group = []
    for idx, (nid, _start, _end, parent, size, flag) in enumerate(tracer.spans):
        group = groups[nid]
        if group == "stirling.stream" and parent >= 0 and span_group[parent] == "stirling.materialize":
            group = "stirling.materialize"
            size = 0
        span_group.append(group)
        agg = slot(group)
        agg["calls"] += 1
        agg["self_s"] += own[idx] * scale
        agg["size"] += size
        agg["flags"] += flag
    for (nid, parent), (calls, seconds, truthy) in tracer.leaves.items():
        agg = slot(groups[nid])
        agg["calls"] += calls
        agg["self_s"] += seconds * scale
        agg["truthy"] += truthy
        parent_group = span_group[parent] if parent >= 0 else None
        slot(f"{groups[nid]}@{parent_group}")["truthy"] += truthy
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# metric -> (unit, groups it needs, formula over layer totals `t`, bytes out `b`)
PER_LAYER = {
    "oracle.words_enumerated": ("count", ("oracle.enumerate",), lambda t, b: t("oracle.enumerate", "size")),
    "oracle.words_kept": ("count", ("oracle.filter", "patterns.test"),
                          lambda t, b: t("patterns.test@oracle.filter", "truthy")),
    "oracle.yield": ("ratio", ("oracle.enumerate", "oracle.filter", "patterns.test"),
                     lambda t, b: _ratio(t("patterns.test@oracle.filter", "truthy"), t("oracle.enumerate", "size"))),
    "oracle.enumerate_s": ("s", ("oracle.enumerate",), lambda t, b: t("oracle.enumerate", "self_s")),
    "oracle.language_s": ("s", ("oracle.filter",), lambda t, b: t("oracle.filter", "self_s")),
    "patterns.tests": ("count", ("patterns.test",), lambda t, b: t("patterns.test", "calls")),
    "patterns.test_s": ("s", ("patterns.test",), lambda t, b: t("patterns.test", "self_s")),
    "patterns.ns_per_test": ("ns", ("patterns.test",),
                             lambda t, b: 1e9 * _ratio(t("patterns.test", "self_s"), t("patterns.test", "calls"))),
    "greedy.scan_s": ("s", ("greedy.scan",), lambda t, b: t("greedy.scan", "self_s")),
    "greedy.visits": ("count", ("greedy.scan",), lambda t, b: t("greedy.scan", "size")),
    "greedy.us_per_visit": ("us", ("greedy.scan",),
                            lambda t, b: 1e6 * _ratio(t("greedy.scan", "self_s"), t("greedy.scan", "size"))),
    "greedy.incomplete_runs": ("count", ("greedy.scan",), lambda t, b: t("greedy.scan", "flags")),
    "greedy.verify_s": ("s", ("greedy.verify",), lambda t, b: t("greedy.verify", "self_s")),
    "bumps.classify_calls": ("count", ("bumps.classify",), lambda t, b: t("bumps.classify", "calls")),
    "bumps.classify_s": ("s", ("bumps.classify",), lambda t, b: t("bumps.classify", "self_s")),
    "stirling.stream_visits": ("count", ("stirling.stream",), lambda t, b: t("stirling.stream", "size")),
    "stirling.stream_ns_per_visit": ("ns", ("stirling.stream",),
                                     lambda t, b: 1e9 * _ratio(t("stirling.stream", "self_s"), t("stirling.stream", "size"))),
    "stirling.materialize_s": ("s", ("stirling.materialize",), lambda t, b: t("stirling.materialize", "self_s")),
    "stirling.materialize_ns_per_word": ("ns", ("stirling.materialize",),
                                         lambda t, b: 1e9 * _ratio(t("stirling.materialize", "self_s"), t("stirling.materialize", "size"))),
    "trees.hamilton_s": ("s", ("trees.hamilton",), lambda t, b: t("trees.hamilton", "self_s")),
    "trees.hamilton_us_per_vector": ("us", ("trees.hamilton",),
                                     lambda t, b: 1e6 * _ratio(t("trees.hamilton", "self_s"), t("trees.hamilton", "size"))),
    "trees.tree_s": ("s", ("trees.tree",), lambda t, b: t("trees.tree", "self_s")),
    "trees.trees_built": ("count", ("trees.tree",), lambda t, b: t("trees.tree", "calls")),
    "trees.dot_s": ("s", ("trees.dot",), lambda t, b: t("trees.dot", "self_s")),
    "trees.dot_bytes": ("bytes", ("trees.dot",), lambda t, b: t("trees.dot", "size")),
    "zigzag.closure_s": ("s", ("zigzag.closure",), lambda t, b: t("zigzag.closure", "self_s")),
    "cli.emit_s": ("s", ("cli.job",), lambda t, b: t("cli.job", "self_s")),
    "cli.payload_s": ("s", ("cli.payload",), lambda t, b: t("cli.payload", "self_s")),
    "cli.bytes_out": ("bytes", (), lambda t, b: b),
}

COUNTS = {name for name, (unit, _g, _f) in PER_LAYER.items() if unit in ("count", "bytes")}


def add_totals(into: dict, more: dict) -> None:
    for group, agg in more.items():
        slot = into.setdefault(group, dict.fromkeys(agg, 0))
        for key, value in agg.items():
            slot[key] += value


def layer_metrics(tracer: Tracer, totals: dict, bytes_out: int) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from a pass's layer totals, and the metrics left
    unmeasured because every hook of a group they need is missing."""
    live = {hook[1] for hook in tracer.hooks if hook[0] not in tracer.unmeasured}

    def t(group: str, key: str) -> float:
        return totals.get(group, {}).get(key, 0)

    values, missing = {}, []
    for name, (unit, needs, formula) in PER_LAYER.items():
        if all(group in live for group in needs):
            value = formula(t, bytes_out)
            values[name] = int(value) if name in COUNTS else float(value)
        else:
            missing.append(name)
    return values, missing


def summarize(passes: list[dict[str, float]]) -> dict[str, float]:
    """Counts from the first traced pass, timings as medians."""
    out = {}
    for name in passes[0]:
        values = [p[name] for p in passes]
        out[name] = values[0] if name in COUNTS else statistics.median(values)
    return out
