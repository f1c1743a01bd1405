"""Per-layer tracing from outside the library.

The tracer replaces the public functions of each exotictilt layer module, the
public ``RootSystem`` methods and the ``LaurentPoly`` arithmetic with
wrappers, in every exotictilt namespace that binds them (modules import each
other's functions by name), and restores the originals on ``uninstall``.

Each wrapper counts its calls.  A call that enters a layer from another one
opens a frame; a frame's exclusive time (its duration minus that of the
frames it encloses) is charged to its layer.  Frames of ordinary functions
are also kept as spans (query id, span id, parent span id, layer, function,
start, end); hot leaves (``LaurentPoly`` arithmetic, ``RootSystem`` methods
other than ``weyl_group``, ``aff_mul``, ``aff_length``) keep counts and
exclusive time only.  Memo-table
hit ratios are read from outside: 1 - (entries added to ``rs.memo(name)``) /
(calls of the function that fills it), summed over every root system built
while tracing.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("laurent", "rootdata", "affweyl", "heckebraid", "exotic_k",
          "charring", "tiltmult", "cli")

HOT_FUNCTIONS = {"aff_mul", "aff_length"}
# Functions whose inclusive time is reported, so they always open a frame.
TIMED = {"weyl_group", "load_cache", "save_cache", "tensor_class"}
LAURENT_OPS = {"__add__": "add", "__radd__": "add", "__sub__": "sub",
               "__neg__": "neg", "__mul__": "mul", "__rmul__": "mul",
               "compose_power": "compose_power", "__call__": "eval"}
MEMOS = ("dominant_rep", "aff_length", "reduced_word", "theta",
         "k_gen_action", "kostant", "kostant_dp")

# per-layer metric name -> unit, in the order they are reported
PER_LAYER_UNITS = {
    "laurent.mul.calls": "count",
    "laurent.add.calls": "count",
    "laurent.self_s": "s",
    "rootdata.weyl_group.calls": "count",
    "rootdata.weyl_group.s": "s",
    "rootdata.dominant_rep.hit_ratio": "ratio",
    "rootdata.self_s": "s",
    "affweyl.aff_mul.calls": "count",
    "affweyl.aff_length.calls": "count",
    "affweyl.aff_length.hit_ratio": "ratio",
    "affweyl.reduced_word.hit_ratio": "ratio",
    "affweyl.self_s": "s",
    "heckebraid.mul_gen.calls": "count",
    "heckebraid.theta.hit_ratio": "ratio",
    "heckebraid.self_s": "s",
    "exotic_k.act_simple.calls": "count",
    "exotic_k.k_gen_action.entries": "count",
    "exotic_k.self_s": "s",
    "charring.lusztig_q.calls": "count",
    "charring.kostant_partition.calls": "count",
    "charring.kostant.hit_ratio": "ratio",
    "charring.kostant_dp.entries": "count",
    "charring.self_s": "s",
    "tiltmult.tensor_oracle_s": "s",
    "tiltmult.self_s": "s",
    "cli.load_cache.s": "s",
    "cli.save_cache.s": "s",
    "cli.cache_bytes": "B",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.calls = defaultdict(int)       # (layer, function) -> calls
        self.self_s = defaultdict(float)    # layer -> exclusive seconds
        self.timed_s = defaultdict(float)   # function in TIMED -> inclusive s
        self.tensor_oracle_s = 0.0
        self.memo_added = defaultdict(int)  # memo name -> entries added
        self.spans = []
        self.qid = None
        # frame: [layer, seconds of enclosed frames, function, span id]
        self._stack = [["bench", 0.0, None, None]]
        self._next_span = 0
        self._patches = []
        self._live = []        # root systems built since the last harvest
        self._loaded = {}      # id(rs) -> Kostant entries read from a cache file

    # -- installing ----------------------------------------------------------

    def install(self):
        lib = self.lib
        wrapped = {}
        for layer in LAYERS:
            mod = getattr(lib, layer)
            for name, fn in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped[id(fn)] = self._wrap(layer, name, fn,
                                             hot=name in HOT_FUNCTIONS)
        package = lib.rootdata.__name__.rpartition(".")[0]
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == package or n.startswith(package + ".")]
        for mod in namespaces:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._patch(mod, name, wrapped[id(obj)])
        rs_cls = lib.rootdata.RootSystem
        for name, fn in list(vars(rs_cls).items()):
            if name.startswith("_") or name == "memo" or not inspect.isfunction(fn):
                continue
            self._patch(rs_cls, name, self._wrap("rootdata", name, fn,
                                                 hot=name != "weyl_group"))
        lp_cls = lib.laurent.LaurentPoly
        for name, label in LAURENT_OPS.items():
            self._patch(lp_cls, name, self._wrap("laurent", label,
                                                 vars(lp_cls)[name], hot=True))

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def reset(self):
        """Forget counts and times (not the root systems being watched)."""
        self.calls.clear()
        self.self_s.clear()
        self.timed_s.clear()
        self.tensor_oracle_s = 0.0
        self.memo_added.clear()
        self.spans.clear()

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _wrap(self, layer, name, fn, hot):
        key = (layer, name)
        calls = self.calls
        stack = self._stack
        clock = time.perf_counter
        timed = name in TIMED
        tracer = self

        def wrapper(*args, **kwargs):
            calls[key] += 1
            top = stack[-1]
            if top[0] == layer and not timed:
                return fn(*args, **kwargs)
            if hot:
                span = None
            else:
                span = tracer._next_span
                tracer._next_span += 1
            frame = [layer, 0.0, name, span if span is not None else top[3]]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                tracer.self_s[layer] += dur - frame[1]
                parent = stack[-1]
                parent[1] += dur
                if span is not None:
                    tracer.spans.append(
                        (tracer.qid, span, top[3], layer, name, t0, t1))
                if timed:
                    tracer.timed_s[name] += dur
                    if name == "tensor_class" and parent[2] == "dominant_tilting_class":
                        tracer.tensor_oracle_s += dur
            if name == "build_root_system":
                tracer._live.append(result)
            elif name == "load_cache":
                rs = args[0]
                tracer._loaded[id(rs)] = len(rs._cache.get("kostant", ()))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- queries and memo tables ---------------------------------------------

    @contextlib.contextmanager
    def query(self, qid, kind):
        """Query-level span: the root of one query's span tree."""
        span = self._next_span
        self._next_span += 1
        self.qid = qid
        self._stack.append(["query", 0.0, kind, span])
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self._stack[-1][1] += t1 - t0
            self.spans.append((qid, span, None, "query", kind, t0, t1))
            self.qid = None

    def harvest(self):
        """Add the memo-table sizes of the root systems built since the last
        harvest, then stop watching them."""
        for rs in self._live:
            cache = rs._cache
            for name in MEMOS:
                self.memo_added[name] += len(cache.get(name, ()))
            self.memo_added["kostant"] -= self._loaded.pop(id(rs), 0)
        self._live.clear()

    # -- results -------------------------------------------------------------

    def metrics(self, extra=None) -> dict:
        calls = self.calls

        def hit_ratio(memo, layer, fn):
            n = calls[(layer, fn)]
            return 1.0 - self.memo_added[memo] / n if n else 0.0

        out = {
            "laurent.mul.calls": calls[("laurent", "mul")],
            "laurent.add.calls": calls[("laurent", "add")],
            "rootdata.weyl_group.calls": calls[("rootdata", "weyl_group")],
            "rootdata.weyl_group.s": self.timed_s["weyl_group"],
            "rootdata.dominant_rep.hit_ratio":
                hit_ratio("dominant_rep", "rootdata", "dominant_rep"),
            "affweyl.aff_mul.calls": calls[("affweyl", "aff_mul")],
            "affweyl.aff_length.calls": calls[("affweyl", "aff_length")],
            "affweyl.aff_length.hit_ratio":
                hit_ratio("aff_length", "affweyl", "aff_length"),
            "affweyl.reduced_word.hit_ratio":
                hit_ratio("reduced_word", "affweyl", "reduced_word"),
            "heckebraid.mul_gen.calls": calls[("heckebraid", "mul_gen")],
            "heckebraid.theta.hit_ratio": hit_ratio("theta", "heckebraid", "theta"),
            "exotic_k.act_simple.calls": calls[("exotic_k", "act_simple")],
            "exotic_k.k_gen_action.entries": self.memo_added["k_gen_action"],
            "charring.lusztig_q.calls": calls[("charring", "lusztig_q")],
            "charring.kostant_partition.calls":
                calls[("charring", "kostant_partition")],
            "charring.kostant.hit_ratio":
                hit_ratio("kostant", "charring", "kostant_partition"),
            "charring.kostant_dp.entries": self.memo_added["kostant_dp"],
            "tiltmult.tensor_oracle_s": self.tensor_oracle_s,
            "cli.load_cache.s": self.timed_s["load_cache"],
            "cli.save_cache.s": self.timed_s["save_cache"],
            "cli.cache_bytes": 0,
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
        out.update(extra or {})
        return out

    def span_records(self):
        keys = ("query", "span", "parent", "layer", "function", "start", "end")
        return [dict(zip(keys, rec)) for rec in self.spans]

