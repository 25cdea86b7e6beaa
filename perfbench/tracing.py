"""Span and counter tracing for the benchmark, installed from outside.

The tracer wraps the public functions of each curvext layer by rebinding
the name on every curvext module (and the package) that holds the
function, and wraps a few named methods on their classes.  The library
source is not edited.  Field payload ``add``/``mul``/``inv`` on the
three descriptors are counted only: a span per payload operation would
cost more than the operation itself.

Each wrapped call records a span (name, start, end, parent span, op id).
Spans stay in memory, one buffer per thread, and are written when the
run ends.  A span's self time is its duration minus the durations of
its direct children; it is accumulated when the span closes.  A call to
a generator function counts once, and every resume of the generator is
a span of its own, so the time spent producing each item is charged to
the generator and the consumer's span is its parent.
"""

from __future__ import annotations

import gzip
import inspect
import threading
import time
from array import array

# methods spanned besides the module-level public functions
METHODS = {
    "polys": {"Poly": ("is_irreducible",)},
    "extensions": {"ExtensionDatum": ("pair_tensor", "boundary_payload_rows",
                                      "det_payload")},
}

FIELD_OPS = ("add", "mul", "inv")
FIELD_CLASSES = ("Rationals", "PrimeField", "ExtensionField")


def _entries(args, result):
    mat = args[0]
    return mat.nrows * mat.ncols


# span name -> (counter name, hook(args, result) -> amount added after the call)
POST_COUNTERS = {
    "linalg.kernel_basis": ("entries", _entries),
    "linalg.rref": ("entries", _entries),
    "linalg.solve": ("entries", _entries),
    "linalg.rank": ("entries", _entries),
    "linalg.det": ("entries", _entries),
    "curves.enumerate_closed_points": ("points", lambda a, r: len(r)),
    "extensions.brute_force_destabilizer": ("examined", lambda a, r: r.examined),
    "extensions.search_semistable": ("examined", lambda a, r: r.examined),
    "secant.secant_table": ("members", lambda a, r: len(r)),
    "secant.secant_member": ("examined", lambda a, r: r.examined),
}

# span name -> (counter name, hook(args) -> amount added before the call);
# an rr_basis call is distinct when its divisor is not yet in the
# curve's cache, i.e. it is a cache miss
PRE_COUNTERS = {
    "riemann_roch.rr_basis": ("distinct",
                              lambda a: a[1].key() not in a[0]._rr_cache),
}

# generator functions count the items they yield under this name
GENERATOR_COUNTER = {"curves.enumerate_effective_divisors": "divisors"}


class _ThreadState:
    """Per-thread buffers, so worker threads never race on a counter."""

    def __init__(self, nspans, index):
        self.index = index
        self.stack = []              # open spans: [span id, child seconds]
        self.next_id = 0
        self.calls = [0] * nspans
        self.counter = [0] * nspans
        self.self_s = [0.0] * nspans
        self.field = [0] * len(FIELD_OPS)
        self.rows = array("d")       # id, parent, name index, op, start, end


class Tracer:
    """Installs wrappers on imported curvext modules; ``uninstall`` undoes it."""

    def __init__(self, modules):
        # layer name -> module, plus "curvext" -> the package
        self.modules = modules
        self.names = []              # span names, index = name id
        self.counter_names = {}      # name id -> counter name
        self.op = -1                 # id of the benchmark op in progress
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._undo = []

    # -- per-thread state ---------------------------------------------------

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            with self._lock:
                st = _ThreadState(len(self.names), len(self._states))
                self._states.append(st)
            self._local.state = st
            return st

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, fn, nid, pre, post):
        state = self._state
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            st = state()
            st.calls[nid] += 1
            if pre is not None:
                st.counter[nid] += pre(args)
            sid = st.next_id
            st.next_id = sid + 1
            stack = st.stack
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                st.self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                st.rows.extend((sid, parent, nid, tracer.op, t0, t1))
            if post is not None:
                st.counter[nid] += post(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _generator_wrapper(self, fn, nid):
        state = self._state
        clock = time.perf_counter
        tracer = self

        def resumes(inner):
            while True:
                st = state()
                sid = st.next_id
                st.next_id = sid + 1
                stack = st.stack
                parent = stack[-1][0] if stack else -1
                frame = [sid, 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    t1 = clock()
                    stack.pop()
                    dur = t1 - t0
                    st.self_s[nid] += dur - frame[1]
                    if stack:
                        stack[-1][1] += dur
                    st.rows.extend((sid, parent, nid, tracer.op, t0, t1))
                st.counter[nid] += 1
                yield item

        def wrapper(*args, **kwargs):
            state().calls[nid] += 1
            return resumes(fn(*args, **kwargs))

        wrapper.__wrapped__ = fn
        return wrapper

    def _field_counter(self, fn, k):
        state = self._state

        def counted(self_, *args):
            state().field[k] += 1
            return fn(self_, *args)

        return counted

    # -- install / uninstall ----------------------------------------------------

    def _register(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def _make(self, name, fn):
        nid = self._register(name)
        if inspect.isgeneratorfunction(fn):
            self.counter_names[nid] = GENERATOR_COUNTER.get(name, "items")
            return self._generator_wrapper(fn, nid)
        pre = PRE_COUNTERS.get(name)
        post = POST_COUNTERS.get(name)
        if pre is not None:
            self.counter_names[nid] = pre[0]
        if post is not None:
            self.counter_names[nid] = post[0]
        return self._span_wrapper(fn, nid, pre and pre[1], post and post[1])

    def _rebind(self, holder, attr, new):
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, new)

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        holders = list(self.modules.values())
        for layer, mod in self.modules.items():
            if layer == "curvext":
                continue
            for attr, fn in sorted(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped = self._make(f"{layer}.{attr}", fn)
                for holder in holders:
                    for hattr, value in list(vars(holder).items()):
                        if value is fn:
                            self._rebind(holder, hattr, wrapped)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    self._rebind(cls, meth,
                                 self._make(f"{layer}.{cls_name}.{meth}", fn))
        fields = self.modules["fields"]
        for cls_name in FIELD_CLASSES:
            cls = getattr(fields, cls_name)
            for k, op in enumerate(FIELD_OPS):
                self._rebind(cls, op, self._field_counter(cls.__dict__[op], k))

    def uninstall(self):
        for holder, attr, old in reversed(self._undo):
            setattr(holder, attr, old)
        self._undo.clear()

    # -- results ------------------------------------------------------------------

    def totals(self):
        """Aggregate over threads: {span name: {calls, self_s, <counter>}}
        plus {"fields.<op>": {"calls"}}."""
        out = {}
        for nid, name in enumerate(self.names):
            entry = {"calls": sum(st.calls[nid] for st in self._states),
                     "self_s": sum(st.self_s[nid] for st in self._states)}
            cname = self.counter_names.get(nid)
            if cname is not None:
                entry[cname] = sum(st.counter[nid] for st in self._states)
            out[name] = entry
        for k, op in enumerate(FIELD_OPS):
            out[f"fields.{op}"] = {
                "calls": sum(st.field[k] for st in self._states)}
        return out

    def span_count(self):
        return sum(len(st.rows) // 6 for st in self._states)

    def write_spans(self, path):
        """One CSV row per span: thread, id, parent, name, op, start, end."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("thread,id,parent,name,op,start,end\n")
            for st in self._states:
                rows = st.rows
                for i in range(0, len(rows), 6):
                    sid, parent, nid, op, t0, t1 = rows[i:i + 6]
                    fh.write(f"{st.index},{int(sid)},{int(parent)},"
                             f"{self.names[int(nid)]},{int(op)},"
                             f"{t0:.9f},{t1:.9f}\n")
