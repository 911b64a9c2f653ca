"""Span recorder for the traced run.

:class:`Recorder` wraps the module functions and class methods of each layer
of ``ramcond`` and rebinds every ``ramcond.*`` namespace entry that refers to
a wrapped function, so that calls through ``from .x import f`` bindings are
seen too.  :meth:`Recorder.uninstall` puts every original object back.

A span is recorded at each layer boundary (a call whose caller is in another
layer) and for every call of the functions listed in ``always_span``.  Calls
inside one layer are counted but add no span, which keeps the recorder's own
cost and memory bounded.  Self time of a layer is the duration of its spans
minus the time their child spans cover.  Spans stay in memory, up to
``max_spans``, and :meth:`Recorder.write_spans` writes them out at the end.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

BENCH = "bench"

# Constant-time accessors: wrapping them would measure the wrapper, not the
# layer.
SKIP = frozenset(
    {
        "FiniteGroup.mult",
        "FiniteGroup.inv",
        "FiniteGroup.conj",
        "FiniteGroup.elements",
        "Subgroup.__contains__",
        "ClassFunction.__call__",
        "CharModule.matrix",
        "SeriesRingSpec.index_of",
    }
)
SKIP_DUNDERS = frozenset(
    {"__setattr__", "__delattr__", "__getattribute__", "__getattr__", "__hash__",
     "__repr__", "__new__", "__init_subclass__", "__class_getitem__"}
)


class Recorder:
    """Counts calls, times layers and keeps spans for the wrapped functions."""

    def __init__(self, package, layers, always_span=(), hooks=None, max_spans=200_000):
        self.package = package
        self.layers = (BENCH,) + tuple(layers)
        self.always_span = frozenset(always_span)
        self.hooks = dict(hooks or {})
        self.max_spans = max_spans
        self.enabled = False  # on inside root spans only
        self.names = []  # function key per index, "layer.Qual.name"
        self.calls = []
        self.incl = []
        self.self_time = [0.0] * len(self.layers)
        self.extra = {}  # counters filled by hooks
        self.case_id = -1
        self.spans_dropped = 0
        self.case_state = {}  # per-case state for hooks, cleared by root()
        self._next_span = 0
        self._span_id = array("i")
        self._span_fn = array("i")
        self._span_parent = array("i")
        self._span_case = array("i")
        self._span_t0 = array("d")
        self._span_t1 = array("d")
        self._stack = [[0, 0.0, -1]]  # frames: [layer index, child time, span id]
        self._patches = []  # (owner, attribute, original object)

    # -- counters ------------------------------------------------------------

    def add(self, key, amount=1):
        self.extra[key] = self.extra.get(key, 0) + amount

    def snapshot(self):
        return {
            "calls": dict(zip(self.names, self.calls)),
            "incl": dict(zip(self.names, self.incl)),
            "self": dict(zip(self.layers, self.self_time)),
            "extra": dict(self.extra),
        }

    # -- spans ---------------------------------------------------------------

    @property
    def spans_kept(self):
        return len(self._span_t0)

    def _open(self):
        sid = self._next_span
        self._next_span += 1
        return sid

    def _record(self, sid, fn, parent, t0, t1):
        if sid >= self.max_spans:
            self.spans_dropped += 1
            return
        self._span_id.append(sid)
        self._span_fn.append(fn)
        self._span_parent.append(parent)
        self._span_case.append(self.case_id)
        self._span_t0.append(t0)
        self._span_t1.append(t1)

    def root(self, case_id):
        """Context manager for one case, or for set-up, as a root span."""
        return _Root(self, case_id)

    def write_spans(self, path):
        """Write the kept spans as CSV: span, parent, case, name, start, duration."""
        names = self.names + [f"{BENCH}.root"]
        base = min(self._span_t0) if len(self._span_t0) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,case,name,start_us,duration_us\n")
            for i in range(len(self._span_t0)):
                t0 = self._span_t0[i]
                fh.write(
                    f"{self._span_id[i]},{self._span_parent[i]},{self._span_case[i]},"
                    f"{names[self._span_fn[i]]},{(t0 - base) * 1e6:.1f},"
                    f"{(self._span_t1[i] - t0) * 1e6:.1f}\n"
                )
        return len(self._span_t0)

    # -- patching ------------------------------------------------------------

    def _targets(self):
        """(layer, key, owner, attribute, function, descriptor type) per callable."""
        for layer in self.layers[1:]:
            mod = sys.modules[f"{self.package.__name__}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    yield layer, f"{layer}.{obj.__qualname__}", mod, attr, obj, None
                elif (
                    inspect.isclass(obj)
                    and obj.__module__ == mod.__name__
                    and not issubclass(obj, (tuple, BaseException))
                ):
                    for name, member in list(vars(obj).items()):
                        if name in SKIP_DUNDERS or f"{obj.__name__}.{name}" in SKIP:
                            continue
                        if isinstance(member, (classmethod, staticmethod)):
                            fn, kind = member.__func__, type(member)
                        elif inspect.isfunction(member):
                            fn, kind = member, None
                        else:
                            continue
                        # aliases such as __rmul__ = __mul__ share one key
                        key = f"{layer}.{obj.__name__}.{fn.__name__}"
                        yield layer, key, obj, name, fn, kind

    def install(self):
        """Wrap every target and rebind every namespace entry that names one."""
        if self._patches:
            raise RuntimeError("recorder already installed")
        wrappers = {}  # id(original function) -> (original, wrapper)
        for layer, key, owner, attr, fn, kind in list(self._targets()):
            if id(fn) not in wrappers:
                if key not in self.names:
                    self.names.append(key)
                    self.calls.append(0)
                    self.incl.append(0.0)
                idx = self.names.index(key)
                wrappers[id(fn)] = (fn, self._wrap(fn, idx, self.layers.index(layer), key))
            self._patches.append((owner, attr, vars(owner)[attr]))
            wrapper = wrappers[id(fn)][1]
            setattr(owner, attr, kind(wrapper) if kind else wrapper)
        prefix = self.package.__name__
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == prefix or modname.startswith(prefix + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        return len(self._patches)

    def uninstall(self):
        """Put back every original object, newest patch first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        restored = list(self._patches)
        self._patches.clear()
        return restored

    def _wrap(self, fn, idx, layer, key):
        rec = self
        stack = self._stack
        calls = self.calls
        incl = self.incl
        self_time = self.self_time
        clock = time.perf_counter
        always = key in self.always_span
        pre, post = self.hooks.get(key, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            calls[idx] += 1
            state = pre(rec, args, kwargs) if pre is not None else None
            parent = stack[-1]
            if parent[0] == layer and not always:
                result = fn(*args, **kwargs)
            else:
                sid = rec._open()
                frame = [layer, 0.0, sid]
                stack.append(frame)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    d = t1 - t0
                    self_time[layer] += d - frame[1]
                    parent[1] += d
                    incl[idx] += d
                    rec._record(sid, idx, parent[2], t0, t1)
            if post is not None:
                post(rec, state, args, kwargs, result)
            return result

        wrapper.recorder = self
        return wrapper


class _Root:
    def __init__(self, rec, case_id):
        self.rec = rec
        self.case_id = case_id

    def __enter__(self):
        rec = self.rec
        rec.case_id = self.case_id
        rec.case_state = {}
        rec.enabled = True
        self.frame = [0, 0.0, rec._open()]
        rec._stack.append(self.frame)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        rec = self.rec
        t1 = time.perf_counter()
        rec._stack.pop()
        rec.enabled = False
        rec.self_time[0] += t1 - self.t0 - self.frame[1]
        rec._record(self.frame[2], len(rec.names), -1, self.t0, t1)
        return False
