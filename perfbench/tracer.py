"""Run-time tracer: wraps the public functions of a package from outside.

`Tracer.install` replaces every binding of every traced function across
the package's loaded modules (including `from ... import` aliases) with a
wrapper that records a span, and wraps the arithmetic operators of the
scalar class so that they are counted.  `Tracer.uninstall` puts every
original object back.  Nothing in the traced package is edited on disk.

Spans are recorded only inside an operation opened with `Tracer.op`;
outside one, every wrapper calls straight through.  Spans live in
compact in-memory columns (`SpanLog`) and are written out once, at the
end of a run.
"""

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

# Operators of the scalar class that count as one scalar operation each.
SCALAR_OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
    "__mod__", "__rmod__", "__divmod__", "__rdivmod__", "__pow__",
    "__rpow__", "__neg__", "__pos__", "__abs__",
    "__eq__", "__lt__", "__le__", "__gt__", "__ge__",
)

# Dunder methods of traced classes that are traced like public methods.
TRACED_DUNDERS = ("__add__", "__sub__", "__mul__", "__neg__")

ROOT = "bench.op"


class SpanLog:
    """Spans as parallel columns: name id, parent index, op id, start, end."""

    def __init__(self):
        self.names = []  # name id -> span name
        self._ids = {}
        self.name = array("I")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")

    def __len__(self):
        return len(self.name)

    def name_id(self, name):
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
        return sid

    def add(self, name, parent, op, start, end):
        """Append a finished span; returns its index."""
        self.name.append(self.name_id(name))
        self.parent.append(parent)
        self.op.append(op)
        self.start.append(start)
        self.end.append(end)
        return len(self.name) - 1

    def self_times(self):
        """Duration of each span minus the durations of its direct children.

        Children of a span run inside it on the one thread, so their
        durations are exactly the part of its interval they cover.
        """
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        return [d - c for d, c in zip(dur, child)]

    def aggregate(self):
        """Per span name: call count, summed self time, and the count of
        calls per (name, parent name) pair."""
        selfs = self.self_times()
        names = self.names
        calls = Counter()
        self_s = Counter()
        pairs = Counter()
        for i, sid in enumerate(self.name):
            calls[sid] += 1
            self_s[sid] += selfs[i]
            p = self.parent[i]
            pairs[sid, self.name[p] if p >= 0 else -1] += 1
        return {
            "calls": {names[k]: v for k, v in calls.items()},
            "self_s": {names[k]: v for k, v in self_s.items()},
            "pairs": {
                (names[a], names[b] if b >= 0 else None): v
                for (a, b), v in pairs.items()
            },
        }

    def op_self_error(self):
        """Largest gap, over ops, between an op's root-span duration and
        the summed self times of all spans of that op (0 up to rounding)."""
        selfs = self.self_times()
        total = Counter()
        root = {}
        for i, op in enumerate(self.op):
            total[op] += selfs[i]
            if self.parent[i] < 0:
                root[op] = self.end[i] - self.start[i]
        return max((abs(total[op] - d) for op, d in root.items()), default=0.0)

    def count_within(self, names, ancestor):
        """Calls into the span family `names` (from outside the family)
        made anywhere below a span named `ancestor`."""
        ids = {self._ids[n] for n in names if n in self._ids}
        anc = self._ids.get(ancestor)
        if not ids or anc is None:
            return 0
        hits = 0
        for i, sid in enumerate(self.name):
            if sid not in ids:
                continue
            p = self.parent[i]
            if p >= 0 and self.name[p] in ids:
                continue
            while p >= 0 and self.name[p] != anc:
                p = self.parent[p]
            hits += p >= 0
        return hits

    def save(self, path):
        """Write a JSON header line followed by the raw column bytes."""
        cols = ("name", "parent", "op", "start", "end")
        header = {
            "names": self.names,
            "count": len(self),
            "columns": [[c, getattr(self, c).typecode] for c in cols],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for c in cols:
                getattr(self, c).tofile(fh)

    @classmethod
    def load(cls, path):
        log = cls()
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            for name in header["names"]:
                log.name_id(name)
            for col, code in header["columns"]:
                arr = array(code)
                arr.fromfile(fh, header["count"])
                setattr(log, col, arr)
        return log


class Tracer:
    """Wraps the public functions of `package`'s layer modules.

    layers:  module names below `package`; each is one layer.
    classes: layer -> class names whose public methods are traced too.
    hooks:   span name -> (counter name, function of the return value)
             whose result is added to `counts` after each traced call.
    scalar:  dotted path of the scalar class whose operators are counted
             into `counts["q_ops"]`; skipped if that class cannot be patched.
    """

    def __init__(self, package, layers, classes, hooks, scalar):
        self.package = package
        self.layers = tuple(layers)
        self.classes = classes
        self.hooks = hooks
        self.scalar = scalar
        self.log = SpanLog()
        self.counts = Counter()
        self.present = set()  # span names, layer names and "q_ops" found
        self.op_id = -1
        self._stack = []
        self._restore = []

    # -- recording ----------------------------------------------------------

    @contextmanager
    def op(self, op_id):
        """Record everything called inside the block as operation `op_id`."""
        log = self.log
        idx = log.add(ROOT, -1, op_id, 0.0, 0.0)
        self._stack.append(idx)
        self.op_id = op_id
        log.start[idx] = time.perf_counter()
        try:
            yield
        finally:
            log.end[idx] = time.perf_counter()
            self.op_id = -1
            self._stack.pop()

    def _wrap(self, fn, span):
        tracer = self
        log = self.log
        sid = log.name_id(span)
        stack = self._stack
        names, parents, ops = log.name, log.parent, log.op
        starts, ends = log.start, log.end
        clock = time.perf_counter
        hook = self.hooks.get(span)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = tracer.op_id
            if op < 0:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(sid)
            parents.append(stack[-1])
            ops.append(op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                stop = clock()
                stack.pop()
                starts[idx] = start
                ends[idx] = stop
            if hook is not None:
                counts[hook[0]] += hook[1](result)
            return result

        return traced

    def _count(self, fn):
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args):
            if tracer.op_id >= 0:
                counts["q_ops"] += 1
            return fn(*args)

        return counted

    # -- install / uninstall --------------------------------------------------

    def _set(self, owner, attr, value):
        # vars(), not getattr(): a class must get back its classmethod
        # object, not the bound method getattr would return.
        original = vars(owner)[attr]
        setattr(owner, attr, value)
        self._restore.append((owner, attr, original))

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers = {}  # id(original function) -> (original, wrapper)
        for layer in self.layers:
            try:
                mod = importlib.import_module(f"{self.package}.{layer}")
            except ImportError:
                continue
            self.present.add(layer)
            for name, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    span = f"{layer}.{name}"
                    wrappers[id(obj)] = (obj, self._wrap(obj, span))
                    self.present.add(span)
            for cls_name in self.classes.get(layer, ()):
                cls = vars(mod).get(cls_name)
                if inspect.isclass(cls):
                    self._wrap_class(layer, cls)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == self.package
                                   or modname.startswith(self.package + ".")):
                continue
            for name, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._set(mod, name, entry[1])
        self._wrap_scalar()

    def _wrap_class(self, layer, cls):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in TRACED_DUNDERS:
                continue
            span = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, (classmethod, staticmethod)):
                wrapped = type(attr)(self._wrap(attr.__func__, span))
            elif inspect.isfunction(attr):
                wrapped = self._wrap(attr, span)
            else:
                continue
            self._set(cls, name, wrapped)
            self.present.add(span)

    def _wrap_scalar(self):
        modname, _, clsname = self.scalar.rpartition(".")
        try:
            cls = getattr(importlib.import_module(modname), clsname)
        except (ImportError, AttributeError):
            return
        done = []
        try:
            for name in SCALAR_OPERATORS:
                fn = vars(cls).get(name)
                if fn is not None:
                    self._set(cls, name, self._count(fn))
                    done.append(name)
        except TypeError:  # a built-in type: its operators cannot be replaced
            return
        if done:
            self.present.add("q_ops")

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def bindings(self):
        """(owner, attribute) pairs currently replaced by the tracer."""
        return [(owner, attr) for owner, attr, _ in self._restore]
