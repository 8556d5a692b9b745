"""Spans around the calls that cross from one ``scc`` module into another.

Standard library only.  :class:`Tracer` finds, at run time, every
function that one ``scc`` module imports from another and replaces that
module's reference with a wrapper that records a span; it also wraps
``SparseCode`` construction.  Nothing under ``src/`` changes: the
wrappers live in the importing modules' namespaces and are removed by
:meth:`Tracer.uninstall`.

A span is ``[name, start, end, parent, thread]``.  A span started on a
worker thread with nothing open on that thread takes as parent the
innermost span open on the main thread (the call that fans work out to
the pool).  Spans stay in memory until :meth:`Tracer.dump`.

Self time is split with a sweep over span boundaries: at each instant
the time goes to the open spans that have no open child, shared equally
when worker threads overlap, and to the root when nothing is open.  So
self times, the root's included, sum to the traced wall time exactly.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
import types
from collections import defaultdict

ROOT = "root"
_MODULE_PREFIX = "scc."


def _short(module_name):
    return module_name[len(_MODULE_PREFIX):] if module_name.startswith(_MODULE_PREFIX) else module_name


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._main_stack = []
        self._local = threading.local()
        self._patched = []  # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if main else []
            self._local.stack = stack
        return stack

    def wrap(self, fn, name, hook=None):
        """Return ``fn`` wrapped to record a span called ``name``.

        ``hook(args, kwargs, result)`` runs after the span has ended.
        """
        spans = self.spans
        main_stack = self._main_stack
        stack_of = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            if stack:
                parent = stack[-1]
            elif stack is not main_stack and main_stack:
                parent = main_stack[-1]
            else:
                parent = None
            rec = [name, 0.0, 0.0, parent, threading.get_ident()]
            spans.append(rec)
            stack.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around the ``with`` block, on the current thread."""
        stack = self._stack()
        rec = [name, 0.0, 0.0, stack[-1] if stack else None, threading.get_ident()]
        self.spans.append(rec)
        stack.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            stack.pop()

    # -- installing --------------------------------------------------------

    def install(self, modules, sparse_code_cls, hooks):
        """Wrap every cross-module function reference in ``modules``.

        ``hooks`` maps a span name (``module.function``) to a hook.
        Returns the sorted list of wrapped span names.
        """
        names = set()
        for mod in modules:
            here = mod.__name__
            for attr, obj in list(vars(mod).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith(_MODULE_PREFIX) or home == here:
                    continue
                name = f"{_short(home)}.{obj.__name__}"
                self._patch(mod, attr, self.wrap(obj, name, hooks.get(name)))
                names.add(name)
        init = sparse_code_cls.__init__
        name = f"{_short(sparse_code_cls.__module__)}.{sparse_code_cls.__name__}"
        self._patch(sparse_code_cls, "__init__", self.wrap(init, name, hooks.get(name)))
        names.add(name)
        return sorted(names)

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self, root):
        """Return ``{id(span): self seconds}`` for ``root`` and its descendants."""
        # Ties: starts before ends, parents start first and end last.
        depth = {}
        events = []
        for rec in self.spans:
            d = 0 if rec[3] is None else depth[id(rec[3])] + 1
            depth[id(rec)] = d
            events.append((rec[1], 0, d, 1, rec))
            events.append((rec[2], 1, -d, 0, rec))
        events.sort(key=lambda e: e[:3])
        open_children = defaultdict(int)
        leaves = {}
        active = set()
        own = defaultdict(float)
        prev = root[1]
        for t, _, _, is_start, rec in events:
            if leaves and t > prev:
                share = (t - prev) / len(leaves)
                for key in leaves:
                    own[key] += share
            prev = t
            key = id(rec)
            parent = rec[3]
            pkey = id(parent) if parent is not None else None
            if is_start:
                active.add(key)
                leaves[key] = rec
                if pkey in active:
                    open_children[pkey] += 1
                    leaves.pop(pkey, None)
            else:
                active.discard(key)
                leaves.pop(key, None)
                if pkey in active:
                    open_children[pkey] -= 1
                    if open_children[pkey] == 0:
                        leaves[pkey] = parent
        return own

    def summary(self, root):
        """Per-span-name calls, inclusive and self seconds, and per-module self seconds."""
        own = self.self_times(root)
        by_name = defaultdict(lambda: [0, 0.0, 0.0])
        by_module = defaultdict(float)
        for rec in self.spans:
            entry = by_name[rec[0]]
            entry[0] += 1
            entry[1] += rec[2] - rec[1]
            entry[2] += own[id(rec)]
            by_module[rec[0].split(".", 1)[0]] += own[id(rec)]
        wall = root[2] - root[1]
        total = sum(by_module.values())
        if abs(total - wall) > 1e-6 * max(wall, 1e-9):
            raise RuntimeError(f"self times sum to {total} s, traced wall is {wall} s")
        return dict(by_name), dict(by_module), wall

    def dump(self, path):
        """Write the spans as JSON lines: id, name, start, end, parent, thread, run."""
        ids = {id(rec): i for i, rec in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, rec in enumerate(self.spans):
                parent = ids.get(id(rec[3])) if rec[3] is not None else None
                fh.write(json.dumps({"id": i, "name": rec[0], "start": rec[1], "end": rec[2],
                                     "parent": parent, "thread": rec[4], "run": self.run_id}))
                fh.write("\n")
