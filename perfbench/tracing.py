"""Span tracing around the public entry points of each ``repro`` layer.

The tracer lives entirely in the benchmark: it replaces a function or
method *where its caller looks it up* (``Operator`` binds
``build_schedule``/``generate_kernel`` into its own module, recovery
imports ``generate_kernel`` from ``repro.codegen.pybackend`` at call
time, compiled steps are reached through each kernel's ``__C`` table)
with a wrapper that records a span, and puts the original back on
:meth:`Tracer.uninstall`.  Nothing in ``src`` changes.

A span is ``(id, name, start, end, parent id, thread name, value)``.
Spans stay in memory; :meth:`Tracer.write_chrome` writes them once, as
Chrome trace-event JSON, when the benchmark ends.  A span's self time
is its duration minus the time its child spans cover.
"""

import bisect
import functools
import itertools
import json
import threading
import time

perf = time.perf_counter


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []
        self._tables = []
        self._index = None
        self.installed = False

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, 'stack', None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, value=None, when=None, outermost=False):
        """``fn`` recording a span ``name`` per call.

        ``value(args, kwargs, result)`` attaches a number to the span;
        ``when(args, kwargs)`` false skips recording for that call;
        ``outermost`` skips calls made inside an open span of the same
        name (an exchange implemented as begin + finish counts once).
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if when is not None and not when(args, kwargs):
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if outermost and any(s[1] == name for s in stack):
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else 0
            rec = [next(tracer._ids), name, perf(), 0.0, parent,
                   threading.current_thread().name, None]
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf()
                stack.pop()
                tracer.spans.append(rec)
            if value is not None:
                rec[6] = value(args, kwargs, result)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def _replace(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Patch every layer boundary (see :func:`_boundaries`)."""
        if self.installed:
            return
        for owner, attr, name, opts in _boundaries():
            self._replace(owner, attr,
                          self.wrap(name, vars(owner)[attr], **opts))
        # not a span: wrap each kernel's compiled steps on its first call
        from repro.codegen.pybackend import PyKernel
        call = vars(PyKernel)['__call__']
        tracer = self

        @functools.wraps(call)
        def hooked(kernel, *args, **kwargs):
            tracer.instrument_steps(kernel)
            return call(kernel, *args, **kwargs)

        self._replace(PyKernel, '__call__', hooked)
        self.installed = True

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        for table, originals in self._tables:
            table.update(originals)
        self._tables = []
        self.installed = False

    def instrument_steps(self, kernel):
        """Wrap the compiled step functions of ``kernel`` (its ``__C``
        table, looked up by the generated driver on every call)."""
        table = kernel.func.__globals__.get('__C')
        if not table or any(t is table for t, _ in self._tables):
            return
        originals = dict(table)
        for cname, fn in originals.items():
            table[cname] = self.wrap('codegen.step', fn)
        self._tables.append((table, originals))

    # -- analysis -------------------------------------------------------------

    def _by_name(self):
        if self._index is None or self._index[0] != len(self.spans):
            index = {}
            for s in self.spans:
                index.setdefault(s[1], []).append(s)
            self._index = (len(self.spans), index)
        return self._index[1]

    def select(self, name, windows):
        """Finished spans called ``name`` that start inside a window."""
        starts = sorted(windows)
        lows = [a for a, _ in starts]
        out = []
        for s in self._by_name().get(name, ()):
            i = bisect.bisect_right(lows, s[2]) - 1
            if i >= 0 and s[2] <= starts[i][1]:
                out.append(s)
        return out

    def total(self, name, windows):
        return sum(s[3] - s[2] for s in self.select(name, windows))

    def self_total(self, name, windows):
        """Summed self time (duration minus child coverage)."""
        chosen = self.select(name, windows)
        covered = {s[0]: 0.0 for s in chosen}
        for s in self.spans:
            if s[4] in covered:
                covered[s[4]] += s[3] - s[2]
        return sum(s[3] - s[2] - covered[s[0]] for s in chosen)

    def total_under(self, name, ancestor, windows):
        """Summed duration of ``name`` spans that run inside an
        ``ancestor`` span."""
        by_id = {s[0]: s for s in self.spans}
        out = 0.0
        for s in self.select(name, windows):
            parent = by_id.get(s[4])
            while parent is not None and parent[1] != ancestor:
                parent = by_id.get(parent[4])
            if parent is not None:
                out += s[3] - s[2]
        return out

    def values(self, name, windows):
        return [s[6] for s in self.select(name, windows)
                if s[6] is not None]

    def write_chrome(self, path, origin):
        """All spans as Chrome trace-event JSON (``chrome://tracing``)."""
        tids = {}
        events = []
        for sid, name, t0, t1, parent, thread, value in self.spans:
            tid = tids.setdefault(thread, len(tids))
            args = {'id': sid, 'parent': parent}
            if value is not None:
                args['value'] = value
            events.append({'name': name, 'cat': name.split('.')[0],
                           'ph': 'X', 'pid': 0, 'tid': tid,
                           'ts': (t0 - origin) * 1e6,
                           'dur': (t1 - t0) * 1e6, 'args': args})
        for thread, tid in tids.items():
            events.append({'name': 'thread_name', 'ph': 'M', 'pid': 0,
                           'tid': tid, 'args': {'name': thread}})
        with open(path, 'w', encoding='utf-8') as f:
            json.dump({'traceEvents': events}, f)


def _boundaries():
    """(owner, attribute, span name, wrap options) of every layer
    boundary.  Imported lazily: the tracer module itself must not import
    ``repro`` (the import is measured)."""
    from repro.analysis import certificate
    from repro.buildcache.cache import BuildCache
    from repro.codegen import artifact, jit, pybackend
    from repro.dsl import operator
    from repro.mpi import halo, sim
    from repro.resilience import checkpoint, controller, elastic, recovery
    from repro.service import pool, store

    def c_source_bytes(args, kwargs, kernel):
        return len(kernel.c_source or '')

    def tier(args, kwargs, result):
        return result[1] or 'miss'

    def returned(args, kwargs, result):
        return result

    def second_arg_bytes(args, kwargs, result):
        return int(args[2].nbytes)

    def blocking(args, kwargs):
        return kwargs.get('block', args[5] if len(args) > 5 else True)

    out = [
        (operator.Operator, '__init__', 'dsl.operator.build', {}),
        (operator.Operator, 'apply', 'dsl.operator.apply', {}),
        (operator, 'build_schedule', 'ir.build_schedule', {}),
        (operator, 'generate_kernel', 'codegen.generate_kernel',
         {'value': c_source_bytes}),
        (pybackend, 'generate_kernel', 'codegen.generate_kernel',
         {'value': c_source_bytes}),
        (jit, 'compile_shared', 'codegen.jit.compile', {}),
        (artifact.KernelArtifact, 'rehydrate', 'codegen.rehydrate', {}),
        (certificate, 'build_certificate', 'analysis.certificate', {}),
        (BuildCache, 'lookup', 'buildcache.lookup', {'value': tier}),
        (BuildCache, 'store', 'buildcache.store',
         {'value': second_arg_bytes}),
        (sim.SimComm, 'allreduce', 'mpi.sim.allreduce', {}),
        (sim.SimWorld, 'collect', 'mpi.sim.collect', {'when': blocking}),
        (checkpoint.Checkpointer, 'save', 'resilience.checkpoint.save',
         {'value': returned}),
        (checkpoint.Checkpointer, 'restore',
         'resilience.checkpoint.restore', {}),
        (recovery, 'repartition_restore', 'resilience.checkpoint.restore',
         {}),
        (controller.ResilienceController, 'recover', 'resilience.recovery',
         {}),
        (elastic, 'rejoin', 'resilience.elastic.rejoin', {}),
        (pool.OperatorPool, 'checkout', 'service.pool.checkout', {}),
        (pool.OperatorPool, 'checkin', 'service.pool.checkin', {}),
        (store.ArrayStore, 'put', 'service.store.put',
         {'value': second_arg_bytes}),
    ]
    for cls in (halo.BasicExchanger, halo.DiagonalExchanger,
                halo.FullExchanger):
        for attr in ('exchange', 'begin', 'finish'):
            if attr in vars(cls):
                out.append((cls, attr, 'mpi.halo.exchange',
                            {'outermost': True}))
    return out
