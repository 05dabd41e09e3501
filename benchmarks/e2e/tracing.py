"""Benchmark-side tracing: spans measured *from outside* the program.

The traced run installs timing proxies around each layer's public entry
points (module functions, class methods, the exchanger objects and the
compiled-step table of one built operator).  Nothing under ``src/``
knows about it; spans inside the program are ROADMAP item 5.

A span is ``[name, layer, rank, start, end, parent]`` where ``parent``
is the enclosing span on the same thread (or None).  Spans live in one
in-memory list and are serialised once, when the launch ends.  A span's
*self time* is its duration minus the part its direct children cover.
"""

from __future__ import annotations

import re
import threading
from contextlib import contextmanager
from time import perf_counter

__all__ = ['Tracer', 'install_build_proxies', 'install_apply_proxies',
           'install_service_proxies', 'apply_breakdown', 'build_breakdown']

NAME, LAYER, RANK, START, END, PARENT = range(6)
_TRAILING_INT = re.compile(r'(\d+)$')


class Tracer:
    """Span recorder with one open-span stack per thread."""

    def __init__(self):
        self.spans = []
        #: proxies pass straight through while False (the traced run
        #: alternates traced and untraced applies to price the tracing)
        self.enabled = True
        self._tls = threading.local()

    def _state(self):
        tls = self._tls
        try:
            return tls.stack, tls.rank
        except AttributeError:
            # rank threads are named 'sim-mpi-rank-N', service workers
            # 'survey-worker-N'; anything else (main thread) is lane 0
            m = _TRAILING_INT.search(threading.current_thread().name)
            tls.stack, tls.rank = [], int(m.group(1)) if m else 0
            return tls.stack, tls.rank

    def open(self, name, layer):
        stack, rank = self._state()
        rec = [name, layer, rank, perf_counter(), None,
               stack[-1] if stack else None]
        self.spans.append(rec)
        stack.append(rec)
        return rec

    def close(self, rec):
        rec[END] = perf_counter()
        self._tls.stack.pop()

    @contextmanager
    def span(self, name, layer):
        rec = self.open(name, layer)
        try:
            yield rec
        finally:
            self.close(rec)

    def wrap(self, fn, name, layer):
        """A timing proxy around ``fn`` (plain function or bound method)."""
        def proxy(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = self.open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(rec)
        proxy.__wrapped__ = fn
        return proxy

    def wrap_attr(self, owner, attr, name, layer):
        """Replace ``owner.attr`` (module function or class method) by a
        proxy.  Idempotent, so several launches' installs never stack."""
        fn = getattr(owner, attr)
        if not hasattr(fn, '__wrapped__'):
            setattr(owner, attr, self.wrap(fn, name, layer))

    # -- serialisation -------------------------------------------------------

    def export(self, spans=None, launch_id=None):
        """Spans as JSON-ready dicts (parents by index into the list)."""
        spans = self.spans if spans is None else spans
        ids = {id(rec): i for i, rec in enumerate(spans)}
        return [{'name': r[NAME], 'layer': r[LAYER], 'rank': r[RANK],
                 'start': r[START], 'end': r[END],
                 'parent': ids.get(id(r[PARENT])),
                 'launch_id': launch_id}
                for r in spans if r[END] is not None]


# -- where the proxies go ----------------------------------------------------

def install_build_proxies(tracer):
    """Set-up path: every stage of ``Operator(...)`` the issue names."""
    import repro.analysis
    import repro.analysis.certificate
    import repro.buildcache
    import repro.dsl.operator
    import repro.models
    from repro.dsl.operator import Operator
    from repro.buildcache import BuildCache
    from repro.codegen import cgen, jit
    from repro.codegen.artifact import KernelArtifact
    w = tracer.wrap_attr
    # service.spec.kernel_setup resolves these at call time
    for kernel in ('acoustic', 'elastic', 'tti', 'viscoelastic'):
        w(repro.models, '%s_setup' % kernel, 'models.setup', 'models')
    w(Operator, '__init__', 'operator.build', 'operator')
    w(repro.buildcache, 'fingerprint_build', 'buildcache.fingerprint',
      'buildcache')
    w(BuildCache, 'lookup', 'buildcache.lookup', 'buildcache')
    w(BuildCache, 'store', 'buildcache.store', 'buildcache')
    w(KernelArtifact, 'rehydrate', 'buildcache.rehydrate', 'buildcache')
    # operator.py binds these two names at import time
    w(repro.dsl.operator, 'build_schedule', 'ir.build_schedule', 'ir')
    w(repro.dsl.operator, 'generate_kernel', 'codegen.pydriver', 'codegen')
    w(cgen, 'generate_c_steps', 'codegen.cgen', 'codegen')
    w(jit, 'compile_shared', 'codegen.cc', 'codegen')
    w(jit, 'load_steps', 'codegen.load', 'codegen')
    w(repro.analysis.certificate, 'build_certificate',
      'analysis.certificate', 'analysis')
    w(repro.analysis, 'verify_schedule', 'analysis.verify', 'analysis')


def install_apply_proxies(tracer, op):
    """Run path of one built operator: the apply root, its exchangers,
    its compiled steps, the transport and the checkpointer."""
    from repro.dsl.operator import Operator
    from repro.mpi.sim import RecvRequest, SimComm
    from repro.resilience.checkpoint import Checkpointer
    w = tracer.wrap_attr
    w(Operator, 'apply', 'operator.apply', 'operator')
    for meth in ('isend', 'irecv', 'send', 'recv', 'allreduce', 'barrier'):
        w(SimComm, meth, 'sim.%s' % meth, 'sim')
    w(RecvRequest, 'wait', 'sim.wait', 'sim')
    w(Checkpointer, 'save', 'resilience.checkpoint', 'resilience')
    for ex in op.kernel.exchangers.values():
        for meth in ('exchange', 'begin', 'finish'):
            if hasattr(ex, meth):
                w(ex, meth, 'halo.%s' % meth, 'halo')
    table = op.kernel.func.__globals__.get('__C')
    for fname in list(table or ()):
        w_fn = table[fname]
        if not hasattr(w_fn, '__wrapped__'):
            table[fname] = tracer.wrap(w_fn, 'compute.%s' % fname, 'compute')


def install_service_proxies(tracer):
    """The survey service's per-shot stages (plus the apply root)."""
    from repro.dsl.operator import Operator
    from repro.service import ArrayStore, OperatorPool, PooledSolver
    w = tracer.wrap_attr
    w(OperatorPool, 'checkout', 'service.checkout', 'service')
    w(OperatorPool, 'checkin', 'service.checkin', 'service')
    w(PooledSolver, 'reset', 'service.reset', 'service')
    w(ArrayStore, 'put', 'service.store_put', 'service')
    w(Operator, 'apply', 'operator.apply', 'operator')


# -- reading a trace ---------------------------------------------------------

def _children(spans):
    kids = {}
    for rec in spans:
        if rec[PARENT] is not None:
            kids.setdefault(id(rec[PARENT]), []).append(rec)
    return kids


def _dur(rec):
    return rec[END] - rec[START]


def _descendants(rec, kids):
    out, todo = [], [rec]
    while todo:
        for child in kids.get(id(todo.pop()), ()):
            out.append(child)
            todo.append(child)
    return out


def apply_breakdown(root, kids, summary, backend):
    """Attribute 100 % of one rank's ``operator.apply`` span to layers.

    ``summary`` is the ``PerformanceSummary`` the same apply returned:
    its section rows are the only witnesses of the two things no outside
    call boundary reaches — inline NumPy compute and the generated
    sparse code.  Returns a flat dict of seconds and counts; the layer
    seconds (``driver.self_s`` among them) sum to ``operator.apply_s``.
    """
    total = _dur(root)
    inside = _descendants(root, kids)
    self_time = {}
    cat = {'halo.update_s': 0.0, 'halo.wait_s': 0.0, 'sim.send_s': 0.0,
           'sim.recv_wait_s': 0.0, 'sim.allreduce_s': 0.0,
           'sim.barrier_s': 0.0}
    ncompute = ncheckpoints = 0
    direct = 0.0
    allreduce_under_root = 0.0
    for rec in inside:
        mine = kids.get(id(rec), ())
        d = _dur(rec)
        self_time[rec[LAYER]] = self_time.get(rec[LAYER], 0.0) + d - sum(
            _dur(c) for c in mine)
        parent = rec[PARENT]
        if parent is root:
            direct += d
            if rec[NAME] == 'sim.allreduce':
                allreduce_under_root += d
        if rec[LAYER] == 'halo':
            if rec[NAME] == 'halo.finish':
                cat['halo.wait_s'] += d
            else:
                cat['halo.update_s'] += d - sum(
                    _dur(c) for c in mine if c[LAYER] == 'halo')
        elif rec[LAYER] == 'sim' and parent[LAYER] != 'sim':
            # the outermost transport call names the category; what a
            # collective does inside is the collective's time
            key = {'sim.allreduce': 'sim.allreduce_s',
                   'sim.barrier': 'sim.barrier_s',
                   'sim.send': 'sim.send_s',
                   'sim.isend': 'sim.send_s'}.get(rec[NAME],
                                                  'sim.recv_wait_s')
            cat[key] += d
        elif rec[LAYER] == 'compute':
            ncompute += 1
        elif rec[LAYER] == 'resilience':
            ncheckpoints += 1

    prof = {'compute': [0.0, 0], 'sparse': [0.0, 0]}
    for entry in summary.values():
        if entry.kind in prof:
            prof[entry.kind][0] += entry.time
            prof[entry.kind][1] += entry.ncalls
    if backend == 'c':
        compute_s, compute_calls = self_time.get('compute', 0.0), ncompute
    else:
        compute_s, compute_calls = prof['compute']
    # the receiver allreduce runs inside the timed sparse section and is
    # a direct child of the root: it is transport time, not sparse time
    sparse_s = max(prof['sparse'][0] - allreduce_under_root, 0.0)
    root_self = total - direct
    inline = sparse_s + (compute_s if backend != 'c' else 0.0)
    out = {
        'operator.apply_s': total,
        'driver.self_s': root_self - inline,
        'compute.s': compute_s,
        'compute.calls': compute_calls,
        'halo.self_s': self_time.get('halo', 0.0),
        'sim.s': self_time.get('sim', 0.0),
        'sparse.s': sparse_s,
        'resilience.checkpoint_s': self_time.get('resilience', 0.0),
        'resilience.checkpoints': ncheckpoints,
    }
    out.update(cat)
    return out


#: layer seconds of :func:`apply_breakdown` that partition the root span
APPLY_PARTITION = ('driver.self_s', 'compute.s', 'halo.self_s', 'sim.s',
                   'sparse.s', 'resilience.checkpoint_s')

_BUILD_NAMES = {
    'models.setup': 'models.setup_s',
    'models.equations': 'models.setup_s',
    'ir.build_schedule': 'ir.build_schedule_s',
    'analysis.certificate': 'analysis.certificate_s',
    'analysis.verify': 'analysis.verify_s',
    'codegen.pydriver': 'codegen.pydriver_s',
    'codegen.cgen': 'codegen.cgen_s',
    'codegen.cc': 'codegen.cc_s',
    'codegen.load': 'codegen.load_s',
    'buildcache.fingerprint': 'buildcache.fingerprint_s',
    'buildcache.store': 'buildcache.store_s',
    'buildcache.lookup': 'buildcache.lookup_disk_s',
    'buildcache.rehydrate': 'buildcache.rehydrate_s',
    'operator.build': 'operator.build_s',
}


def build_breakdown(spans, rank=0):
    """Set-up stage seconds of one rank (``None``: all lanes summed)
    from a launch's spans.

    Stage times are *self* times (a stage minus the stages nested in it:
    ``codegen.pydriver_s`` excludes cgen / cc / load), except
    ``operator.build_s``, the whole constructor, whose self time is
    reported separately as ``operator.build_unattributed_s``.
    """
    kids = _children(spans)
    out = dict.fromkeys(_BUILD_NAMES.values(), 0.0)
    out['operator.build_unattributed_s'] = 0.0
    for rec in spans:
        key = _BUILD_NAMES.get(rec[NAME])
        if key is None or rec[END] is None or rank not in (None, rec[RANK]):
            continue
        own = _dur(rec) - sum(_dur(c) for c in kids.get(id(rec), ()))
        if rec[NAME] == 'operator.build':
            out[key] += _dur(rec)
            out['operator.build_unattributed_s'] += own
        else:
            out[key] += own
    return out
