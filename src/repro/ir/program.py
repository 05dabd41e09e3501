"""The step program: what one timestep does, recorded once.

:func:`step_program` walks a :class:`~repro.ir.schedule.Schedule` once
and returns a JSON-able record — the paper's timestep IET with its
``HaloSpot`` nodes, flattened to data.  Every
reader prints or binds from it and from nothing else that decides step
order, section names, exchangers or sanitizer hooks:

* the NumPy driver template (:func:`~repro.codegen.pybackend.lower_kernel`);
* the compiled step's op program (:class:`~repro.codegen.cstep.StepProgram`,
  through :func:`~repro.codegen.pybackend.bind_plan`);
* the profiler's section registry and the sanitizer's write map
  (:meth:`~repro.codegen.artifact.KernelArtifact.rehydrate`);
* the communication certificate
  (:func:`~repro.analysis.certificate.bind_certificate`);
* the C listing (:func:`~repro.codegen.cgen.generate_c`) and the
  schedule dump (:func:`~repro.analysis.render.render_schedule`).

The record::

    {'mode': <comm mode, None without communication>,
     'itemsize': <bytes per element of every message>,
     'timed': <section timers compiled in>,
     'sanitizer': <poisoned-halo hooks compiled in>,
     'exchangers': [{'key', 'function', 'widths', 'tag_base',
                     'scope': 'preamble' | 'loop'}, ...],
     'pre': [<section>, ...],      # once, before the time loop
     'loop': [<section>, ...]}     # every timestep, in order

    <section> = {'name': <profiler name, None for a sanitizer fill>,
                 'kind': 'halo' | 'wait' | 'compute' | 'sparse' | 'poison',
                 'step': <schedule step index, None before the loop>,
                 'flops_per_point', 'traffic_per_point',
                 'ops': [...],
                 'writes': [[function, time shift], ...]}

Ops::

    ['update' | 'send' | 'recv', key, function, time shift]   halo spot
    ['call', sid]                  compute step ``sid``
    ['call', sid, mode]            sparse step ``sid``: 0 inject,
                                   1 interpolate into the sparse data,
                                   2 into the pending block of rows
    ['poison', 'all' | 'time']     sanitizer fill

``writes`` are the buffers the sanitizer scans after the section.
Section names follow the Devito convention: ``haloupdate<n>`` for
blocking updates and ``begin`` halves (hoisted preamble exchanges
first), ``halowait<n>`` for the ``wait`` half sharing its ``begin``'s
ordinal, ``section<n>`` for cluster computations (CORE and REMAINDER
are distinct sections) and ``sparse<n>`` for sparse operations.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

__all__ = ['step_program']

Record = Dict[str, Any]

#: halo step kind -> its op
_HALO_OPS = {'update': 'update', 'begin': 'send', 'wait': 'recv'}


def _new_section(name: Optional[str], kind: str, ops: List[List[Any]],
                 step: Optional[int] = None, flops_per_point: int = 0,
                 traffic_per_point: int = 0,
                 writes: Optional[List[List[Any]]] = None) -> Record:
    return {'name': name, 'kind': kind, 'step': step,
            'flops_per_point': flops_per_point,
            'traffic_per_point': traffic_per_point,
            'ops': ops, 'writes': writes or []}


def step_program(schedule: Any, instrument: bool = False,
                 sanitizer: bool = False) -> Record:
    """The record of one timestep of ``schedule`` (module docstring).

    ``instrument`` compiles section timers in; ``sanitizer`` the
    poisoned-halo hooks, which only a distributed schedule with a comm
    mode has.
    """
    grid = schedule.grid
    itemsize = int(grid.dtype.itemsize)
    san = bool(sanitizer and schedule.mpi_mode)
    scanned = {f.name for f in schedule.functions if not f.is_Scratch}
    deferred = _deferred_interpolations(schedule) \
        if grid.distributor.is_parallel else {}
    exchangers: List[Record] = []
    keys: Set[str] = set()

    def exchanger(key: str, req: Any, scope: str) -> None:
        if key not in keys:
            keys.add(key)
            exchangers.append({
                'key': key, 'function': req.function.name,
                'widths': [[int(l), int(r)] for l, r in req.widths],
                'tag_base': 64 * len(exchangers), 'scope': scope})

    def writes(wkeys: Any) -> List[List[Any]]:
        return [[name, shift] for name, shift in sorted(wkeys)
                if name in scanned] if san else []

    pre: List[Record] = []
    loop: List[Record] = []
    if san:
        pre.append(_new_section(None, 'poison', [['poison', 'all']]))
        loop.append(_new_section(None, 'poison', [['poison', 'time']]))
    nhalo = nsec = nsparse = 0
    for req in schedule.preamble_halo:
        key = 'pre_%s' % req.function.name
        exchanger(key, req, 'preamble')
        pre.append(_new_section('haloupdate%d' % nhalo, 'halo', [
            ['update', key, req.function.name, None]]))
        nhalo += 1

    wait_names: Dict[int, str] = {}
    for sid, step in enumerate(schedule.steps):
        if step.is_halo:
            if step.kind == 'wait':
                name = wait_names.get(step.uid, 'halowait%d' % nhalo)
            else:
                name = 'haloupdate%d' % nhalo
                wait_names[step.uid] = 'halowait%d' % nhalo
                nhalo += 1
            ops: List[List[Any]] = []
            for req in step.exchanges:
                key = 'h%d_%s' % (step.uid, req.function.name)
                if step.kind != 'wait':
                    exchanger(key, req, 'loop')
                ops.append([_HALO_OPS[step.kind], key, req.function.name,
                            req.time_shift])
            loop.append(_new_section(
                name, 'wait' if step.kind == 'wait' else 'halo', ops,
                step=sid))
        elif step.is_compute:
            cluster = step.cluster
            loop.append(_new_section(
                'section%d' % nsec, 'compute', [['call', sid]], step=sid,
                flops_per_point=cluster.flops_per_point(),
                traffic_per_point=cluster.traffic_per_point(itemsize),
                writes=writes(cluster.write_keys)))
            nsec += 1
        else:
            mode = 0 if step.kind == 'inject' else 2 if sid in deferred \
                else 1
            target = step.field_access
            loop.append(_new_section(
                'sparse%d' % nsparse, 'sparse', [['call', sid, mode]],
                step=sid, writes=writes(
                    [] if target is None else [target.key])))
            nsparse += 1
    return {'mode': schedule.mpi_mode, 'itemsize': itemsize,
            'timed': bool(instrument), 'sanitizer': san,
            'exchangers': exchangers, 'pre': pre, 'loop': loop}


def _deferred_interpolations(schedule: Any) -> Dict[int, Any]:
    """``{sid: step}`` of the interpolations whose cross-rank reduction
    may wait for the end of a block of steps: all of them, except those
    into a sparse function that a sparse step of the same kernel also
    reads (that read needs the reduced value of the current step)."""
    from ..symbolics import unique_nodes
    sparse = [(sid, step) for sid, step in enumerate(schedule.steps)
              if step.is_sparse]
    read = {node.name for _, step in sparse
            for node in unique_nodes(step.expr)
            if getattr(node, 'is_SparseFunction', False)}
    return {sid: step for sid, step in sparse
            if step.kind == 'interpolate'
            and step.op.sparse.name not in read}
