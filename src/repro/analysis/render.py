"""Pretty-printing for the static verifier.

Three rendering layers, all shared with the rest of the toolchain:

* tiny formatters (:func:`describe_key`, :func:`format_widths`) used by
  every analysis pass to phrase its diagnostics consistently;
* :func:`render_schedule` — the human-readable ``Schedule`` dump behind
  :meth:`Schedule.dump` and the CLI's ``--dump-schedule``, annotating
  every step with its profiling section name and per-dimension halo
  depths;
* :func:`render_report` — the full diagnostic report, with schedule-step
  excerpts and (when a :class:`~repro.codegen.pybackend.PyKernel` is
  attached) the matching line range of the generated kernel source;
* :func:`merge_reports` / :func:`render_merged` — the cross-rank view:
  SPMD analysis produces one report per rank, and on a symmetric
  decomposition most findings are rank-identical — these collapse each
  distinct finding to a single line annotated with the ranks reporting
  it (``[all ranks]`` / ``[ranks 0, 2]``), with the verbatim per-rank
  reports available under ``verbose``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ['describe_key', 'format_widths', 'render_schedule',
           'render_report', 'merge_reports', 'render_merged']


def describe_key(key: Tuple[str, Optional[int]]) -> str:
    """``('u', 1)`` -> ``'u[t+1]'``; ``('m', None)`` -> ``'m'``."""
    name, tshift = key
    if tshift is None:
        return name
    if tshift == 0:
        return '%s[t]' % name
    return '%s[t%+d]' % (name, tshift)


def format_widths(widths: Sequence[Tuple[int, int]],
                  dims: Sequence[Any]) -> str:
    """``((1, 1), (0, 2))`` with dims (x, y) -> ``'(x: 1/1, y: 0/2)'``.

    Left/right depths are separated by a slash; dimensions beyond the
    named grid dimensions (never the case in practice) fall back to
    positional ``d<i>`` names.
    """
    parts = []
    for i, (l, r) in enumerate(widths):
        name = dims[i].name if i < len(dims) else 'd%d' % i
        parts.append('%s: %d/%d' % (name, l, r))
    return '(%s)' % ', '.join(parts)


def _widths_of(req: Any) -> Tuple[Tuple[int, int], ...]:
    return tuple((int(l), int(r)) for l, r in req.widths)


def _describe_exchange(req: Any, dims: Sequence[Any]) -> str:
    return '%s %s' % (describe_key((req.function.name, req.time_shift)),
                      format_widths(_widths_of(req), dims))


def render_schedule(schedule: Any) -> str:
    """The pretty ``Schedule`` dump (one line per step).

    Sections are named as the step record names them for the profiler
    (:func:`~repro.ir.program.step_program`), so a dump can be read
    against a performance summary line by line.
    """
    from ..ir.program import step_program
    dims = schedule.grid.dimensions
    program = step_program(schedule)
    pre_names = [sec['name'] for sec in program['pre']]
    step_names = [sec['name'] for sec in program['loop']]
    lines: List[str] = []
    mode = schedule.mpi_mode or 'off'
    lines.append('Schedule <mpi=%s, %d preamble exchange(s), %d step(s)>'
                 % (mode, len(schedule.preamble_halo), len(schedule.steps)))
    if schedule.scalar_assignments:
        lines.append('  preamble: %d loop-invariant scalar(s): %s'
                     % (len(schedule.scalar_assignments),
                        ', '.join(str(t) for t, _ in
                                  schedule.scalar_assignments)))
    for name, req in zip(pre_names, schedule.preamble_halo):
        lines.append('  preamble: %-12s halo(update)  %s  [hoisted]'
                     % (name, _describe_exchange(req, dims)))
    lines.append('  time loop:')
    for si, (name, step) in enumerate(zip(step_names, schedule.steps)):
        prefix = '    [%2d] %-12s' % (si, name)
        if step.is_halo:
            ex = ', '.join(_describe_exchange(r, dims)
                           for r in step.exchanges)
            lines.append('%s halo(%s)  %s' % (prefix, step.kind, ex))
        elif step.is_compute:
            writes = ', '.join(describe_key(k)
                               for k in sorted(step.cluster.write_keys))
            par = getattr(step, 'parallel', True)
            grow = step.cluster.grow
            lines.append('%s compute(%s%s)  %d eq(s), writes %s%s'
                         % (prefix, step.region,
                            '' if par else ', sequential',
                            len(step.cluster.eqs), writes,
                            '' if grow is None else '  [grown by %s]'
                            % format_widths(tuple(grow), dims)))
        else:
            target = (describe_key(step.field_access.key)
                      if step.field_access is not None
                      else step.op.sparse.name)
            lines.append('%s sparse(%s)  %s -> %s'
                         % (prefix, step.kind, step.op.sparse.name, target))
    return '\n'.join(lines)


def _step_excerpt(schedule: Any, step_index: int) -> List[str]:
    """The schedule-dump line(s) describing one step."""
    if schedule is None:
        return []
    try:
        dump = render_schedule(schedule).splitlines()
    except Exception:
        return []
    marker = '[%2d]' % step_index
    return ['  | ' + ln.strip() for ln in dump if marker in ln]


def _source_excerpt(kernel: Any, step_index: int) -> List[str]:
    """Generated-source lines of one schedule step, if the kernel keeps a
    step -> line-range map (:attr:`PyKernel.step_lines`)."""
    step_lines = getattr(kernel, 'step_lines', None)
    src = getattr(kernel, 'source', None)
    if not step_lines or src is None:
        return []
    rng = step_lines.get(step_index)
    if rng is None:
        return []
    lo, hi = rng
    src_lines = src.splitlines()
    out = []
    for ln in range(lo, min(hi, len(src_lines))):
        out.append('  %4d | %s' % (ln + 1, src_lines[ln]))
        if len(out) >= 8:
            out.append('   ... | (%d more line(s))' % (hi - ln - 1))
            break
    return out


def render_report(report: Any) -> str:
    """The full pretty report of an :class:`AnalysisReport`."""
    lines: List[str] = []
    errors = report.errors
    warnings = report.warnings
    if not report.diagnostics:
        lines.append('analysis: clean (no diagnostics)')
    else:
        lines.append('analysis: %d error(s), %d warning(s)'
                     % (len(errors), len(warnings)))
    for d in report.diagnostics:
        lines.append(d.format())
        if d.step_index is not None:
            lines.extend(_step_excerpt(report.schedule, d.step_index))
            lines.extend(_source_excerpt(report.kernel, d.step_index))
    return '\n'.join(lines)


def merge_reports(reports: Sequence[Any]) -> List[Tuple[Any, List[int]]]:
    """Collapse per-rank reports into ``[(diagnostic, ranks)]``.

    ``reports[rank]`` is rank's :class:`AnalysisReport` (or None for a
    rank with no report).  Two diagnostics merge iff their
    :meth:`~.diagnostics.Diagnostic.identity` tuples — code, message,
    step index, location — are identical; order is first appearance
    scanning ranks in order, so the merged view matches rank 0's
    ordering whenever the decomposition is symmetric.
    """
    order: List[Tuple[Any, List[int]]] = []
    index: Dict[Tuple[Any, ...], List[int]] = {}
    for rank, report in enumerate(reports):
        if report is None:
            continue
        for d in report:
            key = d.identity()
            ranks = index.get(key)
            if ranks is None:
                ranks = index[key] = [rank]
                order.append((d, ranks))
            elif ranks[-1] != rank:
                ranks.append(rank)
    return order


def _format_ranks(ranks: Sequence[int], nranks: int) -> str:
    if nranks > 1 and len(ranks) == nranks:
        return 'all ranks'
    if len(ranks) == 1:
        return 'rank %d' % ranks[0]
    return 'ranks %s' % ', '.join(str(r) for r in ranks)


def render_merged(reports: Sequence[Any], verbose: bool = False) -> str:
    """The cross-rank diagnostic report.

    Deduplicates rank-identical findings into one line each, annotated
    with the reporting ranks; ``verbose`` appends every rank's verbatim
    :func:`render_report` (excerpts included) after the merged summary.
    """
    nranks = len(reports)
    merged = merge_reports(reports)
    errors = sum(1 for d, _ in merged if d.is_error)
    warnings = len(merged) - errors
    lines: List[str] = []
    if not merged:
        lines.append('analysis: clean on %s (no diagnostics)'
                     % _format_ranks(list(range(nranks)), nranks))
    else:
        lines.append('analysis: %d distinct error(s), %d distinct '
                     'warning(s) across %d rank(s)'
                     % (errors, warnings, nranks))
        for d, ranks in merged:
            lines.append('%s  [%s]' % (d.format(),
                                       _format_ranks(ranks, nranks)))
    if verbose:
        for rank, report in enumerate(reports):
            if report is None:
                continue
            lines.append('')
            lines.append('--- rank %d ---' % rank)
            lines.append(render_report(report))
    return '\n'.join(lines)
