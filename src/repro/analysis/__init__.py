"""Static verification and lint for generated MPI stencil schedules.

The compiler derives halo exchanges from data-dependence analysis and
then optimizes them aggressively (merges, "data not dirty" drops,
preamble hoisting, begin/wait splitting) — and the same analysis that
builds the :class:`~repro.ir.clusters.HaloRequirement`\\ s also emits the
:class:`~repro.ir.schedule.HaloStep`\\ s, so a dependence or scheduling
bug would silently produce wrong answers at scale.  This package checks
the emitted schedule against the clusters' access maps
(:class:`~repro.ir.access.AccessMap`, the one table of offsets the
compiler also reads) with algorithms of its own: a simulation of one
loop iteration, a dependence check, and an interval proof.

Passes (each a pure function ``Schedule -> [Diagnostic]``):

* :mod:`.halo_coverage` — missing/undersized/stale/redundant exchanges
  and full-mode overlap violations (``REPRO-E101..E104``, ``W201/W202``);
* :mod:`.races`         — loop-carried read/write and write/write races
  in parallel compute steps (``REPRO-E111/E112``);
* :mod:`.lint`          — unused temporaries and dead writes
  (``W211/W212``);
* :mod:`.dataflow`      — the interval-analysis in-bounds proof over
  every generated access (``REPRO-E123``), which also proves every
  scratch-array read inside the region its writer computed earlier in
  the timestep (``REPRO-E105``); and the minimal-halo inference.

The package also produces the static
:class:`~.certificate.CommCertificate` — the predicted per-neighbor
message counts and byte volumes the ``reconcile`` sanitizer mode checks
against the runtime commlog ledger after every ``apply``.

Every pass but the in-bounds proof depends only on the *structure* (the
equations, the comm mode and which dimensions are split), so a launch
runs them once, with the one lowering (:data:`STRUCTURE_PASSES`).  The
in-bounds proof and the certificate depend on a rank's geometry and
run per binding, on every rank, over the rank-agnostic step record
(:func:`~repro.ir.program.step_program`: its compute regions and
access offsets, its exchanger table; :func:`~.dataflow.prove_inbounds`,
:func:`~.certificate.bind_certificate`).

Entry points: :func:`analyze_schedule` collects every diagnostic into an
:class:`AnalysisReport`; :func:`verify_schedule` is the compile-time gate
(``opt='verify'`` / ``REPRO_OPT=verify``) raising :class:`AnalysisError`
on any *error*-severity finding.  The dynamic complement — the
poisoned-halo :mod:`.sanitizer` — catches at runtime what static
analysis cannot see (actual transport behavior).
"""

from __future__ import annotations

from typing import Any, Optional

from .certificate import (CertificateEntry, CommCertificate,
                          ReconcileError, bind_certificate,
                          build_certificate)
from .dataflow import check_inbounds, infer_min_widths, prove_inbounds
from .diagnostics import (CODES, ERROR, WARNING, AnalysisError,
                          AnalysisReport, Diagnostic)
from .halo_coverage import check_halo_coverage
from .lint import check_dead_code
from .races import check_races
from .render import (describe_key, format_widths, merge_reports,
                     render_merged, render_report, render_schedule)
from .sanitizer import HaloPoisonError, HaloSanitizer, poison_boxes

__all__ = [
    'ANALYSIS_VERSION',
    'AnalysisError', 'AnalysisReport', 'Diagnostic', 'CODES', 'ERROR',
    'WARNING',
    'check_halo_coverage', 'check_races', 'check_dead_code',
    'check_inbounds', 'infer_min_widths', 'prove_inbounds',
    'CertificateEntry', 'CommCertificate', 'ReconcileError',
    'bind_certificate', 'build_certificate',
    'describe_key', 'format_widths', 'merge_reports', 'render_merged',
    'render_report', 'render_schedule',
    'HaloPoisonError', 'HaloSanitizer', 'poison_boxes',
    'PASSES', 'STRUCTURE_PASSES', 'analyze_schedule', 'verify_schedule',
]

#: Version of the verifier semantics, folded into the build-cache
#: fingerprint: cached artifacts embed analysis diagnostics and
#: communication certificates, so any change to what the passes compute
#: must invalidate them (bump on every behavioral change to this
#: package).  2: dataflow engine (W203/E122/E123) + certificates.
#: 3: cached reports hold the structure passes only (E123 and the
#: certificate are bound per rank); W203 counts waste per grid cut.
#: 4: scratch arrays and grown regions: footprints reach from a grown
#: region's edge, scratch reads need no exchange but a computed region
#: (E105); a function the loop writes is exchanged in the loop.
#: 5: one access map; E121, E122 and W203 retired.
ANALYSIS_VERSION = 5

#: the passes that see only the structure, in execution (and report)
#: order: run once per build, whichever rank lowers it
STRUCTURE_PASSES = (check_halo_coverage, check_races, check_dead_code)
#: the whole pipeline on one rank: the structure passes, then the
#: in-bounds proof of that rank's geometry
PASSES = STRUCTURE_PASSES + (check_inbounds,)


def analyze_schedule(schedule: Any, kernel: Any = None,
                     profiler: Any = None,
                     passes: Any = PASSES) -> AnalysisReport:
    """Run the static ``passes`` (default: all) over ``schedule``.

    ``kernel`` (optional, a compiled ``PyKernel``) enriches the report
    with generated-source excerpts; ``profiler`` (optional) records the
    analysis wall time as a build-time entry.
    """
    from time import perf_counter
    tic = perf_counter()
    report = AnalysisReport(schedule=schedule, kernel=kernel)
    for check in passes:
        report.extend(check(schedule))
    if profiler is not None:
        try:
            profiler.record_build_time('analysis', perf_counter() - tic)
        except AttributeError:
            pass
    return report


def verify_schedule(schedule: Any, kernel: Any = None,
                    profiler: Any = None,
                    passes: Any = PASSES) -> AnalysisReport:
    """The compile-time gate: analyze and raise on error diagnostics.

    Warnings do not fail the build — they are kept in the returned
    report (``Operator.analysis``) for inspection.
    """
    report = analyze_schedule(schedule, kernel=kernel, profiler=profiler,
                              passes=passes)
    if report.errors:
        raise AnalysisError(report)
    return report
