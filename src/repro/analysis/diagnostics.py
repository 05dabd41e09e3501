"""The diagnostics engine of the static verifier.

Every finding of an analysis pass is a :class:`Diagnostic` with a
*stable* code (``REPRO-Exxx`` for errors, ``REPRO-Wxxx`` for warnings),
a human-readable message, and — when available — a location: the index
of the offending :class:`~repro.ir.schedule.Schedule` step, a pretty
``Schedule`` excerpt, and the matching line range of the generated
kernel source.  Codes are the contract: tests and CI match on them, so
they must never be renumbered.

Diagnostic code table
---------------------

======================  ========  =====================================
code                    severity  meaning
======================  ========  =====================================
``REPRO-E101``          error     missing halo exchange: an off-rank
                                  read is not covered by any preceding
                                  exchange in the same timestep
``REPRO-E102``          error     undersized halo exchange: an exchange
                                  covers the read's buffer but at a
                                  smaller depth than the stencil needs
``REPRO-E103``          error     stale halo: the buffer was exchanged,
                                  then written, then read again without
                                  a refreshing exchange (an exchange
                                  dropped while the data was dirty)
``REPRO-E104``          error     overlap violation (full mode): a read
                                  needs data still in flight (before
                                  the matching ``wait``), a ``wait``
                                  has no matching ``begin``, or the
                                  CORE region is not shrunk enough to
                                  avoid the halo being exchanged
``REPRO-E105``          error     scratch array read outside the
                                  region its writer computed earlier
                                  in the timestep (a cell of a
                                  compiler temporary nobody wrote)
``REPRO-E111``          error     loop-carried read/write race in a
                                  compute step marked parallel
``REPRO-E112``          error     loop-carried write/write race in a
                                  compute step marked parallel
``REPRO-E123``          error     cannot prove access in-bounds: the
                                  interval analysis over loop bounds
                                  and affine offsets fails to prove an
                                  array access (compute, sparse, or
                                  sanitizer poison write) within the
                                  allocated extent
``REPRO-W201``          warning   redundant halo exchange: the data was
                                  not dirty, or nothing reads it before
                                  it is dirtied again
``REPRO-W202``          warning   over-wide halo exchange: exchanged
                                  depth exceeds every subsequent read
``REPRO-W211``          warning   unused temporary (CSE/hoisted scalar
                                  never referenced)
``REPRO-W212``          warning   dead write: overwritten by a later
                                  equation before any read
======================  ========  =====================================

Retired codes, never to be reused for another finding:

======================  =============================================
code                    why it went
======================  =============================================
``REPRO-E121``          out-of-bounds offset; ``REPRO-E123`` proves
                        the same bound over every region's boxes
``REPRO-E122``          compared two copies of one footprint loop;
                        the access map is the only copy
``REPRO-W203``          exchange wider than any read; an exchange
                        that wide is ``REPRO-W201``/``W202`` too
======================  =============================================
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = ['Diagnostic', 'AnalysisReport', 'AnalysisError', 'CODES',
           'ERROR', 'WARNING']

ERROR = 'error'
WARNING = 'warning'

#: code -> (severity, short title)
CODES: Dict[str, Tuple[str, str]] = {
    'REPRO-E101': (ERROR, 'missing halo exchange'),
    'REPRO-E102': (ERROR, 'undersized halo exchange'),
    'REPRO-E103': (ERROR, 'stale halo (exchange dropped while dirty)'),
    'REPRO-E104': (ERROR, 'communication/computation overlap violation'),
    'REPRO-E105': (ERROR, 'scratch array read outside its computed region'),
    'REPRO-E111': (ERROR, 'loop-carried read/write race'),
    'REPRO-E112': (ERROR, 'loop-carried write/write race'),
    'REPRO-E123': (ERROR, 'cannot prove access in-bounds'),
    'REPRO-W201': (WARNING, 'redundant halo exchange'),
    'REPRO-W202': (WARNING, 'over-wide halo exchange'),
    'REPRO-W211': (WARNING, 'unused temporary'),
    'REPRO-W212': (WARNING, 'dead write'),
}


class Diagnostic:
    """One finding of a static-analysis pass."""

    __slots__ = ('code', 'severity', 'title', 'message', 'step_index',
                 'where')

    def __init__(self, code: str, message: str,
                 step_index: Optional[int] = None,
                 where: Optional[str] = None) -> None:
        if code not in CODES:
            raise ValueError("unknown diagnostic code %r (register it in "
                             "repro.analysis.diagnostics.CODES)" % (code,))
        self.code = code
        self.severity, self.title = CODES[code]
        self.message = message
        #: index into ``schedule.steps`` (None: preamble / whole-schedule)
        self.step_index = step_index
        #: free-form location hint ('preamble', 'cluster 2', ...)
        self.where = where

    @property
    def is_error(self) -> bool:
        return self.severity == ERROR

    def to_payload(self) -> Dict[str, Any]:
        """The stable machine-readable form (``repro analyze --format
        json``).  Keys are part of the CLI contract: add, never rename."""
        return {'code': self.code, 'severity': self.severity,
                'title': self.title, 'message': self.message,
                'step_index': self.step_index, 'where': self.where}

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> 'Diagnostic':
        return cls(str(payload['code']), str(payload['message']),
                   step_index=payload.get('step_index'),
                   where=payload.get('where'))

    def identity(self) -> Tuple[str, str, Optional[int], Optional[str]]:
        """The cross-rank dedup key: two ranks reporting this identical
        tuple are reporting the *same* finding."""
        return (self.code, self.message, self.step_index, self.where)

    def format(self) -> str:
        loc = ''
        if self.step_index is not None:
            loc = ' [step %d]' % self.step_index
        elif self.where:
            loc = ' [%s]' % self.where
        return '%s %s%s: %s' % (self.code, self.severity, loc, self.message)

    def __repr__(self) -> str:
        return 'Diagnostic(%s)' % self.format()


class AnalysisReport:
    """The ordered collection of diagnostics of one analysis run."""

    def __init__(self, diagnostics: Optional[List[Diagnostic]] = None,
                 schedule: Any = None, kernel: Any = None) -> None:
        self.diagnostics: List[Diagnostic] = list(diagnostics or [])
        #: the analyzed Schedule (for rendering excerpts)
        self.schedule = schedule
        #: the generated PyKernel, if available (for source excerpts)
        self.kernel = kernel

    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def extend(self, diagnostics: List[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.is_error]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if not d.is_error]

    @property
    def codes(self) -> List[str]:
        return [d.code for d in self.diagnostics]

    def by_code(self, code: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __bool__(self) -> bool:
        """Truthy when *clean* (no diagnostics) — ``assert op.analyze()``."""
        return not self.diagnostics

    def to_payload(self) -> Dict[str, Any]:
        """Machine-readable report summary (stable JSON schema)."""
        return {'clean': not self.diagnostics,
                'errors': len(self.errors),
                'warnings': len(self.warnings),
                'diagnostics': [d.to_payload() for d in self.diagnostics]}

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> 'AnalysisReport':
        return cls(diagnostics=[Diagnostic.from_payload(p)
                                for p in payload['diagnostics']])

    def render(self) -> str:
        """The full pretty report (codes, locations, source excerpts)."""
        from .render import render_report
        return render_report(self)

    def __repr__(self) -> str:
        return ('AnalysisReport(%d errors, %d warnings)'
                % (len(self.errors), len(self.warnings)))


class AnalysisError(RuntimeError):
    """Raised by the compile-time verify gate on error diagnostics."""

    def __init__(self, report: AnalysisReport) -> None:
        self.report = report
        errors = report.errors
        head = ('static verification failed: %d error(s), %d warning(s)'
                % (len(errors), len(report.warnings)))
        body = '\n'.join('  ' + d.format() for d in report.diagnostics)
        super().__init__(head + '\n' + body)
