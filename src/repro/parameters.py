"""The global, validating ``configuration`` object: the one declaration
of every setting.

Mirrors Devito's ``DEVITO_*`` switchboard: a mapping with a fixed set of
keys, each declared once as a :class:`Parameter` carrying its default,
its validation (unknown keys and invalid values raise ``ValueError``
listing the accepted options), its environment variable and its
command-line flag.  Every key is seeded from ``REPRO_<KEY>`` --
``REPRO_MPI``, ``REPRO_CHECKPOINT_EVERY``, ``REPRO_SERVICE_DIR``, ... --
except the build-cache mode, which is ``REPRO_CACHE``.  The ``repro.cli``
verbs derive their flags (spelling, type, choices, help) from the same
specs, and every other layer reads values through two accessors instead
of re-declaring a default or a check::

    configuration.resolve('checkpoint_keep', value)  # None: configured
    with configuration.override(recovery='restart', checkpoint_every=5):
        op.apply(...)

Item assignment keeps working exactly as with the original plain dict::

    configuration['mpi'] = 'diagonal'
    configuration['profiling'] = 'advanced'
"""

from __future__ import annotations

import os
from collections.abc import MutableMapping
from contextlib import contextmanager

__all__ = ['Configuration', 'Parameter', 'configuration']

_TRUE = {'1', 'true', 'yes', 'on'}
_FALSE = {'0', 'false', 'no', 'off'}


def _as_bool(value):
    """a boolean: 1/0, true/false, yes/no, on/off"""
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)) and value in (0, 1):
        return bool(value)
    if isinstance(value, str):
        low = value.strip().lower()
        if low in _TRUE:
            return True
        if low in _FALSE:
            return False
    raise ValueError("expected a boolean-like value, got %r" % (value,))


def _as_path(value):
    """a directory path"""
    return str(value)


class Parameter:
    """Spec of one configuration key.

    ``env`` defaults to ``REPRO_<NAME>`` and ``flag`` (the spelling of a
    CLI verb that exposes the key) to ``--name-with-dashes``;
    ``metavar`` names the flag's argument in ``--help`` and ``bare`` is
    the value of the flag given without one (None: it needs one).
    """

    def __init__(self, name, default, accepted=None, converter=None,
                 description='', env=None, flag=None, metavar=None,
                 bare=None):
        self.name = name
        self.default = default
        self.accepted = tuple(accepted) if accepted is not None else None
        self.converter = converter
        self.description = description
        self.env = env or 'REPRO_' + name.upper()
        self.flag = flag or '--' + name.replace('_', '-')
        self.metavar = metavar or ('PATH' if name.endswith('_dir') else 'N')
        self.bare = bare

    def validate(self, value):
        if self.converter is not None:
            try:
                value = self.converter(value)
            except ValueError as err:
                raise ValueError(
                    "invalid value %r for configuration[%r]: %s"
                    % (value, self.name, err)) from None
        if self.accepted is not None and value not in self.accepted:
            raise ValueError(
                "invalid value %r for configuration[%r]; accepted values: "
                "%s" % (value, self.name,
                        ', '.join(repr(a) for a in self.accepted)))
        return value


class Configuration(MutableMapping):
    """A validating mapping of global switches.

    Parameters
    ----------
    environ : mapping, optional
        Environment to seed from (defaults to ``os.environ``); passing a
        custom dict makes the seeding testable.
    """

    def __init__(self, environ=None):
        environ = os.environ if environ is None else environ
        from .profiling import PROFILING_LEVELS
        nonneg, positive = self._convert_nonneg_int, self._convert_positive_int
        self._registry = {p.name: p for p in (
            Parameter('mpi', 'basic', converter=self._convert_mpi,
                      accepted=('basic', 'diag', 'diagonal', 'diag2',
                                'full', False),
                      description='default DMP pattern for distributed '
                                  'grids'),
            Parameter('opt', True, converter=self._convert_opt,
                      description='flop-reducing pipeline (CSE/'
                                  'factorization/hoisting); the special '
                                  'value \'verify\' keeps the pipeline on '
                                  'and additionally gates every Operator '
                                  'build behind the static verifier '
                                  '(repro.analysis)'),
            Parameter('sanitizer', False, converter=self._convert_sanitizer,
                      flag='--sanitize', bare='poison',
                      metavar='{poison,reconcile}',
                      description='runtime sanitizer mode: boolean-like or '
                                  '\'poison\' enables the poisoned-halo '
                                  'sanitizer (kernels NaN-poison neighbor-'
                                  'owned ghost cells each iteration and '
                                  'scan written domains); \'reconcile\' '
                                  'checks the static communication '
                                  'certificate against the commlog send '
                                  'ledger after every apply'),
            Parameter('backend', 'numpy', accepted=('numpy', 'c'),
                      converter=self._convert_backend,
                      description='execution backend of compute steps: '
                                  'numpy (vectorized whole-array '
                                  'expressions) or c (compile generated C '
                                  'with the system toolchain and call '
                                  'cache-blocked loop nests via ctypes; '
                                  'degrades to numpy with a '
                                  'ToolchainWarning when no compiler is '
                                  'found)'),
            Parameter('profiling', 'basic', accepted=PROFILING_LEVELS,
                      description='instrumentation level of generated '
                                  'kernels'),
            Parameter('faults', False, converter=self._convert_faults,
                      flag='--inject-faults', metavar='SPEC',
                      description='deterministic fault-injection plan for '
                                  'the simulated transport (spec string, '
                                  'e.g. "seed=1,drop=0.05,kill=1@10"; '
                                  'False = off)'),
            Parameter('commlog', True, converter=_as_bool,
                      description='communication-correctness validator '
                                  '(message matching, tag hygiene, '
                                  'deadlock-cycle detection)'),
            Parameter('comm_timeout', 60.0,
                      converter=self._convert_positive_float,
                      description='per-receive timeout budget in seconds '
                                  '(spans all retries)'),
            Parameter('comm_retries', 3, converter=nonneg,
                      description='bounded redelivery attempts for fault-'
                                  'dropped messages per blocked receive'),
            Parameter('recovery', 'abort', flag='--recover',
                      accepted=('abort', 'restart', 'shrink', 'grow'),
                      description='what Operator.apply does when a rank '
                                  'dies: abort (propagate), restart (same-'
                                  'world restore from the newest valid '
                                  'checkpoint), shrink (drop the dead '
                                  'rank, redistribute onto the survivors), '
                                  'or grow (shrink, then repartition back '
                                  'onto the full rank set once the healed '
                                  'rank rejoins)'),
            Parameter('checkpoint_every', 0, converter=nonneg,
                      description='checkpoint cadence in timesteps (0: '
                                  'only the baseline snapshot recovery '
                                  'policies need)'),
            Parameter('checkpoint_dir', '.repro_checkpoints', converter=_as_path,
                      description='checkpoint directory shared by all '
                                  'ranks'),
            Parameter('checkpoint_keep', 2, converter=positive,
                      description='number of most-recent checkpoints '
                                  'retained'),
            Parameter('max_recoveries', 2, converter=nonneg,
                      description='upper bound on recovery attempts per '
                                  'apply'),
            Parameter('health_check_every', 0, converter=nonneg,
                      description='NaN/Inf/blowup scan cadence in '
                                  'timesteps (0 disables)'),
            Parameter('health_max', 1e12,
                      converter=self._convert_positive_float,
                      description='amplitude bound for the blowup health '
                                  'check'),
            Parameter('repartition', 'off', flag='--repartition-policy',
                      accepted=('off', 'grow', 'balance'),
                      description='elastic adaptation policy of '
                                  'Operator.apply: off, grow (extend onto '
                                  'announced reserve ranks), or balance '
                                  '(weighted re-split of the current '
                                  'world)'),
            Parameter('repartition_every', 0, converter=nonneg,
                      description='cadence of the elastic adaptation check '
                                  'in timesteps (0: repartition once, at '
                                  'the earliest legal step)'),
            Parameter('min_steps_between_repartitions', 4,
                      converter=positive,
                      description='hysteresis: minimum timesteps between '
                                  'consecutive repartitions (bounds '
                                  'oscillation; also delays the grow-back '
                                  'after a shrink)'),
            Parameter('max_repartitions', 4, converter=nonneg,
                      description='upper bound on cadence-driven '
                                  'repartitions per apply'),
            Parameter('repartition_weights', None,
                      converter=self._convert_weights, metavar='W,...',
                      description='per-rank split weights for '
                                  'repartitioning (comma-separated floats, '
                                  'e.g. "2,1,1"; None: measure capacities '
                                  'from the profiler)'),
            Parameter('build_cache', 'memory', env='REPRO_CACHE',
                      flag='--cache',
                      accepted=('on', 'memory', 'disk', 'off'),
                      converter=self._convert_cache,
                      description='content-addressed operator build cache: '
                                  'on (memory + disk tiers), memory (in-'
                                  'process only), disk, or off'),
            Parameter('cache_dir', '.repro_cache', converter=_as_path,
                      description='directory of the on-disk build-cache '
                                  'tier'),
            Parameter('service_dir', '.repro_service', converter=_as_path,
                      flag='--dir',
                      description='root directory of the survey service '
                                  '(job queue, records, array store, batch '
                                  'report)'),
            Parameter('service_workers', 2, converter=positive,
                      flag='--workers',
                      description='bounded concurrency of the survey '
                                  'scheduler (jobs in flight at once)'),
            Parameter('service_retries', 1, converter=nonneg,
                      flag='--retries',
                      description='default per-job retry budget for '
                                  'transport/fault failures in the survey '
                                  'scheduler'),
        )}
        self._values = {key: spec.validate(environ.get(spec.env,
                                                       spec.default))
                        for key, spec in self._registry.items()}
        # pointing REPRO_CACHE_DIR somewhere implies wanting the disk
        # tier: escalate the default mode (an explicit REPRO_CACHE wins)
        if 'REPRO_CACHE_DIR' in environ and 'REPRO_CACHE' not in environ:
            self['build_cache'] = 'on'

    @staticmethod
    def _convert_mpi(value):
        # DEVITO_MPI-style: 0/false disables, 1/true means 'basic'
        if isinstance(value, str) and value.strip().lower() in (_TRUE
                                                                | _FALSE):
            value = _as_bool(value)
        if value is True:
            return 'basic'
        if value is False or value is None:
            return False
        return value

    @staticmethod
    def _convert_opt(value):
        """a boolean (the flop-reducing rewrites: scratch arrays for
        subexpressions met at several translations, CSE, factorization,
        invariant hoisting), or 'verify' (optimize and gate every build
        behind the static verifier)"""
        if isinstance(value, str) and value.strip().lower() == 'verify':
            return 'verify'
        return _as_bool(value)

    @staticmethod
    def _convert_sanitizer(value):
        """a boolean (true: 'poison'), 'poison' or 'reconcile'"""
        if isinstance(value, str):
            low = value.strip().lower()
            if low == 'reconcile':
                return 'reconcile'
            if low == 'poison':
                return True
        try:
            return _as_bool(value)
        except ValueError:
            # not a boolean switch: name the modes, not just bools
            raise ValueError(
                "expected 'poison', 'reconcile' or a boolean-like "
                "value, got %r" % (value,)) from None

    @staticmethod
    def _convert_backend(value):
        # 'py' is accepted as an alias of 'numpy' (it is the token the
        # build fingerprint has always used for the NumPy backend)
        if isinstance(value, str):
            low = value.strip().lower()
            return 'numpy' if low == 'py' else low
        if value is False or value is None:
            return 'numpy'
        return value

    @staticmethod
    def _convert_cache(value):
        # boolean-like shorthand: True -> 'on', False -> 'off'
        if isinstance(value, str) and value.strip().lower() in (_TRUE
                                                                | _FALSE):
            value = _as_bool(value)
        if value is True:
            return 'on'
        if value is False or value is None:
            return 'off'
        if isinstance(value, str):
            return value.strip().lower()
        return value

    @staticmethod
    def _convert_faults(value):
        """a FaultPlan spec such as 'seed=1,drop=0.05,kill=1@10', or
        false/empty for none"""
        if value is None or value is False:
            return False
        from .mpi.faults import FaultPlan
        if isinstance(value, FaultPlan):
            return value
        if isinstance(value, str):
            low = value.strip().lower()
            if low in _FALSE or low == '':
                return False
            if low in _TRUE:
                raise ValueError(
                    "fault injection needs a spec, e.g. "
                    "'seed=1,drop=0.05,kill=1@10' (see "
                    "repro.mpi.faults.FaultPlan.parse)")
            return FaultPlan.parse(value)
        raise ValueError("expected a FaultPlan, a spec string or False, "
                         "got %r" % (value,))

    @staticmethod
    def _convert_weights(value):
        """comma-separated non-negative floats, not all zero (none:
        measured)"""
        if value is None or value is False:
            return None
        if isinstance(value, str):
            stripped = value.strip()
            if not stripped or stripped.lower() in {'none'} | _FALSE:
                return None
            value = stripped.split(',')
        weights = tuple(float(w) for w in value)
        if any(w < 0 for w in weights):
            raise ValueError("weights must be non-negative")
        if sum(weights) <= 0:
            raise ValueError("weights must not all be zero")
        return weights

    @staticmethod
    def _convert_positive_float(value):
        """a positive number"""
        value = float(value)
        if value <= 0:
            raise ValueError("expected a positive number")
        return value

    @staticmethod
    def _convert_nonneg_int(value):
        """a non-negative integer"""
        value = int(value)
        if value < 0:
            raise ValueError("expected a non-negative integer")
        return value

    @staticmethod
    def _convert_positive_int(value):
        """a positive integer"""
        value = int(value)
        if value <= 0:
            raise ValueError("expected a positive integer")
        return value

    # -- registry ---------------------------------------------------------------

    def parameter(self, key):
        """The :class:`Parameter` declaring ``key``."""
        spec = self._registry.get(key)
        if spec is None:
            raise self._unknown(key)
        return spec

    def accepted(self, key):
        """Accepted values of ``key`` (None = any after conversion)."""
        return self.parameter(key).accepted

    def _unknown(self, key):
        return ValueError(
            "unknown configuration key %r; accepted keys: %s"
            % (key, ', '.join(sorted(self._registry))))

    # -- the two accessors ------------------------------------------------------

    def resolve(self, key, value=None):
        """The configured value of ``key`` when ``value`` is None, else
        ``value`` validated exactly as ``configuration[key] = value``
        would validate it (same conversion, same ``ValueError``)."""
        if value is None:
            return self[key]
        return self.parameter(key).validate(value)

    @contextmanager
    def override(self, **values):
        """Set ``values`` for the duration of a ``with`` block.

        Every value is validated before any is applied; on exit --
        exceptions included -- the previous values are restored.
        """
        new = {key: self.parameter(key).validate(value)
               for key, value in values.items()}
        saved = {key: self._values[key] for key in new}
        self._values.update(new)
        try:
            yield self
        finally:
            self._values.update(saved)

    # -- mutable mapping protocol -------------------------------------------------

    def __setitem__(self, key, value):
        self._values[key] = self.parameter(key).validate(value)

    def __getitem__(self, key):
        try:
            return self._values[key]
        except KeyError:
            raise self._unknown(key) from None

    def __delitem__(self, key):
        """Reset ``key`` to its registered default."""
        spec = self.parameter(key)
        self._values[key] = spec.validate(spec.default)

    def __iter__(self):
        return iter(self._values)

    def __len__(self):
        return len(self._values)

    def __repr__(self):
        body = ', '.join('%r: %r' % (k, v)
                         for k, v in sorted(self._values.items()))
        return 'Configuration({%s})' % body


#: the singleton; importable as ``from repro import configuration``
configuration = Configuration()
