"""The C toolchain bridge: compile generated C and load it in-process.

This is the machinery behind ``backend='c'``: discover a working C
compiler (honoring ``$CC`` first, exactly so CI can mask the toolchain
with ``CC=/nonexistent`` to prove the fallback path), compile the
translation units of one set of equations into a shared object — once
per process, whichever rank thread gets there first — ``dlopen`` it
with :mod:`ctypes` and bind its one entry point for the driver,
``repro_step(time, nrows, binding)`` — one timestep of compute, halo
exchange and sparse operations (:mod:`repro.codegen.cruntime`).

Design points:

* **ctypes over cffi** — ctypes is stdlib (no extra dependency inside
  the generated-code path) and releases the GIL for the duration of a
  compiled step, so thread-per-rank SPMD runs and service workers
  overlap compute for real.  cffi availability is still reported by
  ``repro doctor`` for the curious.
* **Strict IEEE flags** — ``-ffp-contract=off`` and no fast-math, so a
  compiled step performs the same IEEE single/double operations as the
  vectorized NumPy backend and the two can agree bitwise.
* **Objects are addressed by content** — an object's file name is a
  digest of its source *and* of what else decides its bytes: compiler
  path and version, the flags actually used, and (under
  ``-march=native``) a CPU signature.  Equal keys mean interchangeable
  objects, so ranks, repartitions and the disk cache tier share them,
  and a cache directory shared between unlike hosts never serves one
  host's ``-march=native`` code to another.
* **As many compiler processes as CPUs** — every compiler and linker
  process of the process (all builds, rank threads and service
  workers) takes a slot of one semaphore sized to the CPUs this
  process may run on, so a cold build's units use every core and
  concurrent builds interleave their units instead of oversubscribing.
* **Graceful fallback** — :func:`resolve_backend` demotes ``'c'`` to
  ``'numpy'`` with a visible :class:`ToolchainWarning` when no compiler
  exists; nothing in the pipeline hard-requires a toolchain.
"""

from __future__ import annotations

import atexit
import collections
import ctypes
import functools
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import threading
import warnings

__all__ = ['JITError', 'ToolchainWarning', 'find_compiler',
           'compiler_version', 'cffi_available', 'resolve_backend',
           'compile_shared', 'compile_count', 'object_names',
           'key_material', 'load_steps', 'toolchain_report']

#: compilers probed (in order) when ``$CC`` is not set
_DEFAULT_COMPILERS = ('cc', 'gcc', 'clang')

#: flags shared by every kernel compile; -ffp-contract=off keeps FMA
#: from fusing a*b+c (NumPy performs the rounding step, so must we);
#: -fvisibility=hidden exports only what the source marks as exported
CFLAGS = ('-O3', '-fPIC', '-shared', '-ffp-contract=off', '-fno-builtin',
          '-fvisibility=hidden')

#: best-effort tuning flag: tried first, dropped for a compiler that
#: rejects it (see :func:`_flag_sets`)
_NATIVE = '-march=native'


class JITError(RuntimeError):
    """The C toolchain failed (missing compiler, compile error, bad
    shared object)."""


class ToolchainWarning(UserWarning):
    """Emitted when ``backend='c'`` silently degrades to NumPy."""


def _which(cmd):
    # an absolute/relative $CC must exist as given; bare names resolve
    # through PATH
    if os.path.sep in cmd:
        return cmd if os.access(cmd, os.X_OK) else None
    return shutil.which(cmd)


def find_compiler(env=None):
    """Path of a usable C compiler, or None.

    ``$CC`` wins when set — including when it points nowhere, which is
    deliberate: exporting ``CC=/nonexistent`` is the supported way to
    mask the toolchain (the CI fallback leg relies on it).
    """
    env = os.environ if env is None else env
    cc = env.get('CC')
    if cc is not None:
        cc = cc.strip()
        return _which(cc) if cc else None
    for cand in _DEFAULT_COMPILERS:
        path = _which(cand)
        if path is not None:
            return path
    return None


@functools.lru_cache(maxsize=None)
def compiler_version(cc):
    """First line of ``cc --version`` (or None on any failure)."""
    if not cc:
        return None
    try:
        out = subprocess.run([cc, '--version'], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0 or not out.stdout:
        return None
    return out.stdout.splitlines()[0].strip()


def cffi_available():
    """Whether cffi is importable (informational; ctypes is used)."""
    try:
        import cffi  # noqa: F401
        return True
    except ImportError:
        return False


def resolve_backend(requested, env=None, warn=True):
    """Map a requested backend to the effective one.

    ``'c'`` stays ``'c'`` only when a compiler exists; otherwise the
    build degrades to ``'numpy'`` with a :class:`ToolchainWarning`.
    The *effective* backend is what joins the build fingerprint — a
    toolchain-less host must never rehydrate a compiled artifact.
    """
    if requested in (None, False, 'numpy', 'py'):
        return 'numpy'
    if requested != 'c':
        raise ValueError("unknown backend %r; accepted: 'numpy', 'c'"
                         % (requested,))
    if find_compiler(env=env) is not None:
        return 'c'
    if warn:
        warnings.warn(
            "backend='c' requested but no C toolchain was found "
            "(checked $CC, then cc/gcc/clang on PATH); falling back to "
            "the NumPy backend. Run 'repro doctor' for details.",
            ToolchainWarning, stacklevel=3)
    return 'numpy'


@functools.lru_cache(maxsize=None)
def cpu_signature():
    """Digest of this host's CPU model and feature flags — what
    ``-march=native`` code generation depends on."""
    ident = [platform.machine()]
    try:
        with open('/proc/cpuinfo', encoding='ascii', errors='replace') as f:
            for line in f:
                if not line.strip():
                    break  # end of the first processor's block
                if line.startswith(('model name', 'flags', 'Features',
                                    'CPU implementer', 'CPU part')):
                    ident.append(line.strip())
    except OSError:
        ident.append(platform.processor())
    return hashlib.blake2b('\n'.join(ident).encode('utf-8'),
                           digest_size=8).hexdigest()


def _ncpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


#: one slot per compiler or linker process that may run at once
_slots = threading.BoundedSemaphore(_ncpus())


def _flag_sets(cc):
    """Flag sets to compile with, preferred first."""
    if cc in _store.no_native:
        return [CFLAGS]
    return [CFLAGS + (_NATIVE,), CFLAGS]


def key_material(cc, flags):
    """What an object's key folds in besides its source (``repro
    doctor`` prints it).  A portable object is good for any CPU of the
    architecture; a ``-march=native`` one only for this CPU."""
    return {'compiler': cc,
            'compiler_version': compiler_version(cc) or '',
            'flags': ' '.join(flags),
            'cpu': cpu_signature() if _NATIVE in flags
            else platform.machine()}


def _object_name(cc, flags, source, pattern):
    h = hashlib.blake2b(digest_size=16)
    for part in (*key_material(cc, flags).values(), source):
        h.update(part.encode('utf-8') + b'\0')
    return pattern % h.hexdigest()


def object_names(source, cc=None):
    """File names this host publishes ``source``'s object under, one
    per flag set of :func:`_flag_sets` (none without a compiler).  A
    cached object under any other name was built by another toolchain
    or for another CPU."""
    if cc is None:
        cc = find_compiler()
    return [_object_name(cc, flags, source, 'k_%s.so')
            for flags in (_flag_sets(cc) if cc is not None else ())]


class _ObjectStore:
    """The process's compiled objects: a scratch directory (removed at
    exit) of content-named ``.so`` files and runtime objects, a lock
    per name so that of the threads asking for one object exactly one
    compiles it, a count of the objects actually linked and of the
    units compiled per kind (``kernel``, ``step``, ``runtime``), and
    the compilers found to reject ``-march=native``."""

    def __init__(self):
        self._guard = threading.Lock()
        self._locks = {}
        self.workdir = None
        self.compiles = 0
        self.units = collections.Counter()
        self.no_native = set()

    def directory(self):
        with self._guard:
            if self.workdir is None or not os.path.isdir(self.workdir):
                self.workdir = tempfile.mkdtemp(prefix='repro-jit-')
                atexit.register(self._remove, self.workdir, os.getpid())
            return self.workdir

    @staticmethod
    def _remove(workdir, pid):
        if os.getpid() == pid:  # not from a forked child's exit
            shutil.rmtree(workdir, ignore_errors=True)

    def lock(self, name):
        with self._guard:
            return self._locks.setdefault(name, threading.Lock())

    def compiled(self, unit=None):
        with self._guard:
            if unit is None:
                self.compiles += 1
            else:
                self.units[unit] += 1


_store = _ObjectStore()


def compile_count():
    """Shared objects compiled and linked in this process."""
    return _store.compiles


def compile_shared(source, cc=None):
    """Compile C ``source`` into a shared object; returns its path.

    The object lives in the process's scratch directory under its
    content name (:func:`object_names`): asking again for the same
    source — another rank thread, a repartitioned operator, a pooled
    service instance — finds it, and threads asking at once wait for
    the one that compiles.  Every file is content-named and the
    compiler runs inside the scratch directory, so no path reaches the
    object (a source file name is in its symbol table) and equal names
    give equal bytes.

    A source of the compiled step (:func:`~repro.codegen.cgen.
    generate_c_steps`) is several translation units (:mod:`.cruntime`),
    compiled at once and linked into one object: each kernel at the
    flags of :func:`_flag_sets`, the step unit (thunks, sparse
    functions, function table) at ``-O0``, and the runtime at ``-O0``
    into an object of its own, which every later build of the process
    with the same element type and flags links again.  If any unit
    fails under ``-march=native``, all of them are retried portable.
    """
    from .cruntime import STEP_MARK
    if cc is None:
        cc = find_compiler()
    if cc is None:
        raise JITError("no C compiler available (set $CC or install cc/"
                       "gcc/clang)")
    workdir = _store.directory()
    for flags, so_name in zip(_flag_sets(cc), object_names(source, cc)):
        so_path = os.path.join(workdir, so_name)
        with _store.lock(so_name):
            if os.path.exists(so_path):
                return so_path
            stem = so_name[:-3]
            out = ['-o', so_name + '.tmp', '-lm']
            if STEP_MARK not in source:
                run = _run(cc, [*flags, _write(
                    workdir, stem + '.c', source), *out], workdir)
            else:
                objs, failed = _compile_units(cc, flags, workdir, stem,
                                              source)
                run = failed or _run(cc, ['-shared', *objs, *out], workdir)
            if run.returncode == 0:
                os.replace(so_path + '.tmp', so_path)
                _store.compiled()
                return so_path
        if _NATIVE not in flags:
            break
        _store.no_native.add(cc)  # retry portable, and stop asking
    raise JITError("C compilation failed (%s):\n%s"
                   % (' '.join(run.args), run.stderr.strip()))


def _compile_units(cc, flags, workdir, stem, source):
    """Compile the units of a step source at once.  Returns the object
    files to link and the first failed compiler run (or None)."""
    from .cruntime import KERNEL_MARK, RUNTIME_MARK, STEP_MARK
    kflags = [f for f in flags if f != '-shared'] + ['-c']
    sflags = ['-O0' if f == '-O3' else f for f in kflags]
    kernels, _, step = source.partition(STEP_MARK)
    head, *bodies = kernels.split(KERNEL_MARK)
    glue, _, runtime = step.partition(RUNTIME_MARK)
    units = [('kernel', kflags, '%s_k%d' % (stem, i), head + KERNEL_MARK + b)
             for i, b in enumerate(bodies)]
    units.append(('step', sflags, stem + '_step', glue))
    jobs = [functools.partial(_compile_unit, cc, workdir, *unit)
            for unit in units]
    jobs.append(functools.partial(_runtime_object, cc, workdir, sflags,
                                  runtime))
    done = _concurrently(jobs)
    failed = [run for _, run in done if run is not None and run.returncode]
    return [obj for obj, _ in done], failed[0] if failed else None


def _compile_unit(cc, workdir, kind, flags, stem, text, obj=None):
    """Compile one unit ``<stem>.c`` into ``obj`` (``<stem>.o``).
    Returns the object file and the compiler run."""
    obj = obj or stem + '.o'
    run = _run(cc, [*flags, _write(workdir, stem + '.c', text), '-o', obj],
               workdir)
    if run.returncode == 0:
        _store.compiled(kind)
    return obj, run


def _runtime_object(cc, workdir, flags, text):
    """The runtime unit's object, compiled once per process for each
    text (element type) and flag set: later builds link the same file
    (and get no compiler run back)."""
    name = _object_name(cc, flags, text, 'rt_%s.o')
    path = os.path.join(workdir, name)
    with _store.lock(name):
        if os.path.exists(path):
            return name, None
        _, run = _compile_unit(cc, workdir, 'runtime', flags, name[:-2],
                               text, obj=name + '.tmp')
        if run.returncode == 0:
            os.replace(path + '.tmp', path)
        return name, run


def _concurrently(jobs):
    """Run callables at once, one thread each (the last on the calling
    thread); their results in order.  The compiler slots, not this,
    decide how many processes run."""
    results = [None] * len(jobs)

    def run(i):
        try:
            results[i] = jobs[i]()
        except BaseException as e:  # re-raised on the calling thread
            results[i] = e

    threads = [threading.Thread(target=run, args=(i,), daemon=True)
               for i in range(len(jobs) - 1)]
    for t in threads:
        t.start()
    run(len(jobs) - 1)
    for t in threads:
        t.join()
    for r in results:
        if isinstance(r, BaseException):
            raise r
    return results


def _write(workdir, name, text):
    with open(os.path.join(workdir, name), 'w', encoding='utf-8') as f:
        f.write(text)
    return name


def _run(cc, args, workdir):
    """One compiler or linker process, started once a slot is free."""
    with _slots:
        return _finish(_start(cc, args, workdir))


def _start(cc, args, workdir):
    try:
        return subprocess.Popen([cc, *args], cwd=workdir, text=True,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
    except OSError as e:
        raise JITError("C compiler failed to run: %s" % (e,)) from None


def _finish(proc):
    try:
        stdout, stderr = proc.communicate(timeout=300)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise JITError("C compiler timed out: %s"
                       % ' '.join(proc.args)) from None
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout,
                                       stderr)


def load_steps(so_path):
    """dlopen a compiled kernel and bind its entry points.

    Returns ``(lib, funcs)``: ``funcs`` is the ``__C`` table the
    generated driver indexes into — ``step``, the object's
    ``repro_step(time, nrows, binding)``: one timestep of this rank's op
    program and the only compiled call the driver makes (ctypes
    releases the GIL for it).  What a rank binds
    to it is data (:class:`~repro.codegen.cstep.StepProgram`).
    """
    try:
        lib = ctypes.CDLL(so_path)
    except OSError as e:
        raise JITError("cannot load %s: %s" % (so_path, e)) from None
    try:
        step, wake = lib.repro_step, lib.repro_wake
    except AttributeError:
        raise JITError("compiled object %s lacks the step entry points"
                       % (so_path,)) from None
    step.restype = ctypes.c_int
    step.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p]
    wake.restype = None
    wake.argtypes = [ctypes.c_void_p]
    return lib, {'step': step}


def toolchain_report(env=None):
    """Everything ``repro doctor`` wants to know, as a dict."""
    cc = find_compiler(env=env)
    report = {
        'cc_env': (os.environ if env is None else env).get('CC'),
        'compiler': cc,
        'compiler_version': compiler_version(cc),
        'cffi': cffi_available(),
        'workdir': _store.workdir,
    }
    smoke = None
    if cc is not None:
        try:
            so = compile_shared(
                '__attribute__((visibility("default"))) '
                'void __repro_smoke(double *x) { x[0] = x[0] * 2.0; }\n',
                cc=cc)
            lib = ctypes.CDLL(so)
            fn = lib.__repro_smoke
            fn.restype = None
            fn.argtypes = [ctypes.POINTER(ctypes.c_double)]
            val = ctypes.c_double(21.0)
            fn(ctypes.byref(val))
            smoke = 'ok' if val.value == 42.0 else \
                'bad result %r' % val.value
        except (JITError, OSError) as e:
            smoke = 'failed: %s' % (e,)
    report['smoke'] = smoke
    report['backend_c_usable'] = smoke == 'ok'
    # after the smoke compile, which is what finds out whether this
    # compiler takes -march=native
    report['object_key'] = key_material(cc, _flag_sets(cc)[0]) \
        if cc is not None else None
    return report
