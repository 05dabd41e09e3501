"""The C toolchain bridge: compile generated C and load it in-process.

This is the machinery behind ``backend='c'``: discover a working C
compiler (honoring ``$CC`` first, exactly so CI can mask the toolchain
with ``CC=/nonexistent`` to prove the fallback path), compile one
translation unit of shape-generic kernel functions into a shared object
— once per process, whichever rank thread gets there first —
``dlopen`` it with :mod:`ctypes` and bind its one entry point for the
driver, ``step(time, nrows, binding)`` — one timestep of compute, halo
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
* **Graceful fallback** — :func:`resolve_backend` demotes ``'c'`` to
  ``'numpy'`` with a visible :class:`ToolchainWarning` when no compiler
  exists; nothing in the pipeline hard-requires a toolchain.
"""

from __future__ import annotations

import atexit
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
#: from fusing a*b+c (NumPy performs the rounding step, so must we)
CFLAGS = ('-O3', '-fPIC', '-shared', '-ffp-contract=off', '-fno-builtin')

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


def object_names(source, cc=None):
    """File names this host publishes ``source``'s object under, one
    per flag set of :func:`_flag_sets` (none without a compiler).  A
    cached object under any other name was built by another toolchain
    or for another CPU."""
    if cc is None:
        cc = find_compiler()
    names = []
    for flags in _flag_sets(cc) if cc is not None else ():
        h = hashlib.blake2b(digest_size=16)
        for part in (*key_material(cc, flags).values(), source):
            h.update(part.encode('utf-8') + b'\0')
        names.append('k_%s.so' % h.hexdigest())
    return names


class _ObjectStore:
    """The process's compiled objects: a scratch directory (removed at
    exit) of content-named ``.so`` files, a lock per name so that of
    the rank threads asking for one object exactly one compiles it, a
    count of the compiles actually run, and the compilers found to
    reject ``-march=native``."""

    def __init__(self):
        self._guard = threading.Lock()
        self._locks = {}
        self.workdir = None
        self.compiles = 0
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

    def compiled(self):
        with self._guard:
            self.compiles += 1


_store = _ObjectStore()


def compile_count():
    """Compiler runs that produced an object in this process."""
    return _store.compiles


def compile_shared(source, cc=None):
    """Compile C ``source`` into a shared object; returns its path.

    The object lives in the process's scratch directory under its
    content name (:func:`object_names`): asking again for the same
    source — another rank thread, a repartitioned operator, a pooled
    service instance — finds it, and threads asking at once wait for
    the one that compiles.  The ``.c`` is content-named too and the
    compiler runs inside the scratch directory, so no path reaches the
    object (the source file name is in its symbol table) and equal
    names give equal bytes.

    A source of the compiled step (:func:`~repro.codegen.cgen.
    generate_c_steps`) is two translation units, compiled at once and
    linked into one object: the kernels at the flags of
    :func:`_flag_sets`, and meanwhile the step (thunks, sparse
    functions, runtime) at ``-O0``.
    """
    from .cruntime import STEP_MARK
    if cc is None:
        cc = find_compiler()
    if cc is None:
        raise JITError("no C compiler available (set $CC or install cc/"
                       "gcc/clang)")
    workdir = _store.directory()
    kernels, _, step = source.partition(STEP_MARK)
    for flags, so_name in zip(_flag_sets(cc), object_names(source, cc)):
        so_path = os.path.join(workdir, so_name)
        with _store.lock(so_name):
            if os.path.exists(so_path):
                return so_path
            stem = so_name[:-3]
            out = ['-o', so_name + '.tmp', '-lm']
            if not step:
                run = _finish(_start(cc, [*flags, _write(
                    workdir, stem + '.c', source), *out], workdir))
            else:
                cflags = [f for f in flags if f != '-shared']
                objs = [stem + '.o', stem + '_step.o']
                proc = _start(cc, [*cflags, '-c', _write(
                    workdir, stem + '.c', kernels), '-o', objs[0]], workdir)
                try:
                    run = _finish(_start(cc, [
                        *[f for f in cflags if f != '-O3'], '-O0', '-c',
                        _write(workdir, stem + '_step.c', step), '-o',
                        objs[1]], workdir))
                finally:
                    kernel_run = _finish(proc)
                if run.returncode == 0:
                    run = kernel_run
                if run.returncode == 0:
                    run = _finish(_start(cc, ['-shared', *objs, *out],
                                         workdir))
            if run.returncode == 0:
                os.replace(so_path + '.tmp', so_path)
                _store.compiled()
                return so_path
        if _NATIVE not in flags:
            break
        _store.no_native.add(cc)  # retry portable, and stop asking
    raise JITError("C compilation failed (%s):\n%s"
                   % (' '.join(run.args), run.stderr.strip()))


def _write(workdir, name, text):
    with open(os.path.join(workdir, name), 'w', encoding='utf-8') as f:
        f.write(text)
    return name


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
    generated driver indexes into — ``step(time, nrows, binding)``, one
    timestep of this rank's op program and the only compiled call the
    driver makes (ctypes releases the GIL for it).  What a rank binds
    to it is data (:class:`~repro.codegen.cstep.StepProgram`).
    """
    try:
        lib = ctypes.CDLL(so_path)
    except OSError as e:
        raise JITError("cannot load %s: %s" % (so_path, e)) from None
    try:
        step, wake = lib.step, lib.repro_wake
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
