"""The fixed part of every executable C source: the step runtime.

:func:`~repro.codegen.cgen.generate_c_steps` prints the equations (one
kernel per cluster, one function per sparse operation, one thunk per
kernel); this module holds the text that does not depend on them — only
on the element type — and that turns the kernels into one exported
``repro_step(time, nrows, binding)``.  A source is a sequence of
translation units, split by the marks below, compiled apart and linked
into one shared object (:func:`~repro.codegen.jit.compile_shared`): one
unit per kernel, the per-build step unit (thunks, sparse functions, the
function table ``__rp_fns``) and this runtime, which is the same for
every build of one element type and so is compiled once per process:

* ``__rp_binding`` — what one rank binds for one run of the time loop:
  pointers (fields, sparse plans, pending rows), the scalar table, the
  op program, argument records, geometry rows, channel pointers, the
  section timers, the exchanger counters, the world's failure flag and
  its fault hook (mirrored by :class:`repro.codegen.cstep.Binding`);
* the channel layer — one single-slot channel per (comm, src, dst, tag,
  size) in memory the :class:`~repro.mpi.sim.SimWorld` owns
  (:mod:`repro.mpi.channel`).  The sender waits for the slot to be
  free, packs straight into it and bumps ``seq``; the receiver waits
  for ``seq``, unpacks and bumps ``ack``.  A wait spins briefly, then
  sleeps on a futex in slices of the world's ``check_interval`` until
  the deadline (``comm_timeout``) or the failure flag.  Under a fault
  plan the binding's ``decide`` hook (NULL otherwise: one branch per
  send) asks :meth:`~repro.mpi.faults.FaultPlan.decide` about each
  message, by its ordinal on the channel.  The hook itself sleeps for
  ``delay`` and counts duplicates (a single-slot channel holds no
  second copy, and cannot reorder); a ``drop`` is published *parked*,
  and the receiver redelivers it after one ``check_interval`` slice
  if it may retry (``comm_retries`` > 0), counting it in the channel's
  ``redelivered``;
* halo spots — pack / send / wait / unpack over an exchanger's
  per-neighbour box table, phase by phase (``update``) or split into
  the ``begin`` / ``finish`` halves full mode places around CORE;
* the poisoned-halo sanitizer's fill and scan over boxes;
* the interpreter of the op program, with one timer per section.

Every unit is compiled with ``-fvisibility=hidden``: the object exports
``repro_step`` and ``repro_wake`` and nothing else, so no call between
units can bind to a libc symbol of the same name (glibc exports a weak
``step``).

Return codes of ``repro_step``: 0 done; 1 a peer failed; 2 a wait timed
out (``err`` = src, dst, tag); 3 the sanitizer found poison (``err[0]``
= section); 4 a sparse time row out of range (``err[0]`` = time).
"""

from __future__ import annotations

__all__ = ['OPS', 'ERRORS', 'EXCHANGER_COUNTERS', 'KERNEL_MARK',
           'STEP_MARK', 'RUNTIME_MARK', 'prelude_source', 'table_source',
           'runtime_source']

#: op codes of the step program (four ``long`` per op, 0 terminates)
OPS = {'end': 0, 'begin': 1, 'stop': 2, 'call': 3, 'update': 4,
       'send': 5, 'recv': 6, 'poison': 7, 'scan': 8}

#: non-zero return codes of ``repro_step``
ERRORS = {1: 'failed', 2: 'timeout', 3: 'poison', 4: 'time'}

#: the per-exchanger counter row the step accumulates (doubles)
EXCHANGER_COUNTERS = ('nmessages', 'nbytes_sent', 'nbytes_recv', 'ncalls',
                      'wait_time')

_PRELUDE = r'''typedef %(ctype)s __rp_elem;

typedef struct
{
  int seq, ack, waiting, src, dst, tag, parked, redelivered;
  long nbytes;
  char *slot;
} __rp_chan;

typedef struct __rp_binding
{
  void **ptrs;
  const double *scalars;
  const long *prog;
  const long *args;
  const long *geom;
  __rp_chan **chans;
  double *timers;
  double *counters;
  const int *failed;
  int (*decide)(int, int, int, int);
  long retries;
  double timeout, slice;
  long err[4];
} __rp_binding;

static inline long __rp_mod(long a, long n)
{
  const long r = a %% n;
  return r < 0 ? r + n : r;
}

typedef int (*__rp_fn)(__rp_binding *, const long *, long, long);
'''

_RUNTIME = r'''
extern const __rp_fn __rp_fns[];

#if defined(__linux__) && (defined(__x86_64__) || defined(__aarch64__))
/* the libc entry points the runtime calls, declared here: their
   headers cost more to parse than the runtime costs to compile */
struct timespec { long tv_sec; long tv_nsec; };
int clock_gettime(int, struct timespec *);
long syscall(long, ...);
void *memcpy(void *, const void *, unsigned long);
#define CLOCK_MONOTONIC 1
#define FUTEX_WAIT_PRIVATE 128
#define FUTEX_WAKE_PRIVATE 129
#ifdef __x86_64__
#define SYS_futex 202
#else
#define SYS_futex 98
#endif
#else
#define _GNU_SOURCE
#include <string.h>
#include <time.h>
#ifdef __linux__
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif
#endif


static double __rp_now(void)
{
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + 1e-9*(double)ts.tv_nsec;
}

static void __rp_relax(void)
{
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  __asm__ __volatile__("yield");
#endif
}

static void __rp_sleep_on(int *word, int seen, double seconds)
{
#ifdef __linux__
  struct timespec ts;
  ts.tv_sec = (long)seconds;
  ts.tv_nsec = (long)((seconds - (double)ts.tv_sec)*1e9);
  syscall(SYS_futex, word, FUTEX_WAIT_PRIVATE, seen, &ts, 0, 0);
#else
  struct timespec ts = {0, 50000};
  (void)word; (void)seen; (void)seconds;
  nanosleep(&ts, 0);
#endif
}

static void __rp_wake(int *word)
{
#ifdef __linux__
  syscall(SYS_futex, word, FUTEX_WAKE_PRIVATE, 0x7fffffff, 0, 0, 0);
#else
  (void)word;
#endif
}

/* wake whoever sleeps on either word of a channel (SimWorld.fail) */
__attribute__((visibility("default"))) void repro_wake(__rp_chan *c)
{
  __rp_wake(&c->seq);
  __rp_wake(&c->ack);
  __rp_wake(&c->parked);
}

/* wait until *word moved past seen: 0, or 1 (a peer failed) or 2
   (deadline passed) */
static int __rp_await(const __rp_binding *b, __rp_chan *c, int *word, int seen)
{
  for (int i = 0; i < 200; i += 1)
  {
    if (__atomic_load_n(word, __ATOMIC_ACQUIRE) != seen)
      return 0;
    __rp_relax();
  }
  const double deadline = __rp_now() + b->timeout;
  for (;;)
  {
    if (__atomic_load_n(word, __ATOMIC_ACQUIRE) != seen)
      return 0;
    if (__atomic_load_n(b->failed, __ATOMIC_ACQUIRE))
      return 1;
    const double left = deadline - __rp_now();
    if (left <= 0.0)
      return 2;
    __atomic_add_fetch(&c->waiting, 1, __ATOMIC_SEQ_CST);
    if (__atomic_load_n(word, __ATOMIC_SEQ_CST) == seen)
      __rp_sleep_on(word, seen, left < b->slice ? left : b->slice);
    __atomic_sub_fetch(&c->waiting, 1, __ATOMIC_SEQ_CST);
  }
}

static void __rp_publish(__rp_chan *c, int *word)
{
  __atomic_add_fetch(word, 1, __ATOMIC_SEQ_CST);
  if (__atomic_load_n(&c->waiting, __ATOMIC_SEQ_CST))
    __rp_wake(word);
}

static void __rp_fill(__rp_elem *p, long n)
{
  for (long i = 0; i < n; i += 1)
    p[i] = (__rp_elem)__builtin_nan("");
}

static int __rp_nan(const __rp_elem *p, long n)
{
  for (long i = 0; i < n; i += 1)
    if (__builtin_isnan(p[i]))
      return 1;
  return 0;
}

/* the row-major walk of box [lo, hi) of an array: op 0 packs into buf,
   1 unpacks from it, 2 fills NaN, 3 returns 1 at the first NaN */
static int __rp_walk(__rp_elem *base, const long *strides, long ndim,
                     const long *box, __rp_elem *buf, int op)
{
  long rows = 1;
  for (long d = 0; d < ndim; d += 1)
  {
    if (box[2*d + 1] <= box[2*d])
      return 0;
    if (d < ndim - 1)
      rows *= box[2*d + 1] - box[2*d];
  }
  const long run = box[2*ndim - 1] - box[2*ndim - 2];
  for (long r = 0; r < rows; r += 1)
  {
    long off = box[2*ndim - 2], q = r;
    for (long d = ndim - 2; d >= 0; d -= 1)
    {
      const long ext = box[2*d + 1] - box[2*d];
      off += (box[2*d] + q % ext)*strides[d];
      q /= ext;
    }
    __rp_elem *p = base + off;
    if (op == 0)
      memcpy(buf, p, run*sizeof(__rp_elem));
    else if (op == 1)
      memcpy(p, buf, run*sizeof(__rp_elem));
    else if (op == 2)
      __rp_fill(p, run);
    else if (__rp_nan(p, run))
      return 1;
    buf += run;
  }
  return 0;
}

/* the field view an argument record names: [slot, shifted, shift, nb,
   ndim, tstride, strides...] */
static __rp_elem *__rp_view(const __rp_binding *b, const long *a, long time)
{
  __rp_elem *base = (__rp_elem *)b->ptrs[a[0]];
  return a[1] ? base + __rp_mod(time + a[2], a[3])*a[5] : base;
}

static int __rp_fail(__rp_binding *b, __rp_chan *c, int rc)
{
  b->err[1] = c->src;
  b->err[2] = c->dst;
  b->err[3] = c->tag;
  return rc;
}

/* a dropped (parked) message: after one check_interval slice the
   receiver redelivers it, if it may retry at all; else it waits out
   the deadline */
static int __rp_redeliver(const __rp_binding *b, __rp_chan *c)
{
  const double deadline = __rp_now() + b->timeout;
  for (;;)
  {
    if (__atomic_load_n(b->failed, __ATOMIC_ACQUIRE))
      return 1;
    const double left = deadline - __rp_now();
    if (left <= 0.0)
      return 2;
    __rp_sleep_on(&c->parked, 1, left < b->slice ? left : b->slice);
    if (b->retries > 0)
    {
      c->redelivered += 1;
      __atomic_store_n(&c->parked, 0, __ATOMIC_RELEASE);
      return 0;
    }
  }
}

static int __rp_send(__rp_binding *b, __rp_chan *c, __rp_elem *base,
                     const long *a, const long *box, double *cnt)
{
  const int seq = c->seq;
  if (__atomic_load_n(&c->ack, __ATOMIC_ACQUIRE) != seq)
  {
    const double t0 = __rp_now();
    const int rc = __rp_await(b, c, &c->ack, seq - 1);
    cnt[4] += __rp_now() - t0;
    if (rc)
      return __rp_fail(b, c, rc);
  }
  __rp_walk(base, a + 6, a[4], box, (__rp_elem *)c->slot, 0);
  /* under a fault plan: a dropped message is published parked */
  if (b->decide && b->decide(c->src, c->dst, c->tag, seq))
    c->parked = 1;
  __rp_publish(c, &c->seq);
  cnt[0] += 1;
  cnt[1] += (double)c->nbytes;
  return 0;
}

static int __rp_recv(__rp_binding *b, __rp_chan *c, __rp_elem *base,
                     const long *a, const long *box, double *cnt)
{
  const int ack = c->ack;
  const double t0 = __rp_now();
  int rc = __rp_await(b, c, &c->seq, ack);
  if (!rc && __atomic_load_n(&c->parked, __ATOMIC_ACQUIRE))
    rc = __rp_redeliver(b, c);
  cnt[4] += __rp_now() - t0;
  if (rc)
    return __rp_fail(b, c, rc);
  __rp_walk(base, a + 6, a[4], box, (__rp_elem *)c->slot, 1);
  __rp_publish(c, &c->ack);
  cnt[2] += (double)c->nbytes;
  return 0;
}

/* one halo spot over an exchanger record [view..., exid, nrows, rows...]
   with rows [phase, send chan, recv chan, send box, recv box]: what 1
   sends every row (begin), 2 receives every row (finish), 3 sends then
   receives phase by phase (update) */
static int __rp_halo(__rp_binding *b, const long *a, long time, int what)
{
  const long ndim = a[4];
  __rp_elem *base = __rp_view(b, a, time);
  double *cnt = b->counters + 5*a[6 + ndim];
  const long nrows = a[7 + ndim], width = 3 + 4*ndim;
  const long *rows = a + 8 + ndim;
  if (what & 1)
    cnt[3] += 1;
  for (long first = 0; first < nrows;)
  {
    long last = first + 1;
    if (what == 3)
      while (last < nrows && rows[last*width] == rows[first*width])
        last += 1;
    else
      last = nrows;
    for (int pass = 1; pass <= 2; pass += 1)
    {
      if (!(what & pass))
        continue;
      for (long i = first; i < last; i += 1)
      {
        const long *row = rows + i*width;
        const long ch = row[pass];
        if (ch < 0)
          continue;
        const int rc = pass == 1
          ? __rp_send(b, b->chans[ch], base, a, row + 3, cnt)
          : __rp_recv(b, b->chans[ch], base, a, row + 3 + 2*ndim, cnt);
        if (rc)
          return rc;
      }
    }
    first = last;
  }
  return 0;
}

/* poison record [view..., nbuffers, nboxes, boxes...]: NaN into every
   box of every buffer */
static void __rp_poison(const __rp_binding *b, const long *a)
{
  const long ndim = a[4], nbuf = a[6 + ndim], nbox = a[7 + ndim];
  for (long t = 0; t < nbuf; t += 1)
  {
    __rp_elem *base = (__rp_elem *)b->ptrs[a[0]] + t*a[5];
    for (long i = 0; i < nbox; i += 1)
      __rp_walk(base, a + 6, ndim, a + 8 + ndim + 2*ndim*i, 0, 2);
  }
}

__attribute__((visibility("default")))
int repro_step(long time, long nrows, __rp_binding *b)
{
  double t0 = 0.0;
  for (const long *op = b->prog; op[0]; op += 4)
  {
    int rc = 0;
    switch (op[0])
    {
      case 1:
        t0 = __rp_now();
        break;
      case 2:
      {
        double *timer = b->timers + 3*op[1];
        timer[2] = __rp_now() - t0;
        timer[0] += timer[2];
        timer[1] += 1;
        break;
      }
      case 3:
        rc = __rp_fns[op[1]](b, b->args + op[2], time, nrows);
        break;
      case 4: case 5: case 6:
        rc = __rp_halo(b, b->args + op[1], time, op[0] == 4 ? 3 : op[0] - 4);
        break;
      case 7:
        __rp_poison(b, b->args + op[1]);
        break;
      case 8:
      {
        const long *a = b->args + op[2];
        if (__rp_walk(__rp_view(b, a, time), a + 6, a[4], a + 6 + a[4], 0, 3))
        {
          b->err[0] = op[1];
          rc = 3;
        }
        break;
      }
    }
    if (rc)
      return rc;
  }
  return 0;
}
'''


#: the marks :func:`~repro.codegen.cgen.generate_c_steps` output is
#: split by (:func:`repro.codegen.jit.compile_shared`): the text before
#: the first kernel mark heads every kernel unit, each kernel mark opens
#: one kernel unit, the step mark the per-build step unit and the
#: runtime mark the runtime unit
KERNEL_MARK = '\n/* ---- repro kernel ---- */\n'
STEP_MARK = '\n/* ---- repro step ---- */\n'
RUNTIME_MARK = '\n/* ---- repro runtime ---- */\n'


def prelude_source(ctype):
    """Types and helpers shared by the step and runtime units."""
    return _PRELUDE % {'ctype': ctype}


def table_source(fns):
    """The step unit's function table, which ``repro_step`` indexes."""
    return ('const __rp_fn __rp_fns[] = {%s};\n'
            % ', '.join(fns or ['0']))


def runtime_source(ctype):
    """The runtime unit: channels, halo spots, sanitizer, ``repro_step``.
    Nothing in it is hot (halo copies are ``memcpy`` calls), so it
    compiles at ``-O0``, like the step unit."""
    return prelude_source(ctype) + _RUNTIME
