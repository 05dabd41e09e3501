"""Shared helpers for the code-generation backends."""

from __future__ import annotations

__all__ = ['RESERVED_NAMES', 'validate_names', 'function_nb',
           'class_geometry']

#: identifiers the generated kernels use internally
RESERVED_NAMES = frozenset({
    'time', 'time_m', 'time_M', 'np', 'range', 'comm',
    '__A', '__P', '__EX', '__SP', '__comm', '__kernel',
})


def validate_names(schedule):
    """Reject user names that would collide with generated identifiers."""
    names = {f.name for f in schedule.functions}
    names |= {s.name for s in schedule.sparse_functions}
    bad = names & RESERVED_NAMES
    if bad:
        raise ValueError("function names collide with generated code: %s"
                         % sorted(bad))
    for name in names:
        if name.startswith('__') or name.startswith('r') and \
                name[1:].isdigit():
            raise ValueError("function name %r is reserved for generated "
                             "temporaries" % name)


def function_nb(func):
    """Number of time buffers of a function (1 for time-invariant)."""
    return getattr(func, 'nbuffers', 1)


def class_geometry(halo, shape_local):
    """One layout class's values on this rank, in geometry-table order:
    the stride of a step along each dimension but the unit-stride last
    one, the time-buffer stride, the folded halo offset.  Must match
    the ``Data`` allocation exactly, since the compiled step indexes
    the NumPy buffer through a raw pointer."""
    shape = [int(n) + hl + hr for n, (hl, hr) in zip(shape_local, halo)]
    strides = [1] * len(shape)
    for i in range(len(shape) - 2, -1, -1):
        strides[i] = strides[i + 1] * shape[i + 1]
    return strides[:-1] + [strides[0] * shape[0], sum(
        hl * s for (hl, _), s in zip(halo, strides))]
