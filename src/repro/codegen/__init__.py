"""Code generation backends (vectorized NumPy JIT; C emitter)."""

from .common import RESERVED_NAMES, function_nb
from .pybackend import PyKernel, generate_kernel

__all__ = ['RESERVED_NAMES', 'function_nb', 'PyKernel', 'generate_kernel']
