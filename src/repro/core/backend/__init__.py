"""Numeric backends for the probabilistic top-k core.

See :mod:`repro.core.backend.base` for the kernel contract and
:mod:`repro.core.backend.registry` for the two-entry table and how a
backend is chosen (``backend=``, ``REPRO_BACKEND``).
"""

from repro.core.backend.base import ArrayBackend
from repro.core.backend.numpy_backend import NumpyBackend
from repro.core.backend.python_backend import PythonBackend
from repro.core.backend.registry import (
    available_backends,
    default_backend_name,
    get_backend,
)

__all__ = [
    "ArrayBackend",
    "NumpyBackend",
    "PythonBackend",
    "available_backends",
    "default_backend_name",
    "get_backend",
]
