"""Backend registry: the fixed name -> :class:`ArrayBackend` table.

Two backends ship, ``numpy`` (the default) and ``python`` (the oracle).
A caller picks one with ``backend=``; otherwise the ``REPRO_BACKEND``
knob (:mod:`repro.knobs`) does, falling back to ``numpy``. A compiled
backend, when one is built, is one more row of ``_BACKENDS``.
"""

from __future__ import annotations

from repro import knobs
from repro.core.backend.base import ArrayBackend
from repro.core.backend.numpy_backend import NumpyBackend
from repro.core.backend.python_backend import PythonBackend
from repro.exceptions import ConfigurationError

__all__ = ["available_backends", "default_backend_name", "get_backend"]

_BACKENDS: dict[str, ArrayBackend] = {
    backend.name: backend for backend in (NumpyBackend(), PythonBackend())
}


def available_backends() -> tuple[str, ...]:
    """Backend names, sorted."""

    return tuple(sorted(_BACKENDS))


def default_backend_name() -> str:
    """The ``REPRO_BACKEND`` knob, falling back to ``numpy``."""

    return knobs.backend()


def get_backend(spec: "str | ArrayBackend | None" = None) -> ArrayBackend:
    """Resolve ``spec`` to a backend instance.

    ``None`` resolves the default (``REPRO_BACKEND`` > ``numpy``); a
    string is looked up in the table; an :class:`ArrayBackend`
    instance passes through unchanged.
    """

    if isinstance(spec, ArrayBackend):
        return spec
    name = default_backend_name() if spec is None else str(spec).strip().lower()
    backend = _BACKENDS.get(name)
    if backend is None:
        raise ConfigurationError(
            f"unknown backend {name!r}; "
            f"available: {', '.join(available_backends())}"
        )
    return backend
