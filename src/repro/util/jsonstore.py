"""Atomic, versioned JSON files for persisted caches and learned state.

A file that fails to parse — truncated write, hand-edit, version skew —
must never take a service down: :func:`load_json_versioned` reports the
problem as a ``load_error`` string and the caller starts cold.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, ContextManager, TypeVar

__all__ = ["load_json_versioned", "save_json_atomic"]

T = TypeVar("T")


def save_json_atomic(
    path: str, snapshot: Callable[[], dict], lock: ContextManager[Any]
) -> str:
    """Write ``snapshot()`` to ``path`` via a temp file and an atomic rename.

    The snapshot and the whole write happen under ``lock``, so the file
    is a consistent view and two concurrent saves never interleave on
    the shared ``.tmp`` scratch file.  Returns ``path``.
    """
    with lock:
        payload = snapshot()
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
        os.replace(tmp, path)
    return path


def load_json_versioned(
    path: str, version: int, parse: Callable[[dict], T]
) -> tuple[T | None, str | None]:
    """``(parse(payload), None)``, or ``(None, load_error)`` when the file
    is unreadable, not JSON, not at ``version``, or ``parse`` rejects it
    (``parse`` signals a bad payload with ``ValueError``, ``KeyError`` or
    ``TypeError``)."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        found = payload.get("version") if isinstance(payload, dict) else None
        if found != version:
            raise ValueError(f"unsupported format version {found!r}")
        return parse(payload), None
    except (OSError, ValueError, KeyError, TypeError) as exc:
        # json.JSONDecodeError subclasses ValueError; a bad field set
        # raises TypeError from a dataclass constructor.
        return None, f"{type(exc).__name__}: {exc}"
