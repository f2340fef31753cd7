"""Streaming-subsystem lints (``FSTC7xx``).

The streaming layer (:mod:`repro.streaming`) keeps derived artifacts —
tiled tables, linearized operands, plan-cache entries, prepared-network
pins, cached outputs — alive across tensor mutations, which makes two
soundness properties load-bearing:

* every registered artifact must be **reachable by invalidation**: an
  artifact tracked with no dependencies can never be marked stale, so a
  delta silently leaves it serving pre-mutation data (``FSTC702``,
  error — the static counterpart of the
  :class:`~repro.streaming.DependencyTracker`'s construction-time
  refusal);
* a **stale artifact still registered** is a stale read waiting to
  happen — the dynamic guard (:class:`repro.errors.StaleReadError`)
  fires only at read time, while this lint catches the window where
  the artifact sits stale between a bump and its refresh/unregister
  (``FSTC701``, error);

The tracker is duck-typed: anything with ``artifacts()`` lints as one.
The configuration findings of the same family (``FSTC703``/``FSTC704``)
live on :meth:`repro.serve.ServiceConfig.diagnostics`.
"""

from __future__ import annotations

from repro.staticcheck.diagnostics import Diagnostic, make_diagnostic

__all__ = ["lint_dependency_tracker"]


def lint_dependency_tracker(
    tracker, *, location: str = "dependency tracker"
) -> list[Diagnostic]:
    """``FSTC701``/``FSTC702`` findings for one dependency tracker.

    ``tracker`` is duck-typed: a
    :class:`repro.streaming.DependencyTracker` or any stand-in exposing
    ``artifacts()`` (iterable of objects with ``artifact_id``, ``kind``,
    ``deps`` and ``fresh``).
    """
    out: list[Diagnostic] = []
    for artifact in tracker.artifacts():
        where = f"{location}: artifact {artifact.artifact_id!r}"
        if not artifact.deps:
            out.append(make_diagnostic(
                "FSTC702",
                f"{artifact.kind} artifact tracks no dependencies, so no "
                "tensor bump can ever invalidate it — any mutation leaves "
                "it silently serving pre-mutation data",
                hint="register the artifact against the (tensor, tiles) "
                     "pairs it was computed from, or do not track it",
                location=where,
            ))
        if not artifact.fresh:
            out.append(make_diagnostic(
                "FSTC701",
                f"{artifact.kind} artifact is stale but still registered; "
                "a read before refresh/unregister returns pre-mutation "
                "data (the dynamic StaleReadError guard fires only on "
                "checked reads)",
                hint="refresh(artifact_id) after recomputing it, or "
                     "unregister(artifact_id) to retire it",
                location=where,
            ))
    return out
