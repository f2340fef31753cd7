"""Sharded-serving ring-balance lint (``FSTC305``).

Consistent hashing is only statistically fair.  For a *declared*
signature set the split the router's ring would produce is exactly
computable before any load is offered: a shard owning zero signatures
is dead weight, and a shard owning far more than its fair share caps
the fleet's throughput at ``1 / max_share``.  (Host oversubscription,
``FSTC304``, is a finding of
:meth:`repro.serve.ShardedConfig.diagnostics`.)
"""

from __future__ import annotations

from typing import Sequence

from repro.staticcheck.diagnostics import Diagnostic, make_diagnostic

__all__ = ["lint_ring_balance"]

#: A shard whose declared-signature share exceeds this multiple of fair
#: share is reported: the fleet's scaling is capped at 1/share, so 2x
#: fair share on 4 shards already halves the headroom.
PATHOLOGICAL_SHARE = 2.0


def lint_ring_balance(
    n_shards: int,
    signature_keys: Sequence[str],
    *,
    replicas: int | None = None,
    location: str = "shard ring",
) -> list[Diagnostic]:
    """``FSTC305`` findings for a declared signature set on N shards.

    Builds the same deterministic ring the router would
    (:class:`repro.serve.sharding.HashRing` over shard ids
    ``0..n_shards-1``) and inspects the exact split of
    ``signature_keys``: an empty shard (when there are at least as many
    signatures as shards) and any shard owning more than
    :data:`PATHOLOGICAL_SHARE` times its fair share are each reported.
    """
    from repro.serve.sharding import DEFAULT_REPLICAS, HashRing, ring_shares

    out: list[Diagnostic] = []
    keys = [str(k) for k in signature_keys]
    if n_shards < 2 or not keys:
        return out
    ring = HashRing(
        range(n_shards),
        replicas=DEFAULT_REPLICAS if replicas is None else replicas,
    )
    shares = ring_shares(ring, keys)
    fair = 1.0 / n_shards
    if len(keys) >= n_shards:
        empty = sorted(s for s, share in shares.items() if share == 0.0)
        if empty:
            out.append(make_diagnostic(
                "FSTC305",
                f"shard(s) {empty} own none of the {len(keys)} declared "
                f"signatures; the ring wastes {len(empty)}/{n_shards} of "
                "the fleet",
                hint="raise the ring's replicas, rebalance weights, or "
                     "reduce the shard count toward the signature count",
                location=location,
                data={"shares": {str(s): v for s, v in shares.items()}},
            ))
    worst_shard, worst = max(shares.items(), key=lambda kv: (kv[1], str(kv[0])))
    if worst > PATHOLOGICAL_SHARE * fair and len(keys) >= 2 * n_shards:
        out.append(make_diagnostic(
            "FSTC305",
            f"shard {worst_shard} owns {worst:.0%} of the declared "
            f"signatures ({PATHOLOGICAL_SHARE:.0f}x its fair share "
            f"{fair:.0%}); throughput is capped at ~{1 / worst:.1f}x of "
            f"one shard instead of {n_shards}x",
            hint="rebalance ring weights against the declared signature "
                 "set (ShardRouter.rebalance) or raise replicas",
            location=location,
            data={"shares": {str(s): v for s, v in shares.items()}},
        ))
    return out
