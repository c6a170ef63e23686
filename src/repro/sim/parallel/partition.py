"""The shard-cut planner for conservative parallel execution.

The paper's four-segment topology (device → wireless network →
middleware → wired Internet/server) is cut at the wired-link boundary:
a shard owns a contiguous range of users, their stations, their cell,
their gateway, and a replica of the wired host tier.  The only state
crossing the cut is a small set of *merge points* — logically global
quantities whose updates commute (account balances partitioned by user,
stock decrements, admission counters) — exchanged as window-boundary
deltas and merged in global ``(time, priority, seq, shard)`` order.

Legality is not assumed: :func:`plan_partition` consumes the ``repro
races --json`` shared-state matrix and requires every
``cross_process_write`` key to classify as one of

* ``replicated`` — a ``module.Class.attr`` key whose instances are all
  reachable from exactly one shard's object graph (the replica
  topology shares nothing), so the writes are shard-local;
* ``merge-point`` — a designated commutative global quantity with a
  declared merge operator;
* ``control-plane`` — the gateway-fleet tier (balancer ring, health
  monitor, canary controller) whose whole point is coordinating
  *across* gateways; it spans shards by construction, so requesting a
  fleet makes the cut illegal (the caller falls back to sequential);
* anything else — module-level globals, unknown packages — blocks the
  cut outright (:class:`PartitionError`).

Lookahead: every cut crosses the ``middleware-gw<->internet-core``
wired link (propagation delay 0.002s in the reference build), so no
shard can affect another in less than the minimum cut-link delay.  The
synchronisation window is therefore ``max(lookahead, horizon /
target_windows)`` — merge points commute, so correctness never needs a
window *smaller* than the lookahead, and larger windows just batch the
delta exchange.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["CutLink", "CutPlan", "PartitionError", "ShardSpec",
           "classify_matrix", "default_matrix", "default_shard_count",
           "derive_shard_seed", "plan_json", "plan_partition",
           "suggest_cut"]


class PartitionError(ValueError):
    """No legal shard cut exists for the requested scenario."""

    def __init__(self, reason: str, blocking: Optional[list] = None):
        super().__init__(reason)
        self.reason = reason
        self.blocking = list(blocking or [])


@dataclass(frozen=True)
class CutLink:
    """A wired link severed by the shard cut."""

    name: str
    delay: float
    shard: int

    def to_dict(self) -> dict:
        return {"name": self.name, "delay": self.delay, "shard": self.shard}


@dataclass(frozen=True)
class ShardSpec:
    """One shard of the partitioned scenario (picklable, spawn-safe).

    ``params`` carries everything a worker process needs to rebuild the
    shard from scratch — scenario kwargs plus the coordinator's
    optimization-flag snapshot — as plain picklable values.
    """

    shard_id: int
    users: int
    user_offset: int
    seed: int
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"shard": self.shard_id, "users": self.users,
                "user_offset": self.user_offset, "seed": self.seed}


@dataclass
class CutPlan:
    """The partitioner's output: shard layout plus synchronisation."""

    users: int
    seed: int
    horizon: float
    shards: list          # list[ShardSpec] (params filled by the caller)
    cut_links: list       # list[CutLink]
    lookahead: float
    sync_window: float
    windows: int
    merge_points: dict    # key -> merge operator
    classification: dict  # key -> class label
    fleet: int = 0

    def to_dict(self) -> dict:
        return {
            "users": self.users,
            "seed": self.seed,
            "horizon": self.horizon,
            "fleet": self.fleet,
            "legal": True,
            "shards": [spec.to_dict() for spec in self.shards],
            "cut_links": [link.to_dict() for link in self.cut_links],
            "lookahead": self.lookahead,
            "sync_window": self.sync_window,
            "windows": self.windows,
            "merge_points": dict(sorted(self.merge_points.items())),
            "classes": _class_counts(self.classification),
            "blocking_keys": [],
        }


# The wired boundary every shard cut severs, as built by
# MCSystemBuilder: gateway node <-> internet core, 0.002s propagation.
CUT_LINK_NAME = "middleware-gw<->internet-core"
CUT_LINK_DELAY = 0.002

# Packages whose Class.attr instances live inside one shard's replica
# topology; cross-process writes on them are shard-local by
# construction (nothing in a shard's object graph is reachable from
# another shard).
REPLICATED_PREFIXES = (
    "repro.apps.", "repro.core.", "repro.db.", "repro.devices.",
    "repro.faults.", "repro.middleware.", "repro.net.", "repro.obs.",
    "repro.resilience.", "repro.security.", "repro.web.",
    "repro.wireless.",
)

# The gateway-fleet control plane coordinates across gateways; since a
# shard owns exactly one gateway, fleet state would span shards.
CONTROL_PLANE_PREFIXES = ("repro.fleet.",)

# Designated commutative global quantities: their per-shard updates
# merge into the sequential run's global value with the named operator.
MERGE_POINT_OPERATORS = {
    # Account balances/authorizations are partitioned by user id —
    # each user's row is written by exactly one shard.
    "repro.security.payment.PaymentProcessor.accounts": "disjoint-union",
    "repro.security.payment.PaymentProcessor.authorizations":
        "disjoint-union",
    # Open holds are keyed by account, so they partition the same way.
    "repro.security.payment.PaymentProcessor._held": "disjoint-union",
    "repro.security.payment.PaymentProcessor.stats": "sum",
    # Stock decrements and synced rows commute (counted quantities).
    "repro.db.sync._Namespace.records": "disjoint-union",
    "repro.db.sync._Namespace.version": "sum",
    # Transaction records / spans carry their own timestamps, so the
    # global view is an ordered merge on (time, priority, seq, shard).
    "repro.core.transaction.TransactionEngine.records": "ordered-merge",
    "repro.obs.span.Tracer.spans": "ordered-merge",
}

DEFAULT_TARGET_WINDOWS = 16
MAX_SHARD_USERS = 125


def classify_matrix(matrix: dict, fleet: int = 0) -> tuple:
    """Classify every cross-process-write key; return (classes, blocking).

    ``classes`` maps each key to its label; ``blocking`` lists the keys
    (with reasons) that make the cut illegal for this scenario.
    """
    classes: dict = {}
    blocking: list = []
    for key in sorted(matrix):
        entry = matrix[key]
        if not entry.get("cross_process_write"):
            continue
        label = _classify_key(key)
        if label == "control-plane" and fleet > 0:
            blocking.append({
                "key": key,
                "reason": "fleet control plane spans shards "
                          "(one gateway per shard)",
            })
        elif label == "blocking":
            blocking.append({
                "key": key,
                "reason": "module-level or unclassified shared state "
                          "is not shard-local under fork",
            })
        classes[key] = label
    return classes, blocking


def _classify_key(key: str) -> str:
    if key in MERGE_POINT_OPERATORS:
        return "merge-point"
    if any(key.startswith(p) for p in CONTROL_PLANE_PREFIXES):
        return "control-plane"
    parts = key.rsplit(".", 2)
    # Shard-locality only holds for per-instance attributes: the key
    # must be module.Class.attr with a real class segment.  A
    # module-level name (lowercase second-to-last segment) is process
    # state, not instance state, and blocks the cut.
    class_like = (len(parts) == 3
                  and parts[1].lstrip("_")[:1].isupper())
    if class_like and any(key.startswith(p) for p in REPLICATED_PREFIXES):
        return "replicated"
    return "blocking"


def _class_counts(classification: dict) -> dict:
    counts: dict = {}
    for label in classification.values():
        counts[label] = counts.get(label, 0) + 1
    return counts


def derive_shard_seed(seed: int, shard_id: int) -> int:
    """Per-shard seed stream: shard 0 keeps the scenario seed.

    Keeping shard 0 on the global seed makes the one-shard plan's
    virtual run literally the sequential run (same seed, same users),
    which is what the 1-shard ≡ sequential byte-identity test pins.
    Other shards decorrelate through a stable CRC mix.
    """
    if shard_id == 0:
        return seed
    return zlib.crc32(f"{seed}:{shard_id}".encode()) & 0x7FFFFFFF


def default_shard_count(users: int, workers: int = 1) -> int:
    """Shard count for a scenario: enough for the workers, capped so a
    shard never exceeds :data:`MAX_SHARD_USERS` users."""
    by_size = (users + MAX_SHARD_USERS - 1) // MAX_SHARD_USERS
    return max(1, workers, by_size) if users > 1 else 1


def plan_partition(users: int, seed: int = 7, horizon: float = 240.0,
                   matrix: Optional[dict] = None, shards: Optional[int] = None,
                   workers: int = 1, fleet: int = 0,
                   target_windows: int = DEFAULT_TARGET_WINDOWS) -> CutPlan:
    """Produce a legal shard cut or raise :class:`PartitionError`.

    ``matrix`` is the ``repro races --json`` access matrix (default:
    analyse the installed ``repro`` sources, cached per process).  The
    shard count is fixed by the plan — ``--workers`` only chooses how
    many OS processes *host* those shards — so every worker count
    executes the identical decomposition and byte-identity across
    worker counts is structural, not incidental.
    """
    if users < 1:
        raise ValueError(f"users must be >= 1, got {users}")
    if matrix is None:
        matrix = default_matrix()
    classification, blocking = classify_matrix(matrix, fleet=fleet)
    if blocking:
        keys = ", ".join(entry["key"] for entry in blocking[:4])
        more = len(blocking) - 4
        suffix = f" (+{more} more)" if more > 0 else ""
        raise PartitionError(
            f"no legal cut: {len(blocking)} cross-process-write key(s) "
            f"cannot be made shard-local: {keys}{suffix}", blocking)

    count = shards if shards is not None else default_shard_count(
        users, workers)
    count = max(1, min(count, users))
    base, extra = divmod(users, count)
    specs = []
    offset = 0
    for shard_id in range(count):
        size = base + (1 if shard_id < extra else 0)
        specs.append(ShardSpec(shard_id=shard_id, users=size,
                               user_offset=offset,
                               seed=derive_shard_seed(seed, shard_id)))
        offset += size

    cut_links = [CutLink(name=CUT_LINK_NAME, delay=CUT_LINK_DELAY,
                         shard=spec.shard_id) for spec in specs]
    lookahead = min(link.delay for link in cut_links)
    sync_window = max(lookahead, horizon / max(1, target_windows))
    windows = max(1, round(horizon / sync_window))
    merge_points = {key: MERGE_POINT_OPERATORS[key]
                    for key, label in classification.items()
                    if label == "merge-point"}
    return CutPlan(users=users, seed=seed, horizon=horizon, shards=specs,
                   cut_links=cut_links, lookahead=lookahead,
                   sync_window=sync_window, windows=windows,
                   merge_points=merge_points,
                   classification=classification, fleet=fleet)


_MATRIX_CACHE: dict = {}  # repro: noqa[fork-unsafe-global] — static-analysis result for the installed sources; identical in every process that computes it


def default_matrix() -> dict:
    """The access matrix for the installed ``repro`` sources (cached)."""
    if "matrix" not in _MATRIX_CACHE:
        import os

        import repro
        from repro.analysis.races import analyze_paths

        package_dir = os.path.dirname(repro.__file__)
        _MATRIX_CACHE["matrix"] = analyze_paths(
            [package_dir]).to_dict()["matrix"]
    return _MATRIX_CACHE["matrix"]


def suggest_cut(users: int = 500, seed: int = 7, horizon: float = 240.0,
                workers: int = 4, fleet: int = 0,
                matrix: Optional[dict] = None) -> dict:
    """The ``repro races --suggest-cut`` artifact: plan or refusal.

    Always returns a JSON-able dict; an illegal cut reports ``legal:
    false`` with the blocking keys instead of raising, so the artifact
    documents *why* the scenario falls back to sequential.
    """
    try:
        plan = plan_partition(users=users, seed=seed, horizon=horizon,
                              workers=workers, fleet=fleet, matrix=matrix)
    except PartitionError as exc:
        if matrix is None:
            matrix = default_matrix()
        classification, _ = classify_matrix(matrix, fleet=fleet)
        return {
            "users": users,
            "seed": seed,
            "horizon": horizon,
            "fleet": fleet,
            "legal": False,
            "reason": exc.reason,
            "blocking_keys": exc.blocking,
            "classes": _class_counts(classification),
            "shards": [],
            "cut_links": [],
        }
    return plan.to_dict()


def plan_json(plan_dict: dict) -> str:
    """Canonical serialisation: byte-identical for identical plans."""
    return json.dumps(plan_dict, indent=2, sort_keys=True)
