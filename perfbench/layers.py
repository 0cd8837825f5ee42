"""Per-layer metrics derived from a traced pass.

``repro.obs.rollup`` reports inclusive wall time per span name, and the
serve layer names its epoch spans ``epoch:<index>``, so a rollup of one
trace has one row per epoch.  This module does the benchmark's own
roll-up instead: span names are folded onto a fixed vocabulary
(:func:`canonical`) and every row carries *self* wall time — a span's
duration minus the durations of its direct children — so the rows of
one trace partition its root spans' wall time by layer.

:data:`PER_LAYER` fixes the per-layer metric names and units; every
traced run reports all of them, with 0 for a layer the workload does
not reach.
"""

from __future__ import annotations

import re
from typing import Any, Iterable, Sequence

#: every metric name the benchmark prints must match this
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")

#: (name, unit) of every per-layer metric, grouped by layer
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("pim.rounds", "count"),
    ("pim.round_self_s", "s"),
    ("pim.module_imbalance", "ratio"),
    ("core.query.self_s", "s"),
    ("core.match.master.self_s", "s"),
    ("core.match.meta.self_s", "s"),
    ("core.match.blocks.self_s", "s"),
    ("core.insert.self_s", "s"),
    ("core.delete.self_s", "s"),
    ("core.subtree.self_s", "s"),
    ("core.maint.self_s", "s"),
    ("core.maint.rebuild_hvm.count", "count"),
    ("core.maint.rebuild_hvm.words", "words"),
    ("core.maint.rebuild_tree.count", "count"),
    ("core.maint.repartition.count", "count"),
    ("ordered.snapshot.count", "count"),
    ("ordered.snapshot.self_s", "s"),
    ("ordered.answer.self_s", "s"),
    ("serve.epochs", "count"),
    ("serve.ops_per_epoch", "ops"),
    ("serve.prep.self_s", "s"),
    ("serve.rounds.self_s", "s"),
    ("serve.assemble.self_s", "s"),
    ("serve.host_overlap", "units"),
    ("serve.queue_depth_max", "ops"),
    ("serve.retries", "count"),
    ("adapt.actions", "count"),
    ("adapt.self_s", "s"),
    ("cluster.rack_calls_per_op", "calls/op"),
    ("cluster.shard_imbalance", "ratio"),
    ("cluster.router_s", "s"),
    ("obs.overhead_frac", "fraction"),
)

#: the adapt controller's structural actions, one span each
ADAPT_ACTIONS = ("adapt.split", "adapt.replicate", "adapt.dereplicate",
                 "adapt.merge")


def canonical(name: str) -> str:
    """Fold per-instance span names onto the fixed vocabulary."""
    if name.startswith("epoch:"):
        return "serve.epoch"
    if name.startswith("round:"):
        return "pim.round"
    return name


def self_rollup(spans: Sequence[Any]) -> dict[str, dict[str, float]]:
    """Rows keyed by canonical span name: ``count``, inclusive
    ``wall_s``, ``self_s`` (duration minus direct children) and
    inclusive ``words``.

    ``spans`` are the spans of one tracer (``sid``/``parent`` are only
    unique within a tracer); merge several with :func:`merge_rows`.
    """
    child_wall: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_wall[s.parent] = child_wall.get(s.parent, 0.0) + s.dur
    rows: dict[str, dict[str, float]] = {}
    for s in spans:
        row = rows.setdefault(
            canonical(s.name),
            {"count": 0, "wall_s": 0.0, "self_s": 0.0, "words": 0},
        )
        row["count"] += 1
        row["wall_s"] += s.dur
        row["self_s"] += s.dur - child_wall.get(s.sid, 0.0)
        row["words"] += s.words
    return rows


def merge_rows(
    per_tracer: Iterable[dict[str, dict[str, float]]]
) -> dict[str, dict[str, float]]:
    """Sum :func:`self_rollup` rows of several tracers (cluster racks)."""
    out: dict[str, dict[str, float]] = {}
    for rows in per_tracer:
        for name, row in rows.items():
            acc = out.setdefault(name, dict.fromkeys(row, 0))
            for f, v in row.items():
                acc[f] += v
    return out


def _sum(rows: dict, field: str, names: Iterable[str] = (),
         prefix: str = "") -> float:
    names = set(names)
    return sum(
        row[field]
        for name, row in rows.items()
        if name in names or (prefix and name.startswith(prefix))
    )


def layer_metrics(
    rows: dict[str, dict[str, float]],
    *,
    ops: int,
    module_imbalance: float,
    serve: dict[str, float],
    cluster: dict[str, float],
    overhead_frac: float,
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric for one traced pass.

    ``serve`` carries the serve-loop figures read off the
    ``ServiceReport`` (``epochs``, ``ops_per_epoch``, ``host_overlap``,
    ``queue_depth_max``, ``retries``) and ``cluster`` the router
    figures (``shard_imbalance``, ``router_s``); both are empty for
    workloads that do not run that layer.
    """
    def self_s(*names: str, prefix: str = "") -> float:
        return _sum(rows, "self_s", names, prefix)

    def count(name: str) -> int:
        return int(rows.get(name, {}).get("count", 0))

    out = {
        "pim.rounds": count("pim.round"),
        "pim.round_self_s": self_s("pim.round"),
        "pim.module_imbalance": module_imbalance,
        "core.query.self_s": self_s("query.build", "query.fold"),
        "core.match.master.self_s": self_s("match.master"),
        "core.match.meta.self_s": self_s("match.meta"),
        "core.match.blocks.self_s": self_s("match.blocks"),
        "core.insert.self_s": self_s("op.insert", prefix="insert."),
        "core.delete.self_s": self_s("op.delete", prefix="delete."),
        "core.subtree.self_s": self_s("op.subtree", prefix="subtree."),
        "core.maint.self_s": self_s(prefix="maint."),
        "core.maint.rebuild_hvm.count": count("maint.rebuild_hvm"),
        "core.maint.rebuild_hvm.words": int(
            rows.get("maint.rebuild_hvm", {}).get("words", 0)
        ),
        "core.maint.rebuild_tree.count": count("maint.rebuild_tree"),
        "core.maint.repartition.count": count("maint.repartition_blocks"),
        "ordered.snapshot.count": count("ordered.snapshot"),
        "ordered.snapshot.self_s": self_s("ordered.snapshot"),
        "ordered.answer.self_s": self_s("ordered.answer"),
        "serve.epochs": serve.get("epochs", 0),
        "serve.ops_per_epoch": serve.get("ops_per_epoch", 0.0),
        "serve.prep.self_s": self_s("epoch.prep"),
        "serve.rounds.self_s": self_s("epoch.rounds"),
        "serve.assemble.self_s": self_s("epoch.assemble"),
        "serve.host_overlap": serve.get("host_overlap", 0.0),
        "serve.queue_depth_max": serve.get("queue_depth_max", 0),
        "serve.retries": serve.get("retries", 0),
        "adapt.actions": sum(count(a) for a in ADAPT_ACTIONS),
        "adapt.self_s": self_s("bench.adapt.step", prefix="adapt."),
        "cluster.rack_calls_per_op": (
            _sum(rows, "count", prefix="cluster.") / ops if ops else 0.0
        ),
        "cluster.shard_imbalance": cluster.get("shard_imbalance", 0.0),
        "cluster.router_s": cluster.get("router_s", 0.0),
        "obs.overhead_frac": overhead_frac,
    }
    assert list(out) == [name for name, _ in PER_LAYER]
    return out
