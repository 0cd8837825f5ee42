"""Serve-layer frontend for a cluster: per-shard epochs, rack-loss
injection, failover availability.

:class:`ClusterService` is :class:`repro.serve.EpochServer` with a
cluster router as its executor.  It runs on the server's one epoch
loop — the same arrival loop, continuous-batching scheduler, admission
control, pipeline clock, write-hazard drain rule and closed-loop
``adaptive:*`` knob tuning — and overrides only the executor hooks, so
each service epoch fans out through the :class:`PIMCluster` router
into per-shard sub-epochs on independent racks:

* **segments** run through the router's ``_execute``; an op whose
  shard has no surviving replica answers
  :data:`~repro.serve.slo.OP_FAILED` (the availability metric of
  ``BENCH_cluster.json``) instead of retrying;
* **service model** — racks run in parallel, so an epoch's module-round
  time is the *maximum* over racks of that rack's
  ``round_time * io_rounds + word_time * io_time`` delta (the critical
  path), while its :class:`~repro.serve.slo.EpochRecord` carries the
  summed deltas, merged via ``MetricsSnapshot.merge``, for throughput
  accounting;
* **rack loss** — a :class:`~repro.cluster.plan.RackLossPlan` schedules
  whole-rack deaths on the epoch clock.  A loss fires *inside* its
  epoch, immediately before the first segment that routes work to the
  doomed rack's shard (losses whose shard stays idle fire at epoch
  end), so the remainder of the epoch exercises failover read-routing,
  not a clean restart;
* **proactive heal** — dead slots are rebuilt by a
  :meth:`PIMCluster.rebalance` sweep at the next epoch launch (the
  cluster analogue of the server's proactive module recovery), and the
  rebuild rounds are charged to that epoch's service time.

The cluster has no single PIM system, so the loop's epoch, phase and
``sched.*`` spans are no-ops here; each rack's own tracer still sees
the router's per-rack spans.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any, Optional

from ..pim import MetricsSnapshot
from ..serve.scheduler import SchedulerPolicy
from ..serve.server import WRITE_KINDS, EpochServer, grouped_by_param
from ..serve.slo import OP_FAILED, EpochRecord
from ..serve.trace import Operation
from .cluster import PIMCluster
from .plan import RackLossPlan

__all__ = ["ClusterService"]


class ClusterService(EpochServer):
    """Continuous-batching frontend over a :class:`PIMCluster`.

    ``adapt`` is a :class:`repro.adapt.ClusterAdaptiveController`
    (one controller and sketch per rack).
    """

    #: no single system to trace (see the module docstring)
    system = None

    def __init__(
        self,
        cluster: PIMCluster,
        policy: SchedulerPolicy,
        *,
        round_time: float = 1.0,
        word_time: float = 0.001,
        plan: Optional[RackLossPlan] = None,
        adapt: Optional[Any] = None,
        pipelined: bool = False,
        prep_time: float = 0.0,
        asm_time: float = 0.0,
    ):
        super().__init__(
            cluster, policy, round_time=round_time, word_time=word_time,
            adapt=adapt, pipelined=pipelined, prep_time=prep_time,
            asm_time=asm_time,
        )
        self.cluster = cluster
        self.plan = plan if plan is not None else RackLossPlan.empty()

    # ------------------------------------------------------------------
    def _apply_losses(self, ep: SimpleNamespace, shards: set[int]) -> None:
        """Fire this epoch's pending losses whose shard is in ``shards``."""
        for shard, slot in sorted(ep.losses):
            if shard in shards:
                if self.cluster.fail_rack(shard, slot) is not None:
                    ep.causes.append(f"rack-loss:{shard}.{slot}")
                ep.losses.discard((shard, slot))

    def _segment_shards(self, kind: str, ops: list[Operation]) -> set[int]:
        # range ops route on their (lo, hi) interval — lo is the op key,
        # hi rides in value[0] next to the limit
        return {
            s
            for op in ops
            for s in self.cluster._targets(
                kind,
                (op.key, op.value[0]) if kind == "range" else op.key,
            )
        }

    # ------------------------------------------------------------------
    # executor hooks (see EpochServer)
    # ------------------------------------------------------------------
    def _degraded(self) -> bool:
        return self.cluster.degraded

    def _begin_epoch(self, ep: SimpleNamespace) -> None:
        ep.losses = {
            (loss.shard, loss.replica) for loss in self.plan.for_epoch(ep.index)
        }
        # replacement racks for slots lost in earlier epochs come up
        # before new work launches
        if self.plan.rebalance and self.cluster.degraded:
            ep.recovery_rounds += self.cluster.rebalance()

    def _run_segment(
        self, kind: str, ops: list[Operation], ep: SimpleNamespace
    ) -> list[Any]:
        # a death scheduled for this epoch strikes the moment its shard
        # is about to run — mid-epoch, not between
        self._apply_losses(ep, self._segment_shards(kind, ops))
        values = [op.value for op in ops] if kind == "insert" else None

        def route(keys: list[Any], extra: Optional[int] = None) -> list[Any]:
            replies, ok, _ = self.cluster._execute(kind, keys, values, extra=extra)
            if kind in WRITE_KINDS:
                replies = [True] * len(keys)
            return [r if good else OP_FAILED for r, good in zip(replies, ok)]

        if kind in ("range", "topk"):
            return grouped_by_param(kind, ops, route)
        return route([op.key for op in ops])

    def _end_epoch(self, ep: SimpleNamespace) -> None:
        # losses whose shard saw no work this epoch still happen
        self._apply_losses(ep, set(range(self.cluster.num_shards)))

    def _adapt_step(self, ep: SimpleNamespace) -> bool:
        # per-rack adaptive maintenance inside the epoch's metrics
        # window — billed to the racks it rebalances
        stats = self.adapt.step()
        return isinstance(stats, dict) and any(
            stats.get(k)
            for k in ("actions", "split", "replicate", "dereplicate", "merge")
        )

    def _mark(self) -> Any:
        return self.cluster.mark()

    def _delta(self, mark: Any) -> MetricsSnapshot:
        return self.cluster.delta(mark)

    def _measure(
        self, mark: Any, ep: SimpleNamespace
    ) -> tuple[MetricsSnapshot, float]:
        deltas = self.cluster.delta_by_rack(mark)
        merged = MetricsSnapshot.merge(*(deltas[u] for u in sorted(deltas)))
        # racks run in parallel: the epoch's module-round phase takes as
        # long as its slowest rack (recovery included)
        return merged, max(
            (self.service_time(d) for d in deltas.values()), default=0.0
        )

    def _report_fields(self, epochs: list[EpochRecord]) -> tuple[dict, dict]:
        cluster = self.cluster
        losses = sum(len(e.causes) for e in epochs)
        faults = (
            {
                "rack_losses": losses,
                "rebuilds": sum(
                    1 for ev in cluster.events if ev["event"] == "rebuild"
                ),
                "lost_shards": sorted(cluster.lost_shards),
            }
            if losses
            else {}
        )
        return faults, {
            "sharding": cluster.policy.describe(),
            "shards": cluster.num_shards,
            "replication": cluster.replication,
            "modules_per_rack": cluster.modules_per_rack,
        }
