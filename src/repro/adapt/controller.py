"""Sketch-guided adaptive skew defense (the adapt layer's hands).

The :class:`AdaptiveController` closes the loop the ROADMAP asks for:
the serve layer drains per-epoch block access counters
(``PIMTrie.take_block_touches``) into a decayed Count-Min sketch keyed
by **block base prefix**, and the controller reacts online:

* **hot block** (estimated share of recent traffic above
  ``hot_fraction``) → **split** it across fresh modules with a finer
  block bound (``PIMTrie.split_block``), and if it cannot fracture
  further (or is already fine-grained) → **replicate** it so reads
  round-robin across copies (``PIMTrie.replicate_block``).
* **cold block** (share below ``cold_fraction``) → retire its replicas
  (``dereplicate_block``) and, for blocks this controller previously
  split, fold the children back in (``merge_block``).

Shares are scanned for all live blocks at once: each block's sketch row
indices are cached (a base is hashed once in its lifetime, and the
cache is pruned to the live blocks every step), one numpy gather over
the counter matrix plus a row-wise min yields every estimate, and only
shares at or above ``hot_fraction`` are kept and sorted.  The result
equals :meth:`AdaptiveController.block_share` per block float for
float, so the actions are the ones a per-block loop would take.

Every action runs inside an ``adapt.*`` span (cat ``"adapt"``), so the
obs layer attributes the maintenance rounds to the controller and the
span-sum invariant stays byte-exact.  Decisions use only host-side
state (sketch + registries) — deciding costs nothing; only *acting*
spends accounted rounds.

Correctness is structural: split / replicate / merge change placement,
never the key set, so any interleaving of controller actions with
client batches leaves every answer identical to the adapt-off replay
(``tests/test_adapt.py`` proves this differentially against the dict
oracle).

:class:`ClusterAdaptiveController` lifts the same loop to
``repro.cluster``: one controller (and sketch) per rack, with the
per-rack sketches merged into a router-level view for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from ..bits import BitString
from ..obs.tracer import maybe_span
from .sketch import CountMinSketch

__all__ = ["AdaptPolicy", "AdaptiveController", "ClusterAdaptiveController"]


@dataclass
class AdaptPolicy:
    """Thresholds and hysteresis for the adaptive controller.

    The hot/cold thresholds are *fractions of the sketch's decayed
    total mass*, so they track traffic share rather than absolute
    counts and need no retuning across request rates.  Hysteresis comes
    from three places: ``hot_fraction`` is well above ``cold_fraction``
    (a block must fall a long way before its defenses are torn down),
    ``cooldown`` spaces repeat actions on the same block, and
    ``min_window`` keeps the controller idle until the sketch has seen
    enough mass to trust.
    """

    #: sketch geometry (width ~ e/eps counters per row, depth rows)
    sketch_width: int = 256
    sketch_depth: int = 4
    #: per-epoch exponential decay of the sketch window
    decay: float = 0.75
    #: hash seed for the sketch rows
    seed: int = 0
    #: a block whose estimated share of the decayed window exceeds
    #: this is hot
    hot_fraction: float = 0.15
    #: a block whose estimated share falls below this is cold
    cold_fraction: float = 0.03
    #: minimum decayed window mass before any action is taken
    min_window: float = 32.0
    #: epochs to wait between actions on the same block
    cooldown: int = 2
    #: cap on extra read copies per block
    max_replicas: int = 2
    #: only split blocks holding at least this many keys
    split_min_keys: int = 4
    #: word bound for split_block (None = block_bound // 4)
    split_bound: Optional[int] = None
    #: cap on structural actions per step (bounds per-epoch overhead)
    max_actions_per_epoch: int = 4


class AdaptiveController:
    """Per-trie adaptive loop: observe → estimate → split/replicate/merge."""

    def __init__(self, trie: Any, policy: Optional[AdaptPolicy] = None):
        self.trie = trie
        self.policy = policy or AdaptPolicy()
        p = self.policy
        self.sketch = CountMinSketch(
            p.sketch_width, p.sketch_depth, seed=p.seed, decay=p.decay
        )
        #: completed epochs observed
        self.epoch = 0
        #: block id -> epoch of the last structural action on it
        self._last_action: dict[int, int] = {}
        #: roots of splits *this controller* performed (merge candidates)
        self._split_roots: dict[int, int] = {}
        #: running action counters (reported via summary())
        self.counts = {
            "split": 0, "replicate": 0, "dereplicate": 0, "merge": 0,
        }
        #: per-step action log: (epoch, kind, block_id, detail)
        self.log: list[tuple[int, str, int, Any]] = []
        #: live block id -> (base, sketch row indices): each base is
        #: hashed once in its lifetime, not once per step
        self._rows: dict[int, tuple[BitString, list[int]]] = {}

    # ------------------------------------------------------------------
    # observe
    # ------------------------------------------------------------------
    def observe(self, touches: Optional[dict[int, int]] = None) -> float:
        """Age the sketch window one epoch, then feed it this epoch's
        block access counts (drained from the trie unless given).
        Counts are keyed by the block's base prefix, so estimates
        survive splits and merges that reuse the block id.  Returns the
        mass added."""
        self.sketch.decay()
        if touches is None:
            touches = self.trie.take_block_touches()
        added = 0.0
        for bid, n in touches.items():
            base = self.trie._root_strings.get(bid)
            if base is None:  # block vanished since the batch ran
                continue
            self.sketch.add(base, float(n))
            added += n
        return added

    def block_share(self, bid: int) -> float:
        """Estimated fraction of the decayed window hitting ``bid``."""
        if self.sketch.total <= 0.0:
            return 0.0
        base = self.trie._root_strings.get(bid)
        if base is None:
            return 0.0
        return self.sketch.estimate(base) / self.sketch.total

    def _hot_shares(self) -> list[tuple[float, int]]:
        """``(share, bid)`` of every live block whose share is at least
        ``hot_fraction``, sorted by ``(-share, bid)``.

        Equal to :meth:`block_share` on each block, but computed with
        one gather-and-min over the sketch rows for all blocks at once,
        from row indices cached per live block (pruned each step to the
        blocks still live)."""
        sketch, total = self.sketch, self.sketch.total
        roots = self.trie._root_strings
        old, rows = self._rows, {}
        bids = list(self.trie.block_module)
        stale: list[tuple[int, BitString]] = []
        for bid in bids:
            # every live block has a base (set and dropped together)
            base = roots[bid]
            ent = old.get(bid)
            if ent is None or ent[0] != base:
                stale.append((bid, base))
            else:
                rows[bid] = ent
        if stale:
            fresh = sketch.indices_many([base for _, base in stale]).tolist()
            for (bid, base), idx in zip(stale, fresh):
                rows[bid] = (base, idx)
        self._rows = rows
        if total > 0.0 and bids:
            idx = np.array([rows[b][1] for b in bids], dtype=np.intp)
            shares = (sketch.estimate_rows(idx) / total).tolist()
        else:
            shares = [0.0] * len(bids)
        hot = self.policy.hot_fraction
        out = [(s, b) for s, b in zip(shares, bids) if s >= hot]
        out.sort(key=lambda sb: (-sb[0], sb[1]))
        return out

    # ------------------------------------------------------------------
    # act
    # ------------------------------------------------------------------
    def _cooled(self, bid: int) -> bool:
        last = self._last_action.get(bid)
        return last is None or self.epoch - last >= self.policy.cooldown

    def _act_hot(self, bid: int, budget: int) -> int:
        """Defend one hot block; returns actions spent (0 or 1)."""
        p, trie = self.policy, self.trie
        if budget <= 0 or not self._cooled(bid):
            return 0
        if bid not in trie.block_module:
            return 0
        # prefer splitting (permanently spreads the load); fall back to
        # replication when the block cannot fracture further
        if trie.block_keys.get(bid, 0) >= p.split_min_keys:
            with maybe_span(trie.system, "adapt.split", cat="adapt"):
                made = trie.split_block(bid, bound=p.split_bound)
            if made > 0:
                self._split_roots[bid] = self.epoch
                self._last_action[bid] = self.epoch
                self.counts["split"] += 1
                self.log.append((self.epoch, "split", bid, made))
                return 1
        reps = trie.block_replicas.get(bid, ())
        if len(reps) < p.max_replicas:
            with maybe_span(trie.system, "adapt.replicate", cat="adapt"):
                m = trie.replicate_block(bid)
            if m is not None:
                self._last_action[bid] = self.epoch
                self.counts["replicate"] += 1
                self.log.append((self.epoch, "replicate", bid, m))
                return 1
        return 0

    def _act_cold(self, bid: int, budget: int) -> int:
        """Tear down one cold block's defenses; returns actions spent."""
        p, trie = self.policy, self.trie
        if budget <= 0 or not self._cooled(bid):
            return 0
        if trie.block_replicas.get(bid):
            with maybe_span(trie.system, "adapt.dereplicate", cat="adapt"):
                trie.dereplicate_block(bid)
            self._last_action[bid] = self.epoch
            self.counts["dereplicate"] += 1
            self.log.append((self.epoch, "dereplicate", bid, None))
            return 1
        if bid in self._split_roots and trie.block_children.get(bid):
            kids = trie.block_children[bid]
            # only reverse our own splits, only while every child is
            # also cold, and only if the merged block stays bounded
            if any(
                self.block_share(c) >= p.cold_fraction for c in kids
            ):
                return 0
            total_keys = trie.block_keys.get(bid, 0) + sum(
                trie.block_keys.get(c, 0) for c in kids
            )
            if total_keys > trie.config.block_bound:
                return 0
            with maybe_span(trie.system, "adapt.merge", cat="adapt"):
                absorbed = trie.merge_block(bid)
            del self._split_roots[bid]
            self._last_action[bid] = self.epoch
            self.counts["merge"] += 1
            self.log.append((self.epoch, "merge", bid, absorbed))
            return 1
        return 0

    def step(self, touches: Optional[dict[int, int]] = None) -> dict:
        """One epoch of the loop: observe, then act within budget.

        Returns a summary dict (also what lands in
        ``ServiceReport.extra['adapt']``).
        """
        p = self.policy
        added = self.observe(touches)
        self.epoch += 1
        actions = 0
        if self.sketch.total >= p.min_window:
            for share, bid in self._hot_shares():
                if actions >= p.max_actions_per_epoch:
                    break
                if share >= p.hot_fraction:
                    actions += self._act_hot(
                        bid, p.max_actions_per_epoch - actions
                    )
            # cold pass: blocks carrying defenses whose traffic faded
            cold = [
                bid
                for bid in sorted(
                    set(self.trie.block_replicas) | set(self._split_roots)
                )
                if self.block_share(bid) < p.cold_fraction
            ]
            for bid in cold:
                if actions >= p.max_actions_per_epoch:
                    break
                actions += self._act_cold(
                    bid, p.max_actions_per_epoch - actions
                )
        return {
            "epoch": self.epoch,
            "window_mass": round(self.sketch.total, 3),
            "observed": added,
            "actions": actions,
            **self.counts,
            "replicated_blocks": len(self.trie.block_replicas),
        }

    def summary(self) -> dict:
        """Cumulative controller state for reports."""
        return {
            "epochs": self.epoch,
            "window_mass": round(self.sketch.total, 3),
            **self.counts,
            "replicated_blocks": len(self.trie.block_replicas),
            "split_roots": len(self._split_roots),
        }


class ClusterAdaptiveController:
    """Adaptive loop over a ``repro.cluster`` PIMCluster: one
    :class:`AdaptiveController` (and sketch) per rack, created lazily
    keyed by ``rack.uid`` so a replacement rack after failover gets a
    fresh controller.  :meth:`router_sketch` merges the live per-rack
    sketches into one router-level view of the cluster's hot set."""

    def __init__(self, cluster: Any, policy: Optional[AdaptPolicy] = None):
        self.cluster = cluster
        self.policy = policy or AdaptPolicy()
        self._by_rack: dict[tuple, AdaptiveController] = {}

    def controller_for(self, rack: Any) -> AdaptiveController:
        ctl = self._by_rack.get(rack.uid)
        if ctl is None:
            ctl = AdaptiveController(rack.trie, self.policy)
            self._by_rack[rack.uid] = ctl
        return ctl

    def step(self) -> dict:
        """Step every live rack's controller; returns a cluster summary."""
        per_rack: dict[tuple, dict] = {}
        for rack in self.cluster.iter_racks():
            if not rack.alive:
                continue
            per_rack[rack.uid] = self.controller_for(rack).step()
        totals = {"split": 0, "replicate": 0, "dereplicate": 0, "merge": 0}
        for s in per_rack.values():
            for k in totals:
                totals[k] += s[k]
        return {
            "racks": len(per_rack),
            **totals,
            "router_mass": round(self.router_sketch_total(), 3),
        }

    def router_sketch(self) -> Optional[CountMinSketch]:
        """Merged per-rack sketches (same dims/seed ⇒ mergeable); the
        router's view of global prefix heat.  None before any step."""
        merged: Optional[CountMinSketch] = None
        for ctl in self._by_rack.values():
            if merged is None:
                merged = ctl.sketch.copy()
            elif merged.compatible(ctl.sketch):
                merged.merge(ctl.sketch)
        return merged

    def router_sketch_total(self) -> float:
        s = self.router_sketch()
        return s.total if s is not None else 0.0

    def summary(self) -> dict:
        totals = {"split": 0, "replicate": 0, "dereplicate": 0, "merge": 0}
        for ctl in self._by_rack.values():
            for k in totals:
                totals[k] += ctl.counts[k]
        return {
            "racks": len(self._by_rack),
            **totals,
            "router_mass": round(self.router_sketch_total(), 3),
        }
