"""The four benchmark workloads, each driving a public ``repro`` API.

A workload object is one independently seeded *part* of a run (see
``run.py``).  It generates its inputs from its seed once, replays them
through :class:`~oracle.SortedDictOracle` to get the expected replies,
and then runs *passes*: :meth:`build` makes the index from scratch
(timed as set-up) and :meth:`run` sends the part's fixed op sequence
(the measured phase).  Every pass of a part does the same work, so the
PIM-model counts, the simulated latencies, the answer digest and the
final ``MetricsSnapshot`` of its passes must agree byte for byte —
traced passes included.

All four workloads use the HEADLINE index: 4096 resident uniform
256-bit keys on P=32 modules (the cluster: 4 shards x 8 modules, K=2).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from oracle import SortedDictOracle
from repro.adapt import AdaptiveController, AdaptPolicy
from repro.cluster import ClusterService, HashSharding, PIMCluster
from repro.core import PIMTrie, PIMTrieConfig
from repro.obs import Tracer, root_metric_sums
from repro.perf import reset_id_counters
from repro.pim import MetricsSnapshot, PIMSystem
from repro.serve import (
    OP_FAILED,
    EpochServer,
    policy_from_name,
    trace_from_stream,
)
from repro.serve.server import ORDERED_KINDS, WRITE_KINDS
from repro.workloads import (
    flash_crowd_stream,
    operation_stream,
    single_range_flood,
    uniform_keys,
    zipf_prefix,
)

#: index sizes: the HEADLINE configuration, and a smoke size for tests
SIZES = {
    "headline": {"P": 32, "n": 4096, "l": 256},
    "smoke": {"P": 8, "n": 256, "l": 64},
}

#: EpochServer's default service model, also used to give a batch call
#: a simulated latency: ``ROUND_TIME * io_rounds + WORD_TIME * io_time``
ROUND_TIME = 1.0
WORD_TIME = 0.001

#: seed of the op-kind sequence of the serve/cluster traces.  It is
#: fixed so every run serves the same kind sequence on a fixed-rate
#: arrival grid — the epochs' composition, which decides how many
#: write-triggered rebuilds a trace pays for, does not vary with the
#: seed; the seed draws the keys.
KIND_SEED = 0

#: serve/cluster scheduling: deadline cut, two-stage pipeline
POLICY = "deadline:20"
PREP_TIME = 0.4
ASM_TIME = 0.1


def sub_seed(seed: int, *tags: Any) -> int:
    """A 32-bit seed derived from the workload seed and a tag path."""
    h = hashlib.sha256(repr((seed,) + tags).encode()).digest()
    return int.from_bytes(h[:4], "big")


def fixed_rate(n: int, rate: float) -> np.ndarray:
    """Arrival times of an open loop issuing ``rate`` ops per unit."""
    return np.arange(1, n + 1, dtype=np.float64) / rate


def digest(obj: Any) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def snapshot_bytes(snap: MetricsSnapshot) -> str:
    return json.dumps(snap.as_dict(include_per_module=True), sort_keys=True)


def metric_sums(delta: MetricsSnapshot) -> dict[str, int]:
    """A snapshot delta in ``repro.obs`` span-metric field names."""
    return {
        "io_rounds": delta.io_rounds,
        "io_time": delta.io_time,
        "words": delta.total_communication,
        "pim_time": delta.pim_time,
        "cpu_work": delta.cpu_work,
    }


@dataclass
class PassResult:
    """What one pass measured and what it must reproduce exactly."""

    ops: int  # completed ops (keys of a batch call, or served ops)
    attempted: int
    failed: int  # oracle mismatches + OP_FAILED replies + shed ops
    wall: float  # measured phase, seconds
    #: wall latency samples: per top-level batch call (batch workloads) or
    #: per served op, admission to completion (serve/cluster)
    call_ms: list[float]
    sim: list[float]  # per-op simulated latency
    delta: MetricsSnapshot  # PIM-model delta of the measured phase
    space_per_key: float
    digest: str  # answers
    final: str  # final MetricsSnapshot(s), serialized
    problems: list[str] = field(default_factory=list)  # guards, span sums
    #: mechanism counts a run must see at least once (summed over passes)
    mechanisms: dict[str, int] = field(default_factory=dict)
    #: traced passes only: one span list per tracer
    spans: Optional[list[list[Any]]] = None
    serve: dict[str, float] = field(default_factory=dict)
    cluster: dict[str, float] = field(default_factory=dict)

    def exact(self) -> tuple:
        """Everything that must be identical across passes of a seed."""
        return (
            self.ops, self.attempted, self.failed, self.sim,
            snapshot_bytes(self.delta), self.space_per_key, self.digest,
            self.final,
        )


def _resident(seed: int, size: dict) -> tuple[list, list]:
    keys = sorted(set(uniform_keys(size["n"], size["l"],
                                   seed=sub_seed(seed, "resident"))))
    return keys, list(range(len(keys)))


def updates_in_place(stream: list, resident: list, seed: int) -> list:
    """Point a stream's inserts at resident keys (in-place updates).

    Fresh keys grow the index, and an insert batch that adds blocks can
    rebuild the whole HVM.  How many of a trace's inserts do so depends
    on the keys drawn, and at a few such rebuilds per trace that count,
    not the serving path, would set a run's wall time.  Growth is
    measured by batch-churn; the serving workloads update in place, so
    their writes still bump the ordered snapshot and drain the
    pipeline."""
    rng = np.random.default_rng(seed)
    return [
        op._replace(key=resident[int(rng.integers(len(resident)))])
        if op.kind == "insert" else op
        for op in stream
    ]


def _check_span_sums(tracer: Tracer, before: MetricsSnapshot,
                     problems: list[str], label: str = "") -> None:
    want = metric_sums(tracer.system.snapshot().delta(before))
    got = root_metric_sums(tracer.spans)
    if got != want:
        problems.append(f"span sums {got} != metrics delta {want} {label}")


# ----------------------------------------------------------------------
# closed-loop batch workloads over PIMTrie
# ----------------------------------------------------------------------
class _TrieWorkload:
    """A closed loop of back-to-back ``PIMTrie.*_batch`` calls."""

    name = ""
    #: independently seeded parts per run (see run.py)
    PARTS = 1

    def __init__(self, seed: int, size_name: str = "headline"):
        self.seed = seed
        self.size = SIZES[size_name]
        self.smoke = size_name == "smoke"
        self.keys, self.values = _resident(seed, self.size)
        #: (kind, batch) top-level calls of one pass
        self.calls: list[tuple[str, list]] = self.make_calls()
        #: values of the insert calls, by call index
        self.insert_values = {
            i: [f"w{i}.{j}" for j in range(len(batch))]
            for i, (kind, batch) in enumerate(self.calls) if kind == "insert"
        }
        oracle = SortedDictOracle(zip(self.keys, self.values))
        self.expected = [
            self._oracle_call(oracle, kind, batch, self.insert_values.get(i))
            for i, (kind, batch) in enumerate(self.calls)
        ]

    def make_calls(self) -> list[tuple[str, list]]:
        raise NotImplementedError

    @staticmethod
    def _oracle_call(oracle: SortedDictOracle, kind: str, batch: list,
                     values: Optional[list]) -> Any:
        if kind == "insert":
            new = sum(1 for k in dict.fromkeys(batch) if k not in oracle.store)
            for k, v in zip(batch, values):
                oracle.insert(k, v)
            return new
        if kind == "delete":
            gone = sum(1 for k in dict.fromkeys(batch) if k in oracle.store)
            for k in batch:
                oracle.delete(k)
            return gone
        return [oracle.apply(kind, k) for k in batch]

    @staticmethod
    def _call(trie: PIMTrie, kind: str, batch: list,
              values: Optional[list]) -> Any:
        if kind == "lcp":
            return trie.lcp_batch(batch)
        if kind == "lookup":
            return trie.lookup_batch(batch)
        if kind == "subtree":
            return trie.subtree_batch(batch)
        if kind == "insert":
            return trie.insert_batch(batch, values)
        if kind == "delete":
            return trie.delete_batch(batch)
        raise ValueError(f"unknown batch kind {kind!r}")

    def build(self) -> PIMTrie:
        reset_id_counters()
        P = self.size["P"]
        return PIMTrie(PIMSystem(P, seed=1), PIMTrieConfig(num_modules=P),
                       keys=self.keys, values=self.values)

    def guard(self, trie: PIMTrie, before: dict, calls: list[tuple],
              problems: list[str]) -> None:
        """Workload-specific check that the inputs reached their layer;
        ``calls`` holds ``(kind, spans-of-that-call or None)``."""

    def run(self, trie: PIMTrie, traced: bool = False) -> PassResult:
        system = trie.system
        tracer = Tracer(system) if traced else None
        shape = {"blocks": trie.num_blocks(), "space": trie.space_words()}
        call_ms: list[float] = []
        sim: list[float] = []
        replies: list[Any] = []
        seen: list[tuple] = []
        ops = 0
        before = system.snapshot()
        t_pass = time.perf_counter()
        for i, (kind, batch) in enumerate(self.calls):
            values = self.insert_values.get(i)
            s0 = system.snapshot()
            n_spans = len(tracer.spans) if tracer is not None else 0
            span = tracer.begin(f"bench.{kind}", cat="bench") if tracer else None
            t0 = time.perf_counter()
            out = self._call(trie, kind, batch, values)
            call_ms.append((time.perf_counter() - t0) * 1e3)
            if span is not None:
                tracer.end(span)
            d = system.snapshot().delta(s0)
            sim.extend([ROUND_TIME * d.io_rounds + WORD_TIME * d.io_time]
                       * len(batch))
            replies.append(out)
            seen.append((kind, tracer.spans[n_spans:] if tracer else None))
            ops += len(batch)
        wall = time.perf_counter() - t_pass
        delta = system.snapshot().delta(before)

        failed = 0
        for (kind, batch), got, want in zip(self.calls, replies, self.expected):
            if kind in ("insert", "delete"):
                failed += 0 if got == want else len(batch)
            else:
                failed += sum(1 for g, w in zip(got, want) if g != w)
        problems: list[str] = []
        if tracer is not None:
            _check_span_sums(tracer, before, problems)
            tracer.detach()
        self.guard(trie, shape, seen, problems)
        return PassResult(
            ops=ops, attempted=ops, failed=failed, wall=wall,
            call_ms=call_ms, sim=sim, delta=delta,
            space_per_key=trie.space_words() / max(1, trie.num_keys()),
            digest=digest(replies), final=snapshot_bytes(system.snapshot()),
            problems=problems,
            spans=[tracer.spans] if tracer is not None else None,
        )


class BatchRead(_TrieWorkload):
    """Read batches only: lcp and lookup alternate, every eighth call
    is a subtree batch, and the key distribution rotates uniform ->
    zipf-prefix -> single-range flood from call to call."""

    name = "batch-read"
    PARTS = 3
    DISTS = ("uniform", "zipf", "flood")

    def make_calls(self) -> list[tuple[str, list]]:
        n_calls, width = (12, 32) if self.smoke else (96, 256)
        l = self.size["l"]
        rng = np.random.default_rng(sub_seed(self.seed, "lookup-hits"))
        calls = []
        for i in range(n_calls):
            dist = self.DISTS[i % 3]
            s = sub_seed(self.seed, "read", i)
            if dist == "uniform":
                keys = uniform_keys(width, l, seed=s)
            elif dist == "zipf":
                keys = zipf_prefix(width, l, seed=s)
            else:
                keys = single_range_flood(width, l, seed=s)
            if i % 8 == 7:
                calls.append(("subtree", [k.prefix(10) for k in keys[::4]]))
            elif i % 2 == 0:
                calls.append(("lcp", keys))
            else:
                # a quarter of each lookup batch hits resident keys, so
                # the stored values are checked too
                for j in range(0, width, 4):
                    keys[j] = self.keys[int(rng.integers(len(self.keys)))]
                calls.append(("lookup", keys))
        return calls

    def guard(self, trie, before, calls, problems) -> None:
        if {"blocks": trie.num_blocks(), "space": trie.space_words()} != before:
            problems.append("batch-read changed the index shape")
        for kind, spans in calls:
            bad = [s.name for s in spans or ()
                   if s.name.startswith(("maint.", "ordered."))]
            if bad:
                problems.append(f"batch-read {kind} ran {sorted(set(bad))}")
                return


class BatchChurn(_TrieWorkload):
    """A repeating write cycle at flat resident size: insert fresh
    zipf-prefix keys, one lcp batch, delete the keys inserted two
    cycles earlier."""

    name = "batch-churn"
    PARTS = 4

    def make_calls(self) -> list[tuple[str, list]]:
        cycles, ins, width = (4, 4, 32) if self.smoke else (8, 64, 256)
        l = self.size["l"]
        # one pool, so inserts and reads share the zipf hot prefixes
        pool = zipf_prefix(cycles * (2 * ins + width), l,
                           seed=sub_seed(self.seed, "churn"))
        resident = set(self.keys)
        fresh = [k for k in dict.fromkeys(pool[: cycles * ins * 2])
                 if k not in resident][: cycles * ins]
        queries = pool[cycles * ins * 2:][: cycles * width]
        if len(fresh) < cycles * ins or len(queries) < cycles * width:
            raise RuntimeError("churn key pool too small")
        calls = []
        for c in range(cycles):
            calls.append(("insert", fresh[c * ins:(c + 1) * ins]))
            calls.append(("lcp", queries[c * width:(c + 1) * width]))
            if c >= 2:
                calls.append(("delete", fresh[(c - 2) * ins:(c - 1) * ins]))
        return calls

    def guard(self, trie, before, calls, problems) -> None:
        for kind, spans in calls:
            if spans is not None and kind == "insert" and not any(
                s.name.startswith("maint.") for s in spans
            ):
                problems.append("an insert batch ran no maint.* span")
                return


# ----------------------------------------------------------------------
# open-loop serving workloads on a simulated clock
# ----------------------------------------------------------------------
class _SpannedAdapt:
    """Wraps an adapt controller so each ``step`` is a benchmark span."""

    def __init__(self, inner: AdaptiveController, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def step(self) -> dict:
        with self.tracer.span("bench.adapt.step", cat="bench"):
            return self.inner.step()

    def summary(self) -> dict:
        return self.inner.summary()


class _ServeWorkload:
    """Serve a fixed trace; replies are checked per op against the
    oracle replayed in arrival order."""

    name = ""
    PARTS = 1

    def __init__(self, seed: int, size_name: str = "headline"):
        self.seed = seed
        self.size = SIZES[size_name]
        self.smoke = size_name == "smoke"
        self.keys, self.values = _resident(seed, self.size)
        self.trace = self.make_trace()
        oracle = SortedDictOracle(zip(self.keys, self.values))
        self.expected = {
            op.seq: oracle.apply(op.kind, op.key, op.value)
            for op in sorted(self.trace.ops, key=lambda o: o.seq)
        }

    def make_trace(self):
        raise NotImplementedError

    def _score(self, report) -> tuple[int, int, str]:
        """(completed ops, failed ops, answer digest) of a report."""
        replies = {c.seq: c.reply for c in report.completed}
        failed = sum(
            1 for seq, want in self.expected.items()
            if seq not in replies or replies[seq] is OP_FAILED
            or replies[seq] != want
        )
        return len(report.completed), failed, digest(sorted(replies.items()))

    def _serve_stats(self, report) -> dict[str, float]:
        epochs = report.epochs
        scheduled = {op.seq: op.time for op in self.trace.ops}
        return {
            # how far behind its schedule the open-loop generator ran
            "generator_late": max(c.arrival - scheduled[c.seq]
                                  for c in report.completed),
            "epochs": len(epochs),
            "ops_per_epoch": len(report.completed) / max(1, len(epochs)),
            "host_overlap": report.host_overlap,
            "queue_depth_max": max((e.queue_depth for e in epochs), default=0),
            "retries": report.total_retries,
        }

    @staticmethod
    def _wall_ms(report) -> list[float]:
        """Per-op wall latency: the host wall time of the epochs an op
        waited through, from admission to completion."""
        return [c.wall_seconds * 1e3 for c in report.completed]

    @staticmethod
    def _sim(report) -> list[float]:
        return [c.completion - c.arrival
                for c in sorted(report.completed, key=lambda c: c.seq)]


class ServeMixed(_ServeWorkload):
    """``EpochServer`` (pipelined, ``deadline:20``) with the adapt
    controller on, serving moving flash crowds below saturation; writes
    update resident keys in place (:func:`updates_in_place`)."""

    name = "serve-mixed"
    MIX = {"lcp": 0.58, "insert": 0.06, "delete": 0.04, "subtree": 0.05,
           "pred": 0.07, "succ": 0.07, "range": 0.07, "topk": 0.06}
    RATE = 0.35
    PARTS = 10
    OPS = 400

    def make_trace(self):
        n = 120 if self.smoke else self.OPS
        # all-lcp stream: the flash-crowd keys, untransformed
        crowd = flash_crowd_stream(
            n, self.size["l"], num_crowds=3, crowd_fraction=0.9,
            mix={"lcp": 1.0}, seed=sub_seed(self.seed, "serve"),
        )
        stream = operation_stream(
            n, self.size["l"], mix=self.MIX, seed=KIND_SEED,
            keys=[op.key for op in crowd], times=fixed_rate(n, self.RATE),
        )
        stream = updates_in_place(stream, self.keys,
                                  sub_seed(self.seed, "updates"))
        return trace_from_stream(stream, seed=sub_seed(self.seed, "clients"),
                                 name=self.name)

    def build(self):
        reset_id_counters()
        P = self.size["P"]
        trie = PIMTrie(PIMSystem(P, seed=1), PIMTrieConfig(num_modules=P),
                       keys=self.keys, values=self.values)
        bound = trie.config.block_bound
        # BENCH_adapt's thresholds (repro.adapt.bench._adapt_policy)
        ctl = AdaptiveController(trie, AdaptPolicy(
            hot_fraction=0.10, cold_fraction=0.02, min_window=24.0,
            cooldown=1, max_replicas=2, split_bound=max(8, bound // 8),
            max_actions_per_epoch=4,
        ))
        return trie, ctl

    def run(self, state, traced: bool = False) -> PassResult:
        trie, ctl = state
        system = trie.system
        tracer = Tracer(system) if traced else None
        server = EpochServer(
            trie, policy_from_name(POLICY),
            adapt=_SpannedAdapt(ctl, tracer) if tracer else ctl,
            pipelined=True, prep_time=PREP_TIME, asm_time=ASM_TIME,
        )
        before = system.snapshot()
        t0 = time.perf_counter()
        if tracer is not None:
            with tracer.span("bench.serve.run", cat="bench"):
                report = server.run(self.trace)
        else:
            report = server.run(self.trace)
        wall = time.perf_counter() - t0
        problems: list[str] = []
        if tracer is not None:
            _check_span_sums(tracer, before, problems)
            tracer.detach()
        done, failed, dig = self._score(report)
        return PassResult(
            ops=done, attempted=len(self.trace), failed=failed, wall=wall,
            call_ms=self._wall_ms(report),
            sim=self._sim(report), delta=report.metrics,
            space_per_key=trie.space_words() / max(1, trie.num_keys()),
            digest=dig, final=snapshot_bytes(system.snapshot()),
            problems=problems, mechanisms=self._mechanisms(report, ctl),
            spans=[tracer.spans] if tracer is not None else None,
            serve=self._serve_stats(report),
        )

    @staticmethod
    def _mechanisms(report, ctl) -> dict[str, int]:
        wrote = False
        read_after_write = 0
        for e in report.epochs:
            if wrote and ORDERED_KINDS.intersection(e.kinds):
                read_after_write += 1
            wrote = wrote or bool(WRITE_KINDS.intersection(e.kinds))
        s = ctl.summary()
        return {
            "ordered-read epoch after a write epoch": read_after_write,
            "adapt action": sum(s[k] for k in ("split", "replicate",
                                               "dereplicate", "merge")),
        }


class ClusterMixed(_ServeWorkload):
    """``ClusterService`` over ``PIMCluster`` (hash sharding, 4 shards,
    K=2, pipelined, ``deadline:20``): read-heavy zipf traffic with
    cross-shard ordered reads and replicated in-place writes."""

    name = "cluster-mixed"
    MIX = {"lcp": 0.50, "insert": 0.08, "delete": 0.05, "subtree": 0.05,
           "pred": 0.07, "succ": 0.07, "range": 0.07, "topk": 0.07,
           "count": 0.04}
    RATE = 0.35
    PARTS = 3
    OPS = 1500
    SHARDS = 4
    REPLICATION = 2

    def make_trace(self):
        n = 60 if self.smoke else self.OPS
        stream = operation_stream(
            n, self.size["l"], mix=self.MIX, seed=KIND_SEED,
            keys=zipf_prefix(n, self.size["l"],
                             seed=sub_seed(self.seed, "cluster")),
            times=fixed_rate(n, self.RATE),
        )
        stream = updates_in_place(stream, self.keys,
                                  sub_seed(self.seed, "updates"))
        return trace_from_stream(stream, seed=sub_seed(self.seed, "clients"),
                                 name=self.name)

    def build(self) -> PIMCluster:
        reset_id_counters()
        return PIMCluster(
            HashSharding(self.SHARDS), replication=self.REPLICATION,
            modules_per_rack=self.size["P"] // self.SHARDS,
            root_seed=sub_seed(self.seed, "racks"),
            keys=self.keys, values=self.values,
        )

    def run(self, cluster: PIMCluster, traced: bool = False) -> PassResult:
        racks = list(cluster.iter_racks())
        tracers = [Tracer(r.system) for r in racks] if traced else []
        service = ClusterService(
            cluster, policy_from_name(POLICY), pipelined=True,
            prep_time=PREP_TIME, asm_time=ASM_TIME,
        )
        mark = cluster.mark()
        t0 = time.perf_counter()
        report = service.run(self.trace)
        wall = time.perf_counter() - t0
        problems: list[str] = []
        for tracer, rack in zip(tracers, racks):
            _check_span_sums(tracer, mark[rack.uid], problems, str(rack))
            tracer.detach()
        done, failed, dig = self._score(report)
        traffic = cluster.shard_traffic(mark)
        mean = sum(traffic) / len(traffic)
        cl = {"shard_imbalance": max(traffic) / mean if mean else 0.0}
        if tracers:
            rack_wall = sum(s.dur for t in tracers for s in t.spans
                            if s.parent is None)
            cl["router_s"] = wall - rack_wall
        space = sum(r.trie.space_words() for r in racks)
        stored = sum(r.trie.num_keys() for r in racks)
        final = {str(uid): snapshot_bytes(s)
                 for uid, s in sorted(cluster.snapshots().items())}
        return PassResult(
            ops=done, attempted=len(self.trace), failed=failed, wall=wall,
            call_ms=self._wall_ms(report),
            sim=self._sim(report), delta=report.metrics,
            space_per_key=space / max(1, stored), digest=dig,
            final=json.dumps(final, sort_keys=True), problems=problems,
            mechanisms={"range/topk op over several shards":
                        self._multi_shard(cluster)},
            spans=[t.spans for t in tracers] if tracers else None,
            serve=self._serve_stats(report), cluster=cl,
        )

    def _multi_shard(self, cluster: PIMCluster) -> int:
        policy = cluster.policy
        n = 0
        for op in self.trace.ops:
            if op.kind == "range":
                n += len(set(policy.range_targets(op.key, op.value[0]))) > 1
            elif op.kind == "topk":
                n += len(set(policy.subtree_targets(op.key))) > 1
        return n


WORKLOADS = {w.name: w for w in (BatchRead, BatchChurn, ServeMixed,
                                 ClusterMixed)}
