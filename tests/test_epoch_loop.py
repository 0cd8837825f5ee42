"""Golden reports pinning the shared epoch loop for both executors.

One :class:`EpochServer` event loop drives a single :class:`PIMTrie`
and, through :class:`ClusterService`'s executor hooks, a
:class:`PIMCluster` router.  Every cell of the matrix below — executor
x {sequential, pipelined} x {adapt off, on} x fault plan — is reduced
to one digest over everything the report measured on the simulated
clock: the :class:`EpochRecord`s and :class:`CompletedOp`s (minus
``wall_seconds``), the PIM Model metrics, ``failed``, ``faults`` and
``extra``.  The hard-coded digests were recorded before the cluster's
copy of the loop was folded into the shared one, so any drift in
admission, the pipeline clock, the write-hazard drain rule, fault
bookkeeping or reply assembly shows up as a changed digest.

The module also pins the one behaviour the merge added: an
``adaptive:*`` scheduling policy on a cluster retunes its knobs.
"""

import hashlib
from dataclasses import fields

import pytest

from repro import PIMSystem, PIMTrie, PIMTrieConfig
from repro.adapt import AdaptiveController, AdaptPolicy, ClusterAdaptiveController
from repro.cluster import ClusterService, HashSharding, PIMCluster, rack_loss_schedule
from repro.faults import FaultPlan, StragglerSpec
from repro.perf import reset_id_counters
from repro.serve import EpochServer, make_trace, policy_from_name, replay_direct
from repro.serve.slo import OP_FAILED
from repro.workloads import uniform_keys

P = 4
RESIDENT = 96
N_OPS = 160
LENGTH = 32
#: every op kind, ordered reads included, so the drain rule is exercised
MIX = {"lcp": 0.3, "insert": 0.15, "delete": 0.1, "subtree": 0.1,
       "pred": 0.1, "succ": 0.05, "range": 0.1, "count": 0.05,
       "topk": 0.05}
#: short deadline: many small epochs, so prep overlaps rounds often
POLICY = "deadline:4"
#: pipelined cells use host-phase costs large enough to shift the clock
PIPELINE = {"pipelined": True, "prep_time": 0.4, "asm_time": 0.1}
#: crashes healed by proactive recovery, an abort that heals on retry,
#: a straggler, and a burst of aborts that exhausts max_retries=1
TRIE_FAULTS = FaultPlan(
    crashes={1: 6, 3: 60},
    transient_errors={(20, 2)} | {(r, 0) for r in range(90, 100)},
    stragglers=(StragglerSpec(2, 3.0, 30, 50),),
)
ADAPT = AdaptPolicy(
    hot_fraction=0.05, cold_fraction=0.02, min_window=4.0, cooldown=0,
    max_replicas=2, split_min_keys=2, max_actions_per_epoch=8,
)


def _trace():
    return make_trace(N_OPS, length=LENGTH, mix=MIX, rate=0.5,
                      skew="zipf", seed=5, name="epoch-loop")


def _resident():
    return uniform_keys(RESIDENT, LENGTH, seed=6)


def _trie_report(*, pipelined, adapt, faults):
    reset_id_counters()
    keys = _resident()
    trie = PIMTrie(PIMSystem(P, seed=1), PIMTrieConfig(num_modules=P),
                   keys=keys, values=keys)
    if faults:
        trie.system.install_faults(TRIE_FAULTS)
    server = EpochServer(
        trie, policy_from_name(POLICY), max_retries=1,
        adapt=AdaptiveController(trie, ADAPT) if adapt else None,
        **(PIPELINE if pipelined else {}),
    )
    return server.run(_trace())


def _cluster(adapt):
    reset_id_counters()
    keys = _resident()
    cluster = PIMCluster(HashSharding(2), replication=2,
                         modules_per_rack=P, root_seed=3,
                         keys=keys, values=keys)
    ctl = ClusterAdaptiveController(cluster, ADAPT) if adapt else None
    return cluster, ctl


def _cluster_report(*, pipelined, adapt, plan):
    cluster, ctl = _cluster(adapt)
    service = ClusterService(
        cluster, policy_from_name(POLICY),
        plan=rack_loss_schedule(plan, num_shards=2, replication=2),
        adapt=ctl, **(PIPELINE if pipelined else {}),
    )
    return service.run(_trace())


def _without_wall(record):
    return tuple(
        (f.name, getattr(record, f.name))
        for f in fields(record)
        if f.name != "wall_seconds"
    )


def report_digest(report):
    """Digest of everything a report measured on the simulated clock."""
    blob = repr((
        [_without_wall(e) for e in report.epochs],
        [_without_wall(c) for c in report.completed],
        report.metrics.as_dict(include_per_module=True),
        report.failed,
        report.faults,
        report.extra,
    ))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


#: (executor, pipelined, adapt, fault plan) -> digest at the parent commit
GOLDEN = {
    ('trie', False, False, 'none'): 'abca8691e74f476c',
    ('trie', False, False, 'faulty'): '43755c3156d0438a',
    ('trie', False, True, 'none'): '36fc8f967df11897',
    ('trie', False, True, 'faulty'): '112366800b4e593c',
    ('trie', True, False, 'none'): '02f57e3b11fcd133',
    ('trie', True, False, 'faulty'): 'a09b51b203b15a66',
    ('trie', True, True, 'none'): '34efa320f0e5b92e',
    ('trie', True, True, 'faulty'): '3a8a0f65aba38b44',
    ('cluster', False, False, 'rolling'): 'c4bf05700be74183',
    ('cluster', False, False, 'shard-wipe'): 'c9c9ea8277609f52',
    ('cluster', False, True, 'rolling'): 'e15b7800e601b4de',
    ('cluster', False, True, 'shard-wipe'): '0bcf23ea7d784245',
    ('cluster', True, False, 'rolling'): '1bcea06c667f86ce',
    ('cluster', True, False, 'shard-wipe'): '94506e3d1e9f38a0',
    ('cluster', True, True, 'rolling'): '8356856c54ac0bd7',
    ('cluster', True, True, 'shard-wipe'): '343d5fe94ec7b1c5',
}


def _report(executor, pipelined, adapt, plan):
    if executor == "trie":
        return _trie_report(pipelined=pipelined, adapt=adapt,
                            faults=plan == "faulty")
    return _cluster_report(pipelined=pipelined, adapt=adapt, plan=plan)


@pytest.mark.parametrize("cell", sorted(GOLDEN), ids=lambda c: "-".join(
    (c[0], "pipe" if c[1] else "seq", "adapt" if c[2] else "static", c[3])))
def test_golden_report(cell):
    assert report_digest(_report(*cell)) == GOLDEN[cell]


def test_trie_fault_plan_forces_retries_and_failures():
    report = _trie_report(pipelined=False, adapt=False, faults=True)
    assert sum(e.retries for e in report.epochs) > 0
    assert report.failed >= 1
    assert any(c.reply is OP_FAILED for c in report.completed)


@pytest.mark.parametrize("plan", ["rolling", "shard-wipe"])
def test_cluster_plans_fire_rack_losses(plan):
    report = _cluster_report(pipelined=True, adapt=False, plan=plan)
    assert report.faults["rack_losses"] >= 2
    assert report.total_recovery_rounds > 0


def test_adaptive_policy_tunes_cluster_knobs():
    cluster, _ = _cluster(adapt=False)
    trace = _trace()
    report = ClusterService(cluster, policy_from_name("adaptive:5")).run(trace)
    assert report.extra["sched"]["decisions"]
    reset_id_counters()
    keys = _resident()
    twin = PIMTrie(PIMSystem(P, seed=1), PIMTrieConfig(num_modules=P),
                   keys=keys, values=keys)
    direct = dict(replay_direct(twin, trace.ops))
    served = {c.seq: c.reply for c in report.completed if c.ok}
    assert served
    assert served == {seq: direct[seq] for seq in served}
