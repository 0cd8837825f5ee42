"""Incremental HVM maintenance (paper §5.2).

Steady-state insert and delete batches keep the hash value manager up
to date locally: new records join the piece owning their parent block
(parent-first, so a chain of re-partitioned sub-blocks lands together),
and only overflowing, imbalanced, emptied or root-less meta-block trees
are rebuilt — never the whole HVM.  These tests drive a headline-size
trie (P=32, n=4096) through insert batches of fresh zipf keys that
split blocks into chains, then delete batches that empty those blocks,
and check after every batch: no ``maint.rebuild_hvm`` span, a valid
structure, oracle answers, and an O(log P) round budget.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import PIMSystem, PIMTrie, PIMTrieConfig
from repro.obs import Tracer, root_metric_sums
from repro.perf import reset_id_counters
from repro.workloads import uniform_keys, zipf_prefix

#: every trigger a maintenance rebuild may name
REASONS = {
    "bulk-build", "recovery", "orphan-record", "mb-overflow",
    "piece-overflow", "alpha-imbalance", "piece-empty", "root-removed",
}


def round_budget(P: int) -> int:
    """Per-batch IO rounds allowed to one insert or delete batch: the
    match phases and the maintenance rounds are each O(log P)."""
    return 3 * math.ceil(math.log2(P)) + 4


def churn(P: int, n: int, batch: int, batches: int, *, traced: bool = True):
    """Insert ``batches`` batches of fresh zipf keys into a trie of
    ``n`` uniform keys, then delete them again batch by batch.

    Returns ``(trie, tracer, rows, before)``: one row per batch with
    the batch's spans, IO rounds, chained and dropped blocks, and the
    oracle mismatches seen after it; ``before`` is the metrics snapshot
    taken once the bulk build finished.
    """
    reset_id_counters()
    L = 256
    system = PIMSystem(P, seed=7)
    keys = sorted(set(uniform_keys(n, L, seed=11)))
    trie = PIMTrie(system, PIMTrieConfig(num_modules=P), keys=keys,
                   values=list(range(len(keys))))
    before = system.snapshot()
    tracer = Tracer(system) if traced else None
    oracle = dict(zip(keys, range(len(keys))))
    fresh = [k for k in dict.fromkeys(zipf_prefix(4 * batch * batches, L, seed=12))
             if k not in oracle][: batch * batches]
    plan = [("insert", fresh[i * batch:(i + 1) * batch]) for i in range(batches)]
    plan += [("delete", b) for _, b in list(plan)]
    probe_rng = random.Random(3)
    rows = []
    for i, (kind, keys_i) in enumerate(plan):
        blocks0 = set(trie.block_parent)
        span0 = len(tracer.spans) if traced else 0
        rounds0 = system.metrics.io_rounds
        if kind == "insert":
            vals = [f"v{i}.{j}" for j in range(len(keys_i))]
            got = trie.insert_batch(keys_i, vals)
            want = sum(1 for k in keys_i if k not in oracle)
            oracle.update(zip(keys_i, vals))
        else:
            got = trie.delete_batch(keys_i)
            want = sum(1 for k in set(keys_i) if k in oracle)
            for k in keys_i:
                oracle.pop(k, None)
        rounds = system.metrics.io_rounds - rounds0
        spans = tracer.spans[span0:] if traced else []
        new = set(trie.block_parent) - blocks0
        trie.validate()
        probe = keys_i + probe_rng.sample(keys, 64)
        wrong = [k for k, v in zip(probe, trie.lookup_batch(probe))
                 if v != oracle.get(k)]
        rows.append({
            "kind": kind,
            "count_ok": got == want,
            "rounds": rounds,
            "spans": spans,
            "chained": sum(1 for b in new if trie.block_parent[b] in new),
            "blocks_dropped": len(blocks0 - set(trie.block_parent)),
            "wrong": wrong,
        })
    return trie, tracer, rows, before


@pytest.fixture(scope="module")
def headline():
    return churn(P=32, n=4096, batch=128, batches=4)


def maint(rows, name):
    return [s for r in rows for s in r["spans"] if s.name == name]


class TestSteadyStateChurn:
    def test_scenario_forces_chained_splits_and_emptied_blocks(self, headline):
        _, _, rows, _ = headline
        inserts = [r for r in rows if r["kind"] == "insert"]
        deletes = [r for r in rows if r["kind"] == "delete"]
        # a sub-block whose parent block is new in the same batch: the
        # case that used to escalate to a full HVM rebuild
        assert all(r["chained"] > 0 for r in inserts)
        assert all(r["blocks_dropped"] > 0 for r in deletes)
        # ... and both write paths really rebuilt some meta-block trees
        reasons = {
            reason
            for s in maint(rows, "maint.rebuild_tree")
            for reason in s.args["reason"].split(",")
        }
        assert reasons & {"piece-overflow", "mb-overflow", "alpha-imbalance"}
        assert reasons & {"piece-empty", "root-removed"}

    def test_no_full_hvm_rebuild(self, headline):
        _, _, rows, _ = headline
        assert maint(rows, "maint.rebuild_hvm") == []

    def test_answers_match_oracle(self, headline):
        _, _, rows, _ = headline
        for i, r in enumerate(rows):
            assert r["count_ok"], f"batch {i} ({r['kind']}) returned a wrong count"
            assert r["wrong"] == [], f"batch {i} ({r['kind']}) wrong lookups"

    def test_rounds_per_batch_bounded(self, headline):
        trie, _, rows, _ = headline
        budget = round_budget(trie.system.num_modules)
        for i, r in enumerate(rows):
            assert r["rounds"] <= budget, (i, r["kind"], r["rounds"], budget)

    def test_rebuild_spans_carry_a_reason(self, headline):
        _, _, rows, _ = headline
        spans = maint(rows, "maint.rebuild_tree")
        assert spans
        for s in spans:
            assert set(s.args["reason"].split(",")) <= REASONS

    def test_span_sums_equal_metrics_delta(self, headline):
        trie, tracer, _, before = headline
        delta = trie.system.snapshot().delta(before)
        assert root_metric_sums(tracer.spans) == {
            "io_rounds": delta.io_rounds,
            "io_time": delta.io_time,
            "words": delta.total_communication,
            "pim_time": delta.pim_time,
            "cpu_work": delta.cpu_work,
        }


class TestTracingOff:
    def test_snapshots_byte_identical(self):
        runs = []
        for traced in (True, False):
            trie, _, rows, before = churn(P=16, n=1024, batch=64, batches=2,
                                          traced=traced)
            delta = trie.system.snapshot().delta(before)
            runs.append((delta.as_dict(include_per_module=True),
                         [r["rounds"] for r in rows]))
        assert runs[0] == runs[1]
        assert max(runs[0][1]) <= round_budget(16)


class TestReasons:
    def test_bulk_build_and_recovery(self):
        system = PIMSystem(4, seed=1)
        tracer = Tracer(system)
        trie = PIMTrie(system, PIMTrieConfig(num_modules=4),
                       keys=uniform_keys(64, 32, seed=2))
        trie.rebuild_from_mirror()
        reasons = [s.args.get("reason") for s in tracer.spans
                   if s.name == "maint.rebuild_hvm"]
        assert reasons == ["bulk-build", "recovery"]


# ----------------------------------------------------------------------
# the local leaffix of delete batches equals the full leaffix
# ----------------------------------------------------------------------
def full_leaffix(trie: PIMTrie) -> set[int]:
    """Every non-root block whose whole subtree stores no keys, by a
    bottom-up pass over all blocks."""
    below: dict[int, int] = {}
    for bid in sorted(trie.block_keys, key=lambda b: trie.block_depth[b],
                      reverse=True):
        below[bid] = trie.block_keys[bid] + sum(
            below.get(c, 0) for c in trie.block_children.get(bid, ())
        )
    return {b for b, k in below.items()
            if k == 0 and trie.block_parent.get(b) is not None}


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_doomed_blocks_equal_full_leaffix(seed):
    rng = random.Random(seed)
    P = 4
    universe = uniform_keys(160, 24, seed=seed)
    live = set(universe[:48])
    trie = PIMTrie(PIMSystem(P, seed=seed),
                   PIMTrieConfig(num_modules=P, block_bound=8),
                   keys=sorted(live))
    local = trie._doomed_blocks
    checked = []

    def doomed_checked(emptied):
        got = local(emptied)
        assert set(got) == full_leaffix(trie)
        depths = [trie.block_depth[b] for b in got]
        assert depths == sorted(depths, reverse=True)
        checked.append(len(got))
        return got

    trie._doomed_blocks = doomed_checked
    for _ in range(6):
        adds = rng.sample(universe, 24)
        trie.insert_batch(adds)
        live.update(adds)
        drop = rng.sample(sorted(live), min(len(live), rng.randint(8, 40)))
        trie.delete_batch(drop)
        live.difference_update(drop)
    trie.validate()
    assert sorted(trie.keys()) == sorted(live)
    assert any(checked)
