"""Delta-built ordered snapshots equal full builds.

``PIMTrie.ordered_snapshot`` derives each version from the cached one
plus the key changes committed since (a pending delta of upserts and
removals).  This differential test drives random interleavings of
insert / in-place update / delete batches (absent keys included), adapt
split / replicate / merge, and mid-run ``rebuild_from_mirror`` and
checks after each step that:

* the incremental snapshot answers exactly like a fresh
  ``OrderedSnapshot(trie.replica_log_items())`` — ``items()``, ``len``,
  pred / succ / range / count / top-k;
* every snapshot handed out earlier still enumerates the items it had
  (copy-on-write: a held snapshot is never mutated);
* each new version charges the same accounted ``cpu_work`` as the full
  n-key build it replaces, and a cached version charges nothing.

It also pins the delta's bound: write-only traffic records nothing
without a cached snapshot, and never more entries than the cached
snapshot holds.
"""

import random

from hypothesis import given, settings, strategies as st

from repro import BitString, PIMSystem, PIMTrie, PIMTrieConfig
from repro.ordered import OrderedSnapshot
from repro.perf import reset_id_counters
from repro.workloads import uniform_keys, zipf_prefix

P = 4
#: key lengths stay short so prefixes of stored keys are stored too
LENGTHS = (3, 5, 8, 12)
_rng = random.Random(7)
UNIVERSE = sorted({
    BitString(_rng.getrandbits(n), n)
    for n in (LENGTHS[i % len(LENGTHS)] for i in range(160))
})


def _probe_keys() -> list[BitString]:
    rng = random.Random(99)
    extra = [BitString(rng.getrandbits(n), n) for n in (1, 2, 4, 7, 10, 13)
             for _ in range(3)]
    return UNIVERSE[::5] + extra + [BitString(0, 0)]


PROBES = _probe_keys()


def _answers(snap: OrderedSnapshot) -> tuple:
    bounds = list(zip(PROBES, PROBES[3:] + PROBES[:3]))
    return (
        [snap.predecessor(k) for k in PROBES],
        [snap.successor(k) for k in PROBES],
        [snap.range(lo, hi) for lo, hi in bounds],
        [snap.range(lo, hi, limit=2) for lo, hi in bounds],
        [snap.prefix_count(k.prefix(min(len(k), 3))) for k in PROBES],
        [snap.top_k(k.prefix(min(len(k), 2)), 3) for k in PROBES],
    )


def fresh_trie(n: int) -> PIMTrie:
    reset_id_counters()
    keys = UNIVERSE[:n]
    return PIMTrie(
        PIMSystem(P, seed=1),
        PIMTrieConfig(num_modules=P, block_bound=64),
        keys=keys, values=[f"v{i}" for i in range(len(keys))],
    )


def _apply(trie: PIMTrie, step: tuple, tag: int) -> None:
    kind = step[0]
    if kind == "insert":
        keys = [UNIVERSE[i % len(UNIVERSE)] for i in step[1]]
        trie.insert_batch(keys, [f"w{tag}.{i}" for i in range(len(keys))])
    elif kind == "delete":
        trie.delete_batch([UNIVERSE[i % len(UNIVERSE)] for i in step[1]])
    elif kind == "rebuild":
        trie.rebuild_from_mirror()
    else:
        bids = sorted(trie.block_module)
        bid = bids[step[1] % len(bids)]
        if kind == "split":
            trie.split_block(bid, bound=8)
        elif kind == "replicate":
            trie.replicate_block(bid)
        elif kind == "merge":
            roots = sorted(b for b in trie.block_children
                           if trie.block_children[b])
            if roots:
                trie.merge_block(roots[step[1] % len(roots)])


_idx = st.integers(0, 4 * len(UNIVERSE))
STEP = st.one_of(
    st.tuples(st.just("insert"), st.lists(_idx, min_size=1, max_size=12)),
    st.tuples(st.just("delete"), st.lists(_idx, min_size=1, max_size=12)),
    st.tuples(st.sampled_from(["split", "replicate", "merge"]),
              st.integers(0, 1 << 16)),
    st.tuples(st.just("rebuild")),
)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(0, 80),
    steps=st.lists(st.tuples(STEP, st.booleans()), min_size=1, max_size=10),
)
def test_incremental_snapshot_matches_full_build(n, steps):
    trie = fresh_trie(n)
    held: list[tuple[OrderedSnapshot, list]] = []
    prev = None
    for tag, (step, read) in enumerate(steps):
        _apply(trie, step, tag)
        if not read and tag < len(steps) - 1:
            continue  # let writes pile up in the delta
        cpu0 = trie.system.snapshot().cpu_work
        snap = trie.ordered_snapshot()
        charged = trie.system.snapshot().cpu_work - cpu0
        ref = OrderedSnapshot(trie.replica_log_items())
        assert snap.items() == ref.items()
        assert len(snap) == len(ref)
        assert _answers(snap) == _answers(ref)
        # the accounted charge is the old full-build one per version
        assert charged == (0 if snap is prev else max(1, len(ref)))
        for old, items in held:
            assert old.items() == items
        held.append((snap, snap.items()))
        prev = snap
    trie.validate()


def test_in_place_update_and_absent_delete_apply_in_order():
    trie = fresh_trie(40)
    before = trie.ordered_snapshot()
    k = UNIVERSE[3]
    absent = BitString(0b1010101010101, 13)
    assert absent not in before
    trie.insert_batch([k], ["new"])
    trie.delete_batch([absent, UNIVERSE[5]])
    trie.insert_batch([UNIVERSE[5]], ["back"])
    after = trie.ordered_snapshot()
    assert after.value(k) == "new" and after.value(UNIVERSE[5]) == "back"
    assert after.items() == OrderedSnapshot(trie.replica_log_items()).items()
    assert before.value(k) != "new"  # the held version is untouched


def _churn(trie: PIMTrie, cycles: int, batch: int, seed: int) -> None:
    """batch-churn style: insert fresh zipf keys, read lcp, delete the
    keys from two cycles back (flat size, no ordered reads)."""
    live = set(trie.replica_log_items())
    drawn = zipf_prefix(4 * cycles * batch, 32, seed=seed)
    fresh = [k for k in dict.fromkeys(drawn) if k not in live]
    waves = [fresh[i * batch:(i + 1) * batch] for i in range(cycles)]
    for i, wave in enumerate(waves):
        trie.insert_batch(wave, list(range(len(wave))))
        trie.lcp_batch(wave[:8])
        if i >= 2:
            trie.delete_batch(waves[i - 2])


def test_write_only_traffic_keeps_the_delta_empty():
    reset_id_counters()
    keys = sorted(set(uniform_keys(300, 32, seed=4)))
    trie = PIMTrie(PIMSystem(P, seed=2), PIMTrieConfig(num_modules=P),
                   keys=keys, values=list(range(len(keys))))
    _churn(trie, cycles=8, batch=24, seed=5)
    assert trie._ordered_cache is None and trie._ordered_delta == {}


def test_delta_never_outgrows_the_cached_snapshot():
    reset_id_counters()
    keys = sorted(set(uniform_keys(120, 32, seed=4)))
    trie = PIMTrie(PIMSystem(P, seed=2), PIMTrieConfig(num_modules=P),
                   keys=keys, values=list(range(len(keys))))
    snap = trie.ordered_snapshot()
    trie.insert_batch(keys[:10], ["u"] * 10)
    assert len(trie._ordered_delta) == 10
    # ~290 distinct changed keys outgrow the 130-key snapshot: the
    # cache is dropped rather than carrying a delta larger than itself
    _churn(trie, cycles=12, batch=24, seed=6)
    assert trie._ordered_cache is None and trie._ordered_delta == {}
    assert trie.ordered_snapshot().items() == (
        OrderedSnapshot(trie.replica_log_items()).items()
    )
    assert len(snap) == len(keys)


def test_bulk_build_and_recovery_drop_the_cache():
    trie = fresh_trie(60)
    trie.ordered_snapshot()
    trie.insert_batch([UNIVERSE[70]], ["x"])
    assert trie._ordered_delta
    trie.rebuild_from_mirror()
    assert trie._ordered_cache is None and trie._ordered_delta == {}
    assert trie.ordered_snapshot().items() == (
        OrderedSnapshot(trie.replica_log_items()).items()
    )
