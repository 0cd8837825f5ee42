"""The vectorized adapt share scan decides exactly like the per-block
reference.

``AdaptiveController.step`` computes every live block's share of the
decayed sketch window with one gather-and-min over cached row indices
(``CountMinSketch.indices_many`` / ``estimate_rows``) and keeps only
the shares at or above ``hot_fraction``.  On seeded flash-crowd and
drifting-zipf streams this file checks that:

* ``estimate_many`` equals per-key ``estimate`` with exact float ``==``;
* the vectorized hot list is the reference per-block ``block_share``
  list restricted to ``share >= hot_fraction``, in the same
  ``(-share, bid)`` order, after every step;
* the controller's action log and counters equal those of a reference
  controller that still calls ``block_share`` once per block.
"""

import pytest

from repro import PIMSystem, PIMTrie, PIMTrieConfig
from repro.adapt import AdaptiveController, AdaptPolicy
from repro.perf import reset_id_counters
from repro.workloads import (
    drifting_zipf_stream,
    flash_crowd_stream,
    uniform_keys,
)

P = 4
LENGTH = 32
BATCH = 24

POLICIES = {
    "eager": AdaptPolicy(
        hot_fraction=0.05, cold_fraction=0.02, min_window=4.0, cooldown=0,
        max_replicas=2, split_min_keys=2, max_actions_per_epoch=8,
    ),
    "default": AdaptPolicy(min_window=8.0),
}

STREAMS = {
    "flash": lambda seed: flash_crowd_stream(
        600, LENGTH, num_crowds=3, crowd_fraction=0.9, seed=seed),
    "drift": lambda seed: drifting_zipf_stream(
        600, LENGTH, num_phases=4, num_hot=4, theta=1.4, seed=seed),
}


class ReferenceController(AdaptiveController):
    """The pre-vectorization scan: one ``block_share`` per live block,
    every share kept, then sorted by ``(-share, bid)``."""

    def _hot_shares(self):
        shares = [(self.block_share(b), b) for b in list(self.trie.block_module)]
        shares.sort(key=lambda sb: (-sb[0], sb[1]))
        return shares


def reference_hot(ctl: AdaptiveController) -> list[tuple[float, int]]:
    hot = ctl.policy.hot_fraction
    return [sb for sb in ReferenceController._hot_shares(ctl) if sb[0] >= hot]


def drive(cls, policy, stream, *, check=None):
    reset_id_counters()
    keys = sorted(set(uniform_keys(200, LENGTH, seed=5)))
    trie = PIMTrie(
        PIMSystem(P, seed=1),
        PIMTrieConfig(num_modules=P, block_bound=96),
        keys=keys, values=[str(k) for k in keys],
    )
    ctl = cls(trie, policy)
    for i in range(0, len(stream), BATCH):
        chunk = stream[i:i + BATCH]
        writes = [o for o in chunk if o.kind == "insert"]
        dels = [o.key for o in chunk if o.kind == "delete"]
        reads = [o.key for o in chunk if o.kind not in ("insert", "delete")]
        if writes:
            trie.insert_batch([o.key for o in writes], [o.value for o in writes])
        if dels:
            trie.delete_batch(dels)
        if reads:
            trie.lcp_batch(reads)
        ctl.step()
        if check is not None:
            check(ctl)
    return ctl


@pytest.mark.parametrize("stream", sorted(STREAMS))
@pytest.mark.parametrize("seed", (1, 2, 3))
def test_estimate_many_equals_estimate(stream, seed):
    def check(ctl):
        bases = list(ctl.trie._root_strings.values())
        probes = bases + uniform_keys(16, LENGTH, seed=seed) + [7, 0, 1 << 70]
        many = ctl.sketch.estimate_many(probes)
        assert [float(e) for e in many] == [ctl.sketch.estimate(k) for k in probes]

    drive(AdaptiveController, POLICIES["eager"], STREAMS[stream](seed), check=check)


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("stream", sorted(STREAMS))
@pytest.mark.parametrize("seed", (1, 2, 3))
def test_vectorized_scan_matches_reference_controller(policy, stream, seed):
    ops = STREAMS[stream](seed)
    seen = {"steps": 0, "hot": 0}

    def check(ctl):
        got = ctl._hot_shares()
        assert got == reference_hot(ctl)
        seen["steps"] += 1
        seen["hot"] += len(got)

    fast = drive(AdaptiveController, POLICIES[policy], ops, check=check)
    ref = drive(ReferenceController, POLICIES[policy], ops)
    assert fast.log == ref.log
    assert fast.counts == ref.counts
    assert fast.epoch == ref.epoch == seen["steps"]
    # not vacuous: the streams really produce hot blocks
    assert seen["hot"] > 0
    # the row cache holds only live blocks
    assert set(fast._rows) <= set(fast.trie.block_module)


def test_reference_controller_acts():
    ctl = drive(ReferenceController, POLICIES["eager"], STREAMS["flash"](1))
    assert sum(ctl.counts.values()) > 0
