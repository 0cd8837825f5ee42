"""The benchmark's own tests: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys

import pytest

import layers
import run
from oracle import SortedDictOracle
from repro.bits import BitString
from repro.core import PIMTrie, PIMTrieConfig
from repro.obs import Span
from repro.pim import PIMSystem
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _key(rng: random.Random, bits: int) -> BitString:
    return BitString(rng.getrandbits(bits), bits)


def test_oracle_matches_pimtrie_on_a_tiny_instance():
    rng = random.Random(5)
    keys = sorted({_key(rng, rng.choice((6, 9, 12))) for _ in range(60)})
    values = list(range(len(keys)))
    trie = PIMTrie(PIMSystem(4, seed=1), PIMTrieConfig(num_modules=4),
                   keys=keys, values=values)
    oracle = SortedDictOracle(zip(keys, values))
    for step in range(40):
        batch = [_key(rng, rng.choice((3, 6, 9, 12))) for _ in range(12)]
        batch += rng.sample(sorted(oracle.store), 4)
        kind = ("lcp", "lookup", "subtree", "pred", "succ", "count",
                "insert", "delete")[step % 8]
        if kind == "insert":
            vals = [f"s{step}.{i}" for i in range(len(batch))]
            trie.insert_batch(batch, vals)
            for k, v in zip(batch, vals):
                oracle.insert(k, v)
            continue
        if kind == "delete":
            trie.delete_batch(batch[::2])
            for k in batch[::2]:
                oracle.delete(k)
            continue
        method = {
            "lcp": trie.lcp_batch, "lookup": trie.lookup_batch,
            "subtree": trie.subtree_batch, "pred": trie.predecessor_batch,
            "succ": trie.successor_batch, "count": trie.prefix_count_batch,
        }[kind]
        assert method(batch) == [oracle.apply(kind, k) for k in batch], kind
        hi = [k.pad_to(12, 1) for k in batch]
        assert trie.range_batch(list(zip(batch, hi)), limit=3) == [
            oracle.apply("range", lo, (h, 3)) for lo, h in zip(batch, hi)
        ]
        assert trie.topk_batch(batch, 2) == [
            oracle.apply("topk", k, 2) for k in batch
        ]
    # the bisection LCP equals the definition: max over stored keys
    for q in (_key(rng, 12) for _ in range(50)):
        assert oracle.lcp(q) == max(q.lcp_len(k) for k in oracle.store)
    assert oracle.keys == sorted(trie.keys())


def test_metric_names_match_the_regex_and_benchmark_json():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(layers.NAME_RE.match(n) for n in names)
    assert not layers.NAME_RE.match("epoch:3")
    assert len(set(names)) == len(names)
    assert [m["name"] for m in SPEC["per_layer"]] == [
        n for n, _ in layers.PER_LAYER
    ]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def _span(sid, parent, name, dur, words=0):
    return Span(sid=sid, parent=parent, name=name, cat="phase", depth=0,
                t0=0.0, dur=dur, words=words)


def test_self_time_arithmetic_on_a_hand_built_tree():
    spans = [
        _span(0, None, "epoch:0", 10.0),
        _span(1, 0, "op.lcp", 6.0, words=5),
        _span(2, 1, "round:pimtrie.match", 1.5, words=5),
        _span(3, 1, "round:pimtrie.block", 2.0),
        _span(4, 0, "epoch.assemble", 1.0),
        _span(5, None, "epoch:1", 4.0),
    ]
    rows = layers.self_rollup(spans)
    assert rows["serve.epoch"]["count"] == 2
    assert rows["serve.epoch"]["wall_s"] == pytest.approx(14.0)
    assert rows["serve.epoch"]["self_s"] == pytest.approx(3.0 + 4.0)
    assert rows["op.lcp"]["self_s"] == pytest.approx(2.5)
    assert rows["pim.round"]["self_s"] == pytest.approx(3.5)
    assert rows["pim.round"]["words"] == 5
    # self times partition the root spans' wall time
    assert sum(r["self_s"] for r in rows.values()) == pytest.approx(14.0)
    merged = layers.merge_rows([rows, rows])
    assert merged["pim.round"]["count"] == 4
    m = layers.layer_metrics(merged, ops=2, module_imbalance=1.0, serve={},
                             cluster={}, overhead_frac=0.0)
    assert m["pim.rounds"] == 4
    assert m["pim.round_self_s"] == pytest.approx(7.0)
    assert m["serve.assemble.self_s"] == pytest.approx(2.0)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_is_correct(workload, trace, capsys):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--size", "smoke"])
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert code == 0, "\n".join(out)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in want]
    for m in want:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


#: end-to-end metrics that must repeat exactly for a seed
EXACT = ("sim_p50", "sim_p99", "io_rounds_per_op", "io_time_per_op",
         "words_per_op", "pim_time_per_op", "space_words_per_key")


@pytest.mark.parametrize("workload", ["batch-churn", "serve-mixed"])
def test_counts_repeat_exactly_for_a_seed(workload):
    runs = []
    for _ in range(2):
        parts = run.make_parts(WORKLOADS[workload], 4, "smoke")
        results, setups = run.run_passes(parts, 0.0, trace=False)
        assert not run.verify(results)
        m = run.end_to_end(results, setups, len(parts))
        runs.append({name: m[name][0] for name in EXACT})
    assert runs[0] == runs[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch-read",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
