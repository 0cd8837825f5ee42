#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch-read --seed 1 --seconds 12 --trace 0

Workloads: ``batch-read``, ``batch-churn``, ``serve-mixed``,
``cluster-mixed`` (see ``workloads.py`` and ``BENCHMARK.json``).

A run splits its seed into a few independently seeded *parts* of the
workload.  A *pass* runs one part: a fresh bulk build of the index
(set-up), then the part's fixed op sequence (the measured phase).  A
run repeats rounds of one pass per part until ``--seconds`` of
measured time passed.  Every reply is checked against the oracle, and
every pass of a part must reproduce that part's PIM-model counts,
simulated latencies, answers and final ``MetricsSnapshot`` exactly.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced round, then part 0 once more with a ``repro.obs.Tracer``
attached after the build (plus the benchmark's own spans around each
top-level call), and prints that pass's per-layer metrics, including
the tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` next to this directory, never
from an installed copy; without it the run exits with status 2 and
prints no result.  Run the benchmark's own tests with
``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def bootstrap() -> None:
    """Put the repository's ``src/`` first on ``sys.path`` and make sure
    ``repro`` really comes from there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ImportError(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    where = Path(repro.__file__).resolve().parent
    if where != (SRC / "repro").resolve():
        raise ImportError(f"repro imported from {where}, not {SRC}")


def git_sha() -> str:
    """HEAD's commit id read from ``.git`` (no subprocess), if any."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


# ----------------------------------------------------------------------
def make_parts(cls, seed: int, size: str) -> list:
    """The run's independently seeded parts of one workload.

    One seed fixes where the expensive maintenance events of a pass
    fall; averaging several parts keeps that from dominating a run."""
    from workloads import sub_seed

    return [cls(sub_seed(seed, "part", j), size) for j in range(cls.PARTS)]


def run_passes(parts: list, seconds: float,
               trace: bool) -> tuple[list, list[float]]:
    """Rounds of passes, one pass per part, until about ``seconds`` of
    measured time passed (at least one round).  With ``trace`` one
    round runs untraced and part 0 then runs once more, traced.
    Returns ``(part index, result)`` pairs and the build times."""
    results, setups = [], []
    measured = 0.0

    def one(j: int, traced: bool) -> None:
        nonlocal measured
        gc.collect()
        t0 = time.perf_counter()
        state = parts[j].build()
        setups.append(time.perf_counter() - t0)
        gc.collect()
        res = parts[j].run(state, traced=traced)
        results.append((j, res))
        measured += res.wall

    # another round only if it ends nearer to ``seconds`` than stopping
    round_wall = 0.0
    while not results or (not trace and measured + round_wall / 2 < seconds):
        start = measured
        for j in range(len(parts)):
            one(j, False)
        round_wall = measured - start
    if trace:
        one(0, True)
    return results, setups


def verify(results: list) -> list[str]:
    """Each pass's own findings, plus exactness: every pass of a part
    (traced or not) reproduces that part's first pass."""
    problems = []
    first: dict = {}
    seen: dict[str, int] = {}
    for i, (j, r) in enumerate(results):
        problems.extend(f"pass {i}: {p}" for p in r.problems)
        for name, n in r.mechanisms.items():
            seen[name] = seen.get(name, 0) + n
        if first.setdefault(j, r.exact()) != r.exact():
            kind = "traced" if r.spans is not None else "untraced"
            problems.append(
                f"pass {i} ({kind}) of part {j} differs from its first "
                f"pass in PIM counts, simulated latencies, answers or "
                f"final metrics"
            )
    problems.extend(f"the run saw no {name}" for name, n in seen.items()
                    if not n)
    return problems


def end_to_end(results: list, setups: list[float],
               n_parts: int) -> dict[str, tuple]:
    """The end-to-end metrics as ``name -> (value, unit, note)``.

    A few parts of a run can pay for many more maintenance events than
    the others, so rates and per-op counts are medians over passes
    (parts), not pooled means.  Counts, simulated latencies and space
    come from the first round (one pass per part), so they repeat
    exactly for a seed; wall times use every pass."""
    passes = [r for _, r in results]
    first = passes[:n_parts]
    calls = [ms for r in passes for ms in r.call_ms]
    sims = [x for r in first for x in r.sim]

    def per_op(field: str) -> float:
        return statistics.median(getattr(r.delta, field) / r.ops
                                 for r in first)

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} builds"),
        "ops_per_s": (statistics.median(r.ops / r.wall for r in passes),
                      "ops/s", f"median of {len(passes)} passes"),
        "batch_p50_ms": (percentile(calls, 50), "ms", f"{len(calls)} samples"),
        "batch_p95_ms": (percentile(calls, 95), "ms", f"{len(calls)} samples"),
        "sim_p50": (percentile(sims, 50), "units", f"{len(sims)} ops"),
        "sim_p99": (percentile(sims, 99), "units", f"{len(sims)} ops"),
        "io_rounds_per_op": (per_op("io_rounds"), "rounds/op", ""),
        "io_time_per_op": (per_op("io_time"), "words/op", ""),
        "words_per_op": (per_op("total_communication"), "words/op", ""),
        "pim_time_per_op": (per_op("pim_time"), "work/op", ""),
        "space_words_per_key": (
            statistics.median(r.space_per_key for r in first), "words/key", ""
        ),
        "peak_rss_mb": (rss_mb, "MB", ""),
    }


def per_layer(results: list) -> dict[str, tuple]:
    """The per-layer metrics of the traced pass of part 0."""
    (traced,) = [r for _, r in results if r.spans is not None]
    plain = [r for j, r in results if j == 0 and r.spans is None]
    overhead = traced.wall / statistics.median(r.wall for r in plain) - 1.0
    rows = layers.merge_rows(layers.self_rollup(s) for s in traced.spans)
    metrics = layers.layer_metrics(
        rows, ops=traced.ops, module_imbalance=traced.delta.traffic_imbalance(),
        serve=traced.serve, cluster=traced.cluster, overhead_frac=overhead,
    )
    units = dict(layers.PER_LAYER)
    return {name: (value, units[name], "") for name, value in metrics.items()}


def env_stamp(args, passes: int) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "passes": passes,
        "trace": args.trace,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("headline", "smoke"),
                    default="headline",
                    help="index size (smoke is for quick checks only)")
    args = ap.parse_args(argv)

    try:
        bootstrap()
    except ImportError as e:
        print(f"perfbench: cannot import the program: {e}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2

    parts = make_parts(WORKLOADS[args.workload], args.seed, args.size)
    results, setups = run_passes(parts, args.seconds, bool(args.trace))
    problems = verify(results)
    metrics = (per_layer(results) if args.trace
               else end_to_end(results, setups, len(parts)))

    attempted = sum(r.attempted for _, r in results)
    failed = sum(r.failed for _, r in results)
    print(f"perfbench {args.workload}: "
          + json.dumps(env_stamp(args, len(results)), sort_keys=True))
    width = max(map(len, metrics))
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g} {unit:<10} {note}")
    print(f"  {'failed_frac':<{width}}  {failed / attempted:>14.6g} "
          f"{'fraction':<10} {failed}/{attempted} ops")
    if "generator_late" in results[0][1].serve:
        # open loop on a simulated clock: latency counts from each op's
        # scheduled arrival; this is how late the generator issued ops
        late = max(r.serve["generator_late"] for _, r in results)
        print(f"  generator lateness: {late:g} simulated units")
    for p in problems:
        print(f"  PROBLEM: {p}")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _note) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
