"""Benchmark + CI gate for the automatic ISAX discovery pipeline.

Runs one full :func:`repro.discover.search.discover` search twice against
the same artifact cache and writes one JSON artifact
(``benchmarks/out/bench_discovery.json``):

1. **cold search** — enumerate + price every (candidate, fold) variant
   through the real toolchain on a fresh cache; reports candidate counts,
   verified survivors, the Pareto front, and pricing throughput
   (variants/second through the service executor),
2. **warm search** — the identical search again; every variant must be a
   pure artifact-cache hit (asserted: 0 executed, 100% cached),
3. **headline** — the mined winner's *measured* speedup on the compiled
   simulator must be at least the hand-written ``autoinc+zol`` rewrite's
   speedup from the Section 5.5 experiment (``run_array_sum``), i.e. the
   miner has to rediscover (or beat) what a human wrote for the paper,
4. **gates** — every Pareto-front record must be born-verified: compiled,
   lint-clean, IR-verified and cosim-passed (``ok`` with no
   ``failed_gate``).

``--smoke`` is the CI configuration (small n, small budget); the env var
``DISCOVER_BENCH_SMOKE=1`` selects the same thing for harnesses that
cannot pass flags.

Usage::

    PYTHONPATH=src python benchmarks/bench_discovery.py --smoke
    PYTHONPATH=src python benchmarks/bench_discovery.py --n 128 --budget 24
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import tempfile
import time
from typing import Optional, Sequence

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.discover.search import (  # noqa: E402
    DiscoveryConfig,
    DiscoveryReport,
    discover,
    render_report,
)
from repro.service import ArtifactCache, BatchExecutor  # noqa: E402
from repro.workloads import run_array_sum  # noqa: E402

OUT_DIR = pathlib.Path(__file__).parent / "out"


def _run_search(config: DiscoveryConfig,
                executor: BatchExecutor) -> DiscoveryReport:
    started = time.perf_counter()
    report = discover(config, executor=executor)
    report.elapsed_s = time.perf_counter() - started
    return report


def run(kernel: str, n: int, budget: int, trials: int, workers: int,
        core: str, cache_dir: Optional[str]) -> dict:
    if cache_dir is None:
        cache_dir = tempfile.mkdtemp(prefix="bench_discovery_cache_")
    config = DiscoveryConfig(
        kernel=kernel, params={"n": n}, core=core, budget=budget,
        trials=trials)
    executor = BatchExecutor(workers=workers,
                             cache=ArtifactCache(pathlib.Path(cache_dir)))

    cold = _run_search(config, executor)
    print(render_report(cold))
    assert cold.winner is not None, "cold search found no verified winner"
    assert cold.pricing_stats["cached"] == 0, \
        "a fresh cache dir must not serve hits"

    warm = _run_search(config, executor)
    assert warm.pricing_stats["executed"] == 0, \
        f"warm re-run executed {warm.pricing_stats['executed']} variants"
    assert warm.pricing_stats["cached"] == warm.pricing_stats["requested"], \
        "warm re-run must be 100% cache hits"
    assert warm.winner is not None
    assert warm.winner["digest"] == cold.winner["digest"], \
        "cache round-trip changed the winner"

    # Every Pareto survivor cleared the whole verification stack.
    for record in cold.pareto:
        assert record["ok"] and record["failed_gate"] is None, record

    # Headline: the miner must rediscover (or beat) the hand-written ISAX.
    hand = run_array_sum(n, core=core)
    mined_speedup = cold.winner["speedup"]
    print(f"# headline: mined {mined_speedup:.3f}x vs hand-written "
          f"{hand.speedup:.3f}x (n={n}, {core})")
    assert mined_speedup >= hand.speedup, \
        f"mined winner ({mined_speedup:.3f}x) is slower than the " \
        f"hand-written ISAX ({hand.speedup:.3f}x)"

    throughput = (cold.variants_priced / cold.elapsed_s
                  if cold.elapsed_s else 0.0)
    return {
        "kernel": kernel,
        "core": core,
        "n": n,
        "budget": budget,
        "candidates_enumerated": cold.candidates_enumerated,
        "variants_priced": cold.variants_priced,
        "verified": len(cold.verified),
        "pareto": cold.pareto,
        "winner": {k: cold.winner[k]
                   for k in ("label", "digest", "ops", "fold", "speedup",
                             "area_um2", "cycles", "baseline_cycles")},
        "hand_written_speedup": hand.speedup,
        "cold": {"elapsed_s": round(cold.elapsed_s, 3),
                 "variants_per_s": round(throughput, 2),
                 **cold.pricing_stats},
        "warm": {"elapsed_s": round(warm.elapsed_s, 3),
                 **warm.pricing_stats},
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_discovery",
        description="mine + price ISAXes; assert cache and headline")
    parser.add_argument("--smoke", action="store_true",
                        help="CI configuration: small n, small budget")
    parser.add_argument("--kernel", default="array_sum")
    parser.add_argument("--core", default="VexRiscv")
    parser.add_argument("--n", type=int, default=64)
    parser.add_argument("--budget", type=int, default=12)
    parser.add_argument("--trials", type=int, default=3)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("-o", "--out", default=None,
                        help="JSON artifact path "
                             "(default benchmarks/out/bench_discovery.json)")
    args = parser.parse_args(argv)

    smoke = args.smoke or os.environ.get("DISCOVER_BENCH_SMOKE") == "1"
    n = 32 if smoke and args.n == 64 else args.n
    budget = 8 if smoke and args.budget == 12 else args.budget

    summary = run(kernel=args.kernel, n=n, budget=budget,
                  trials=args.trials, workers=args.workers,
                  core=args.core, cache_dir=args.cache_dir)
    summary["smoke"] = smoke

    out_path = pathlib.Path(args.out) if args.out \
        else OUT_DIR / "bench_discovery.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(summary, indent=2, sort_keys=True))
    print(f"[artifact] {out_path}")
    print(f"# cold {summary['cold']['elapsed_s']}s "
          f"({summary['cold']['variants_per_s']} variants/s), "
          f"warm {summary['warm']['elapsed_s']}s "
          f"({summary['warm']['cached']}/{summary['warm']['requested']} "
          f"cache hits)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
