"""Benchmark of the d-number library: one workload per run.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

Run from the repository root.  The seed makes the inputs (here, with no
import of the package); a worker process (worker.py) sets up, receives the
inputs, times its items and judges every output.  With ``--trace 0`` the
last stdout line is a JSON object with the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it carries the per-layer metrics of a
separate traced run.  Earlier lines are a readable report.  The exit code
is nonzero, with no JSON line, when the package is missing or a worker
fails.  README.md in this directory gives the reasons for each workload.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import oracle
import speed

HERE = Path(__file__).resolve().parent
# setup_s is the median over this many worker start-ups in one run
SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 160

ROUNDTRIP_FIELDS = oracle.squarefree_upto(97)
ROUNDTRIP_POOL = 20_000
FACTOR_FIELDS = oracle.squarefree_upto(30)
FACTOR_BUDGET = 300_000
FACTOR_BLOCKS = 40
ENUMERATE_TENTHS = range(20, 332)  # cutoffs M = k/10, 2 <= M < 33.2
# 13 strata per block: no stratum boundary falls at the median or the 90th
# percentile of a block's latencies, so p50 and p90 do not hinge on the seed
ENUMERATE_STRATA = 13
FUSION_MAX_N = 400
FUSION_MAX_VALUE = 200
# the six dominant d-numbers below 5, as (N, p, q): 1, 2, 3, (5+sqrt5)/2, 4, 3+sqrt3
SCREEN_TARGETS = [(5, 2, 0), (5, 4, 0), (5, 6, 0), (5, 5, 1), (5, 8, 0), (3, 6, 2)]


# ---------------------------------------------------------------------------
# inputs: every workload's items, from the seed alone


def roundtrip_inputs(rng: random.Random) -> dict:
    """Random canonical factorizations (N, ell, m, delta choice)."""
    items = [
        [rng.choice(ROUNDTRIP_FIELDS), rng.randrange(1, 10_000), rng.randrange(0, 5),
         rng.randrange(4)]
        for _ in range(ROUNDTRIP_POOL)
    ]
    return {"items": items, "block": 1000, "trace_items": 10_000,
            "warm": ROUNDTRIP_FIELDS}


# one block of the factor workload: (kind, prime bands) per request.  Each
# band is narrow, so the cost of a block barely depends on the seed; the
# last request is the known defect (5% of items): rho cannot split the
# square of a prime near 10^17 within the budget.
FACTOR_BLOCK = (
    [("p", [(10**8, 10**9)])] * 4
    + [("pq", [(10**7, 10**8)] * 2)] * 4
    + [("pq", [(10**8, 10**9)] * 2)] * 4
    + [("p2q", [(10**6, 10**7), (10**8, 10**9)])] * 4
    + [("pqr", [(10**6, 10**7)] * 3)] * 3
    + [("P", [(10**16, 10**17)])]
)


def factor_inputs(rng: random.Random) -> dict:
    """`dnum factor` requests whose ell is built from primes beyond the sieve."""
    items = []
    for _ in range(FACTOR_BLOCKS):
        block = []
        for kind, bands in FACTOR_BLOCK:
            primes = [oracle.random_prime(rng, lo, hi) for lo, hi in bands]
            ell = primes[0] ** (2 if kind == "p2q" else 1)
            for p in primes[1:]:
                ell *= p
            block.append([rng.choice(FACTOR_FIELDS), ell, rng.randrange(0, 4),
                          rng.randrange(4), kind == "P"])
        rng.shuffle(block)
        items += block
    return {"items": items, "block": len(FACTOR_BLOCK), "trace_items": 40,
            "warm": FACTOR_FIELDS, "budget": FACTOR_BUDGET}


def enumerate_inputs(rng: random.Random) -> dict:
    """Cutoffs M = k/10 in antithetic pairs of blocks.

    The k split into strata of 24 consecutive values.  A block takes one
    cutoff per stratum at offsets o, and the next block takes 23 - o, so each
    pair of blocks costs about the same whatever the seed; the pool of 12
    pairs uses every k once.
    """
    ks = list(ENUMERATE_TENTHS)
    size = len(ks) // ENUMERATE_STRATA
    pairs = [(o, size - 1 - o) for o in range(size // 2)]
    orders = [rng.sample(pairs, len(pairs)) for _ in range(ENUMERATE_STRATA)]
    items = []
    for b in range(len(pairs)):
        for half in rng.sample((0, 1), 2):
            block = [str(Fraction(ks[s * size + orders[s][b][half]], 10))
                     for s in range(ENUMERATE_STRATA)]
            rng.shuffle(block)
            items += block
    return {"items": items, "block": 2 * ENUMERATE_STRATA, "trace_items": 40, "warm": []}


def fusion_targets() -> tuple[list[list[int]], dict[int, list[int]]]:
    """Every dominant ell*eps^m <= 200 with m >= 1 over squarefree N <= 400,
    with the units found by direct search (only units below sqrt(200) matter)."""
    bound = Fraction(FUSION_MAX_VALUE)
    targets, found_units = [], {}
    for N in oracle.squarefree_upto(FUSION_MAX_N):
        unit = oracle.small_unit(N, 30)
        if unit is None:
            continue
        t, u, _ = unit
        m = 1
        while True:
            e = oracle.power((t, u), m, N)
            if not oracle.below(oracle.mul(e, e, N), N, bound, False):
                break  # dominance needs ell >= eps^m, so ell*eps^m >= eps^2m
            ell = 1
            while oracle.below((ell * e[0], ell * e[1]), N, bound, False):
                if oracle.is_dominant_dnumber(ell * e[0], ell * e[1], N):
                    targets.append([N, ell, m])
                    found_units[N] = [t, u]
                ell += 1
            m += 1
    return targets, found_units


def fusion_inputs(rng: random.Random) -> dict:
    """One cycle: the quantum-group table, six screens, then every target."""
    targets, found_units = fusion_targets()
    rng.shuffle(targets)
    items = [["table"]] + [["screen", *t] for t in SCREEN_TARGETS]
    items += [["decompose", *t] for t in targets]
    return {"items": items, "block": len(items), "trace_items": 77,
            "warm": sorted(found_units), "units": found_units}


WORKLOADS = {
    "enumerate": enumerate_inputs,
    "roundtrip": roundtrip_inputs,
    "factor": factor_inputs,
    "fusion": fusion_inputs,
}


# ---------------------------------------------------------------------------
# worker processes


class WorkerError(RuntimeError):
    pass


def _start_worker(root: Path, workload: str, warm: list[int]) -> tuple[subprocess.Popen, float]:
    """Start one worker and wait until it has set up.

    Returns the worker, its raw set-up time and that time rescaled by the
    probes taken just before and after (speed.py).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    before = speed.probe_s()
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), workload, ",".join(map(str, warm))],
        cwd=root, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise WorkerError(f"worker did not set up (said {line.strip()!r})")
    return proc, setup_s, setup_s * speed.scale(before, speed.probe_s())


def run_worker(root: Path, workload: str, job: dict, setups: int) -> tuple[dict, list]:
    """Set up `setups` workers one after another; the last one runs the job."""
    setup_times = []
    proc = None
    watchdog = None
    try:
        for i in range(setups):
            proc, raw_s, ref_s = _start_worker(root, workload, job["warm"])
            setup_times.append((raw_s, ref_s))
            if i < setups - 1:
                proc.stdin.close()  # no job: the worker exits
                proc.wait(timeout=WORKER_TIMEOUT_S)
        watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        watchdog.start()
        out, _ = proc.communicate(json.dumps(job))
        if proc.returncode != 0:
            raise WorkerError(f"worker exited with {proc.returncode}")
        return json.loads(out.strip().splitlines()[-1]), setup_times
    finally:
        if watchdog is not None:
            watchdog.cancel()
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "artifact" / "__init__.py").is_file():
        print("run.py: no src/artifact here; run from the repository root",
              file=sys.stderr)
        return 2
    rng = random.Random(f"{args.workload}/{args.seed}")
    job = WORKLOADS[args.workload](rng)
    job.update(seconds=args.seconds, trace=args.trace, seed=args.seed)
    try:
        result, setups = run_worker(
            root, args.workload, job, 1 if args.trace else SETUP_REPEATS)
    except (WorkerError, subprocess.TimeoutExpired, ValueError) as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["metrics"].items()}
    else:
        solved = result["solved"]
        metrics = {
            "throughput_per_s": {"value": result["items"] / result["ref_s"], "unit": "1/s"},
            "latency_p50_ms": {"value": result["p50_ms"], "unit": "ms"},
            "latency_p90_ms": {"value": result["p90_ms"], "unit": "ms"},
            "setup_s": {"value": statistics.median(ref for _, ref in setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "solved_frac": {"value": solved / attempted, "unit": "1"},
        }
        print(f"{args.workload} seed={args.seed}: {attempted} items, "
              f"failed_frac={(attempted - solved) / attempted:.4f} "
              f"(failed, the known defect aside: {failed})")
        print(f"  raw, before rescaling: {result['items'] / result['raw_s']:.6g} items/s, "
              f"p50 {result['raw_p50_ms']:.6g} ms, p90 {result['raw_p90_ms']:.6g} ms, "
              f"set-ups {[round(raw, 4) for raw, _ in setups]} s")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    for note in result["notes"]:
        print(f"  note: {note}")
    print(json.dumps({"correct": result["correct"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
