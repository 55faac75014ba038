"""Worker process of the benchmark: set up, time items, judge every output.

    python3 perfbench/worker.py WORKLOAD [N,N,...]     (started by run.py)

Set-up is importing the package (at the top of this module), the lazily
built 10^6 prime sieve, and the workload's cache warm-up for the listed
fields; the worker then prints ``ready``.  It reads one JSON job from
stdin (none: it exits at once), runs it, and prints one JSON result line.
Items are judged against the generating input, independent integer
arithmetic (oracle.py) and outputs recorded when the benchmark was added
(expected.json); the CLI goldens in fixtures/ are compared byte for byte
after the timed phase.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pickle
import random
import resource
import statistics
import sys
from array import array
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from artifact import cli, dnumbers, dplus, fusion, quadring, units

import oracle
import speed
from tracer import Tracer, per_layer_metrics

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
FIXTURES = Path.cwd() / "fixtures"

# work counts that must repeat exactly for a seed; checked between two traced passes
MACHINE_INDEPENDENT = (
    "fusion.candidates_scanned", "dplus.enumerate_field.calls",
    "dplus.fields_with_members", "units.fundamental_unit.distinct_n",
    "quadring.factorize.beyond_sieve", "quadring.arith.calls", "cli.exit_3",
)

# item outcomes: DEFECT is the documented known-defect refusal (README.md),
# UNSOLVED a budget refusal anywhere else
OK, DEFECT, UNSOLVED, WRONG = "ok", "defect", "unsolved", "wrong"


def cli_output(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def enumerate_text(cutoff: str) -> str:
    """The `dnum enumerate M` records of enumerate_all(M), one per line."""
    elements = dplus.enumerate_all(Fraction(cutoff), include_integers=True)
    return "\n".join(el.record() for el in elements)


def fusion_text(scan, profiles) -> str:
    lines = [f"scanned={scan.candidates_scanned}"]
    for sol, profs in zip(scan.solutions, profiles):
        lines.append(f"d_int={sol.d_int} coeffs={list(sol.coeffs)}")
        lines += [f"  parts={list(p.parts)}" for p in profs]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# workloads: materialize inputs, run one item, judge its output


class Roundtrip:
    """canonical_factor(evaluate(f)) == f over squarefree N <= 97."""

    goldens = ()

    def __init__(self, job):
        self.items = []
        for N, ell, m, pick in job["items"]:
            gs = dnumbers.generator_set(N)
            combos = gs.delta_combos()
            delta = combos[pick % len(combos)]
            if m == 0 and delta == (0, 0, 0):
                continue  # a rational integer; criterion 9 skips these too
            self.items.append(dnumbers.CanonicalFactorization(N, ell, m, delta, gs.case))

    def run(self, fact, item_id, tracer):
        start = perf_counter()
        got = dnumbers.canonical_factor(dnumbers.evaluate(fact))
        return perf_counter() - start, got

    def judge(self, fact, got):
        if got == fact:
            return OK, None
        return WRONG, f"round trip of {fact} gave {got}"


class Factor:
    """`dnum --budget B factor N p q` through cli.main, stdout captured."""

    goldens = ()

    def __init__(self, job):
        self.items = []
        for N, ell, m, pick, defect in job["items"]:
            gs = dnumbers.generator_set(N)
            delta = gs.delta_combos()[pick % len(gs.delta_combos())]
            x = dnumbers.evaluate(dnumbers.CanonicalFactorization(N, ell, m, delta, gs.case))
            argv = ["--budget", str(job["budget"]), "factor", str(N), str(x.p), str(x.q)]
            want = f"ell={ell} m={m} delta={''.join(map(str, delta))}\n"
            self.items.append((argv, want, defect))

    def run(self, item, item_id, tracer):
        start = perf_counter()
        got = cli_output(item[0])
        return perf_counter() - start, got

    def judge(self, item, got):
        argv, want, defect = item
        code, out, err = got
        if code == 0 and out == want:
            return OK, None
        request = "dnum " + " ".join(argv)
        if code == 3 and err.startswith("FactorizationLimit"):
            # the library's documented refusal; on a squared large prime it
            # is the known defect, anywhere else a lost factorization
            return (DEFECT if defect else UNSOLVED), f"{request}: exit 3, want {want.strip()}"
        return WRONG, f"{request}: exit {code} {out.strip()!r}{err.strip()!r}"


class Enumerate:
    """enumerate_all(M, include_integers=True), each in a fresh forked child."""

    goldens = ((["enumerate", "5"], "enumerate_5.txt"),
               (["--json", "enumerate", "5"], "enumerate_5.jsonl"))

    def __init__(self, job):
        self.items = job["items"]
        self.expected = json.loads(EXPECTED.read_text())["enumerate"]

    def run(self, cutoff, item_id, tracer):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: starts with the set-up's empty per-field caches
            os.close(read_fd)
            try:
                if tracer:
                    tracer.reset()
                    tracer.item = item_id
                start = perf_counter()
                text = enumerate_text(cutoff)
                reply = (perf_counter() - start, text, tracer.snapshot() if tracer else None)
            except Exception as err:  # reported to the parent as a wrong item
                reply = (0.0, f"error: {err!r}", None)
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(reply, pipe)
            os._exit(0)
        os.close(write_fd)
        with os.fdopen(read_fd, "rb") as pipe:
            data = pipe.read()
        os.waitpid(pid, 0)
        latency, text, snap = pickle.loads(data)
        if snap is not None:
            tracer.adopt(snap)
        return latency, text

    def judge(self, cutoff, text):
        problems = oracle.check_enumerate_records(text, Fraction(cutoff))
        if digest(text) != self.expected[cutoff]:
            problems.append(f"enumerate {cutoff}: output differs from expected.json")
        return (WRONG, "; ".join(problems[:3])) if problems else (OK, None)


class Fusion:
    """decompose_global_dim + refine_simple_dims per target, plus screens
    and the quantum-group table."""

    goldens = ((["table", "fig3"], "table_fig3.txt"),
               (["decompose", "21", "21", "1", "--dint-divides", "21", "--refine"],
                "decompose_21.txt"))

    def __init__(self, job):
        self.items = [tuple(item) for item in job["items"]]
        self.units = {int(N): tuple(tu) for N, tu in job["units"].items()}
        self.expected = json.loads(EXPECTED.read_text())

    def run(self, item, item_id, tracer):
        kind = item[0]
        start = perf_counter()
        if kind == "table":
            got = [(r.label(), r.N, r.value.p, r.value.q) for r in fusion.quantum_group_table()]
        elif kind == "screen":
            got = fusion.kronecker_screen(quadring.make(*item[1:]))
        else:
            scan = fusion.decompose_global_dim(*item[1:])
            got = (scan, [fusion.refine_simple_dims(s, apply_modular_filter=True)
                          for s in scan.solutions])
        return perf_counter() - start, got

    def judge(self, item, got):
        kind = item[0]
        if kind == "table":
            ok = [list(row) for row in got] == self.expected["table"]
            return (OK, None) if ok else (WRONG, "quantum_group_table changed")
        key = ",".join(map(str, item[1:]))
        if kind == "screen":
            ok = [list(h) for h in got] == self.expected["screen"][key]
            return (OK, None) if ok else (WRONG, f"screen {key} gave {got}")
        return self._judge_decomposition(item[1:], *got)

    def _judge_decomposition(self, target, scan, profiles):
        N, ell, m = target
        eps = self.units[N]
        want = oracle.power(eps, m, N)
        want = (ell * want[0], ell * want[1])
        for sol, profs in zip(scan.solutions, profiles):
            total = (2 * sol.d_int, 0)
            for j, lj in sol.coeffs:
                if j < 1 or lj < 0:
                    return WRONG, f"{target}: bad term ({j}, {lj})"
                e = oracle.power(eps, j, N)
                total = (total[0] + lj * e[0], total[1] + lj * e[1])
            if sol.d_int < 1 or total != want:
                return WRONG, f"{target}: d={sol.d_int} {sol.coeffs} does not re-sum"
            for prof in profs:
                per_j = defaultdict(int)
                for c, j in prof.parts:
                    per_j[j] += c
                if dict(per_j) != {j: lj for j, lj in sol.coeffs}:
                    return WRONG, f"{target}: profile {prof.parts} does not split {sol.coeffs}"
        want_digest = self.expected["fusion"][",".join(map(str, target))]
        if digest(fusion_text(scan, profiles)) != want_digest:
            return WRONG, f"decompose {target}: output differs from expected.json"
        return OK, None


WORKLOADS = {"roundtrip": Roundtrip, "factor": Factor,
             "enumerate": Enumerate, "fusion": Fusion}


# ---------------------------------------------------------------------------
# timed and traced phases


class Tally:
    """Outcome counts and the first few problems of a run."""

    def __init__(self):
        self.attempted = self.solved = self.failed = self.wrong = 0
        self.notes: list[str] = []

    def add(self, status, note) -> None:
        self.attempted += 1
        self.solved += status == OK
        self.wrong += status == WRONG
        self.failed += status in (WRONG, UNSOLVED)
        if status == DEFECT:
            note = f"known defect: {note}"
        if note and len(self.notes) < 10:
            self.notes.append(note)


def run_item(wl, item, item_id, tracer, tally):
    """Run one item and judge it; return its program time or None on a crash."""
    try:
        latency, got = wl.run(item, item_id, tracer)
    except Exception as err:  # a crash is a wrong item, not a dead benchmark
        tally.add(WRONG, f"{item}: {type(err).__name__}: {err}")
        return None
    tally.add(*wl.judge(item, got))
    return latency


class Latencies:
    """A uniform sample of at most SIZE (raw, rescaled) item times.

    Exact for runs of up to SIZE items; beyond that a reservoir sample, so
    the worker's memory, and with it peak_rss_mb, does not grow with the
    number of items a faster program gets through.
    """

    SIZE = 65_536

    def __init__(self):
        self.raw = array("d", bytes(8 * self.SIZE))
        self.ref = array("d", bytes(8 * self.SIZE))
        self.seen = 0
        self._rng = random.Random(0)

    def add(self, raw: float, ref: float) -> None:
        slot = self.seen if self.seen < self.SIZE else self._rng.randrange(self.seen + 1)
        self.seen += 1
        if slot < self.SIZE:
            self.raw[slot], self.ref[slot] = raw, ref

    def quantiles_ms(self, values) -> tuple[float, float]:
        kept = values[:min(self.seen, self.SIZE)]
        return 1000 * statistics.median(kept), 1000 * statistics.quantiles(kept, n=10)[8]


def timed_phase(wl, job, tally) -> dict:
    """Run items until `seconds` have passed at the end of a block.

    A probe (speed.py) runs about every PROBE_EVERY_S; the item times of
    each stretch between two probes are rescaled by those two probes.
    """
    items, block, seconds = wl.items, job["block"], job["seconds"]
    latencies = Latencies()
    raw_busy = ref_busy = 0.0
    stretch_lat, stretch_busy = [], 0.0
    before = speed.probe_s()
    began = last_probe = perf_counter()
    i = 0
    while True:
        done = i % block == 0 and perf_counter() - began >= seconds
        if done or perf_counter() - last_probe >= speed.PROBE_EVERY_S:
            after = speed.probe_s()
            k = speed.scale(before, after)
            for t in stretch_lat:
                latencies.add(t, t * k)
            raw_busy += stretch_busy
            ref_busy += stretch_busy * k
            stretch_lat, stretch_busy = [], 0.0
            before, last_probe = after, perf_counter()
        if done:
            break
        start = perf_counter()
        latency = run_item(wl, items[i % len(items)], i, None, tally)
        stretch_busy += perf_counter() - start
        if latency is not None:
            stretch_lat.append(latency)
        i += 1
    p50, p90 = latencies.quantiles_ms(latencies.ref)
    raw_p50, raw_p90 = latencies.quantiles_ms(latencies.raw)
    return {"items": i, "ref_s": ref_busy, "raw_s": raw_busy, "p50_ms": p50,
            "p90_ms": p90, "raw_p50_ms": raw_p50, "raw_p90_ms": raw_p90}


def one_pass(wl, items, tracer, tally) -> tuple[float, dict]:
    """Run items once; return the summed item time and what the tracer saw."""
    if tracer:
        tracer.reset()
    total = 0.0
    for i, item in enumerate(items):
        if tracer:
            tracer.item = i
        start = perf_counter()
        run_item(wl, item, i, tracer, tally)
        total += perf_counter() - start
    if not tracer:
        return total, {}
    return total, tracer.snapshot()


def traced_phase(wl, job, tally, workload: str) -> dict:
    """An untraced pass and two traced passes over the same prefix of items."""
    items = [wl.items[i % len(wl.items)] for i in range(job["trace_items"])]
    untraced_s, _ = one_pass(wl, items, None, tally)
    tracer = Tracer()
    tracer.install()
    traced_s, snap = one_pass(wl, items, tracer, tally)
    again_s, snap_again = one_pass(wl, items, tracer, tally)
    metrics = per_layer_metrics(snap, traced_s)
    again = per_layer_metrics(snap_again, again_s)
    for name in MACHINE_INDEPENDENT:
        if metrics[name] != again[name]:
            tally.wrong += 1
            tally.notes.append(f"{name} did not repeat: {metrics[name]} then {again[name]}")
    n = len(items)
    metrics["trace.items"] = n
    metrics["trace.throughput_per_s"] = n / traced_s
    metrics["trace.untraced_throughput_per_s"] = n / untraced_s
    metrics["trace.overhead_per_s"] = n / traced_s - n / untraced_s
    write_spans(snap["spans"], workload, job["seed"])
    return {name: [value, metric_unit(name)] for name, value in metrics.items()}


def metric_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio")):
        return "1"
    return "count"


def write_spans(spans, workload: str, seed: int) -> None:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    t0 = min((s[4] for s in spans), default=0.0)
    with open(out / f"spans_{workload}_seed{seed}.jsonl", "w") as fh:
        for name, span_id, parent, item, start, end in spans:
            fh.write(json.dumps({"name": name, "id": span_id, "parent": parent,
                                 "item": item, "start": start - t0, "end": end - t0}) + "\n")


def check_goldens(wl, tally) -> None:
    for argv, fixture in wl.goldens:
        code, out, _ = cli_output(argv)
        if code != 0 or out != (FIXTURES / fixture).read_text():
            tally.wrong += 1
            tally.notes.append(f"dnum {' '.join(argv)} differs from fixtures/{fixture}")


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def main() -> int:
    workload = sys.argv[1]
    warm = [int(n) for n in sys.argv[2].split(",") if n] if len(sys.argv) > 2 else []
    quadring.factorize(2)  # builds the 10^6 prime sieve
    for N in warm:
        units.fundamental_unit(N)
        dnumbers.generator_set(N)
    print("ready", flush=True)

    raw = sys.stdin.read()
    if not raw.strip():
        return 0  # a set-up timing only
    job = json.loads(raw)
    wl = WORKLOADS[workload](job)
    tally = Tally()
    if job["trace"]:
        result = {"metrics": traced_phase(wl, job, tally, workload)}
    else:
        result = timed_phase(wl, job, tally)
        result["peak_rss_mb"] = peak_rss_mb()
    check_goldens(wl, tally)
    result.update(correct=tally.wrong == 0, attempted=tally.attempted,
                  failed=tally.failed, solved=tally.solved, notes=tally.notes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
