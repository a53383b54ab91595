#!/usr/bin/env python3
"""Verdict benchmark for paulimc.

    python3 perfbench/run.py --workload clifft_deep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the program is imported from
`src/`.  One process, one client, closed loop: each op is one circuit pair
given as QASM text, and the next op starts when the previous one returns.
`--trace 0` prints the end-to-end metrics, `--trace 1` the per-module
metrics of a separate traced run.  Every metric line reads
`name: value unit`; the last line of stdout is one JSON object.  A wrong
verdict or a formula that changes in a save/load round trip ends the run
with exit code 1 and no result.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"  # span dumps and the op's formula files; not committed
SETUP_REPS = 11
MIN_BEYOND = 10  # ops a run must have beyond its tail percentile
PROBE_TIMEOUT_S = 120
W = None  # the workloads module, imported once src/ is on sys.path

E2E_UNITS = {
    "pair_p50_s": "s",
    "pair_tail_s": "s",
    "pairs_per_s": "1/s",
    "ok_ratio": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per pair means unless the name says ratio, gain or stretch.
LAYER_UNITS = {
    "circuits.parse_s": "s",
    "circuits.lower_s": "s",
    "circuits.native_gates": "count",
    "encoder.encode_s": "s",
    "encoder.assemble_s": "s",
    "encoder.literals": "count",
    "counting.count_s": "s",
    "counting.decisions": "count",
    "counting.propagations": "count",
    "counting.cache_hit_ratio": "fraction",
    "counting.zero_decision_counts": "count",
    "driver.verdict_s": "s",
    "driver.parallel_gain": "ratio",
    "driver.check_stretch": "ratio",
    "driver.cancelled_checks": "count",
    "driver.wasted_decisions_ratio": "fraction",
    "dimacs.save_s": "s",
    "dimacs.load_s": "s",
    "dimacs.bytes": "B",
    "trace.overhead_ratio": "fraction",
}


def use_source_tree() -> None:
    """Import paulimc from this checkout's src/ and nothing else."""
    if not (SRC / "paulimc" / "__init__.py").is_file():
        sys.exit(f"error: no paulimc sources under {SRC}")
    sys.path.insert(0, str(SRC))


def no_span(name):
    return nullcontext()


class Span:
    __slots__ = ("id", "parent", "pair", "name", "start", "end")

    def __init__(self, sid, parent, pair, name):
        self.id, self.parent, self.pair, self.name = sid, parent, pair, name
        self.start = self.end = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counters kept in memory, written out once at the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.pair: int | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        s = Span(len(self.spans), self._open[-1] if self._open else None,
                 self.pair, name)
        self.spans.append(s)
        self._open.append(s.id)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def last(self, name: str) -> Span:
        return next(s for s in reversed(self.spans) if s.name == name)

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def seconds_by_name(self, parent_name: str | None = None) -> dict:
        """Total span seconds per name, optionally only under parents of
        the given name."""
        out: dict[str, float] = {}
        for s in self.spans:
            if parent_name is not None and (
                s.parent is None or self.spans[s.parent].name != parent_name
            ):
                continue
            out[s.name] = out.get(s.name, 0.0) + s.seconds
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "pair": s.pair,
                    "name": s.name, "start": s.start, "end": s.end,
                }) + "\n")


def timed_op(w, pair, out_dir, span):
    """(seconds, ok, verdict); an op that raises counts as failed."""
    t0 = time.perf_counter()
    try:
        if w.encode_only:
            result = W.encode_op(pair, out_dir, span)
        else:
            result = W.check_op(pair, span)
    except Exception:  # a failed op is measured, not fatal
        dt = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return dt, False, None
    dt = time.perf_counter() - t0
    if w.encode_only:
        _, formulas, loaded = result
        W.check_round_trip(pair, formulas, loaded)
        return dt, True, None
    return dt, W.verdict_ok(pair, result), result


def setup_probe(args) -> None:
    """Child process: import time plus one warm-up op, as one number."""
    global W
    t0 = time.perf_counter()
    import paulimc  # noqa: F401
    import workloads as W
    imported = time.perf_counter() - t0
    w = W.WORKLOADS[args.workload]
    pair = next(W.pairs(w.tiny(), args.seed))  # input generation: not set-up
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        dt, ok, _ = timed_op(w, pair, Path(tmp), no_span)
    if not ok:
        sys.exit("error: warm-up op failed")
    print(json.dumps({"setup_s": imported + dt}))


def measure_setup(args) -> float:
    samples = []
    for _ in range(SETUP_REPS):
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-probe"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit("error: set-up probe failed")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples)


def tail(times: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(times)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(w, args, pair_iter) -> dict:
    setup_s = measure_setup(args)
    times: list[float] = []
    failed = 0
    loop_s = 0.0  # op seconds only: generation between ops is not timed
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        out_dir = Path(tmp)
        timed_op(w, next(W.pairs(w.tiny(), args.seed)), out_dir, no_span)
        while loop_s < args.seconds:
            pair = next(pair_iter)  # generation and labelling: not timed
            dt, ok, _ = timed_op(w, pair, out_dir, no_span)
            loop_s += dt
            times.append(dt)
            failed += not ok
    p_tail, beyond = tail(times, w.tail_pct)
    print(f"workload: {w.name} ({w.qubits} qubits, {w.gates} gates), "
          f"seed {args.seed}")
    print(f"pair_tail_s is p{w.tail_pct} of {len(times)} ops, "
          f"{beyond} ops beyond it")
    if beyond < MIN_BEYOND:
        msg = (f"warning: only {beyond} ops beyond p{w.tail_pct}, fewer than "
               f"{MIN_BEYOND}; pair_tail_s rests on too few samples")
        print(msg)
        print(msg, file=sys.stderr)
    metrics = {
        "pair_p50_s": statistics.median(times),
        "pair_tail_s": p_tail,
        "pairs_per_s": (len(times) - failed) / loop_s,
        "ok_ratio": (len(times) - failed) / len(times),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return report(metrics, E2E_UNITS, len(times), failed)


def per_layer(w, args, pair_iter) -> dict:
    tracer = Tracer()
    stretches: list[float] = []
    op_s = {False: 0.0, True: 0.0}  # untraced / traced op seconds
    attempted = failed = 0
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        out_dir = Path(tmp)
        timed_op(w, next(W.pairs(w.tiny(), args.seed)), out_dir, no_span)
        t_end = time.perf_counter() + args.seconds
        while attempted == 0 or time.perf_counter() < t_end:
            pair = next(pair_iter)
            tracer.pair = pair.index
            attempted += 1
            # same pair with spans off and on, alternating which goes first
            order = (False, True) if pair.index % 2 == 0 else (True, False)
            results = {}
            for traced in order:
                with tracer.span("op") if traced else nullcontext():
                    results[traced] = timed_op(
                        w, pair, out_dir, tracer.span if traced else no_span
                    )
            if not (results[False][1] and results[True][1]):
                failed += 1
                continue
            for traced in order:
                op_s[traced] += results[traced][0]
            with tracer.span("replay"):
                W.replay(pair, results[True][2], tracer, out_dir, stretches)
    failed += int(tracer.counters.get("failed_replays", 0))
    span_file = OUT / f"trace-{w.name}-{args.seed}.jsonl"
    tracer.write(span_file)

    done = attempted - failed
    c = tracer.counters.get
    layer = tracer.seconds_by_name("replay")
    verdict_s = tracer.seconds_by_name().get("driver.check_equivalence", 0.0)
    unmeasured = []

    def share(num, den, name):
        if den > 0:
            return num / den
        unmeasured.append(name)
        return 0.0

    def per_pair(value):
        return value / done if done else 0.0

    hits = c("counting.cache_hits", 0.0)
    metrics = {
        "circuits.parse_s": per_pair(layer.get("circuits.parse_qasm", 0.0)),
        "circuits.lower_s": per_pair(layer.get("circuits.lower", 0.0)),
        "circuits.native_gates": per_pair(c("circuits.native_gates", 0)),
        "encoder.encode_s": per_pair(layer.get("encoder.encode_circuit", 0.0)),
        "encoder.assemble_s": per_pair(layer.get("encoder.assemble_check", 0.0)),
        "encoder.literals": per_pair(c("encoder.literals", 0)),
        "counting.count_s": per_pair(layer.get("counting.count", 0.0)),
        "counting.decisions": per_pair(c("counting.decisions", 0)),
        "counting.propagations": per_pair(c("counting.propagations", 0)),
        "counting.cache_hit_ratio": share(
            hits, hits + c("counting.cache_stores", 0.0),
            "counting.cache_hit_ratio"),
        "counting.zero_decision_counts": per_pair(
            c("counting.zero_decision_counts", 0)),
        "driver.verdict_s": per_pair(verdict_s),
        "driver.parallel_gain": share(
            c("driver.eq_serial_s", 0.0), c("driver.eq_verdict_s", 0.0),
            "driver.parallel_gain"),
        "driver.check_stretch": (
            statistics.median(stretches) if stretches
            else share(0, 0, "driver.check_stretch")),
        "driver.cancelled_checks": per_pair(c("driver.cancelled_checks", 0)),
        "driver.wasted_decisions_ratio": share(
            c("driver.wasted_decisions", 0.0), c("driver.ne_decisions", 0.0),
            "driver.wasted_decisions_ratio"),
        "dimacs.save_s": per_pair(layer.get("dimacs.save_cnf", 0.0)),
        "dimacs.load_s": per_pair(layer.get("dimacs.load_cnf", 0.0)),
        "dimacs.bytes": per_pair(c("dimacs.bytes", 0)),
        "trace.overhead_ratio": share(
            op_s[True] - op_s[False], op_s[False], "trace.overhead_ratio"),
    }
    print(f"workload: {w.name} ({w.qubits} qubits, {w.gates} gates), "
          f"seed {args.seed}, traced run")
    print(f"{done} pairs replayed serially; {len(tracer.spans)} spans "
          f"written to {span_file.relative_to(ROOT)}")
    print(f"tracing overhead: traced ops took {op_s[True]:.6f} s, the same "
          f"ops untraced {op_s[False]:.6f} s")
    print("weights: not measured on its own; the benchmark calls nothing in "
          "weights, so its cost sits inside counting.count_s")
    for name in unmeasured:
        print(f"not measured in this run (no qualifying pairs), reported "
              f"as 0: {name}")
    return report(metrics, LAYER_UNITS, attempted, failed)


def report(metrics: dict, units: dict, attempted: int, failed: int) -> dict:
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def smoke() -> int:
    """Every workload at a tiny size, both modes: each metric that
    BENCHMARK.json names must be printed with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (wl["name"] for wl in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", "1", "--seconds", "1",
                   "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=PROBE_TIMEOUT_S)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != expect[trace]:
                problems.append(f"{where}: metrics {got} != {expect[trace]}")
            for name, unit in expect[trace].items():
                if not any(line.startswith(f"{name}: ")
                           and line.endswith(f" {unit}") for line in lines):
                    problems.append(f"{where}: no '{name}: <value> {unit}' line")
            if not (result["correct"] and result["attempted"] >= 1
                    and result["failed"] == 0):
                problems.append(f"{where}: result {result}")
            print(f"smoke: {where}: {result['attempted']} ops ok")
    for p in problems:
        print(f"smoke: FAIL {p}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="run the workload at a tiny size (smoke tests)")
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload tiny, check every metric prints")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.smoke:
        return smoke()
    use_source_tree()
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        setup_probe(args)
        return 0
    global W
    import workloads as W

    if args.workload not in W.WORKLOADS:
        ap.error(f"--workload must be one of {sorted(W.WORKLOADS)}")
    w = W.WORKLOADS[args.workload]
    if args.tiny:
        w = w.tiny()
    pair_iter = W.pairs(w, args.seed)
    try:
        result = (per_layer if args.trace else end_to_end)(w, args, pair_iter)
    except W.BenchmarkError as exc:
        print(f"error: wrong output: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
