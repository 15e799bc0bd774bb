#!/usr/bin/env python3
"""femtoc's benchmark: one workload per process, outputs checked, times calibrated.

Usage, from the repository root:

    python3 perfbench/run.py --workload compute|fleet|churn|all \
        --seed N --seconds S --trace 0|1

Each workload is a single-thread closed loop: the next operation starts
when the previous one has returned, like a hook thread that blocks until
its containers finish. Every result is compared with an independent oracle
(``models.py``); any mismatch makes the run print ``"correct": false`` and
exit 1.

On a shared machine the speed drifts (up to 2x within seconds on a shared
2-core VM), so every timed call runs between two samples of a fixed
calibration loop and is reported as
``wall × reference_ns / median(last few calibration samples)``, in
calibrated units (``cal_us``, ``cal_s``). The reference constant is in
``spec.json``; raw wall times are printed as diagnostics.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json. ``--trace 1``
prints the per-layer metrics: a fixed-length counting pass gives the counts
(they repeat exactly for a seed), then a timed pass in which every second
op runs traced gives the per-layer times and the tracing overhead. Spans
of the traced ops are written to ``.perfbench-out/``. The last line of
standard output is the JSON result; without ``src/femtoc`` beside this
directory the run prints none and exits 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from collections import deque
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 61
WARMUP_SECONDS = 0.5
COUNT_OPS = {"compute": 16, "fleet": 256, "churn": 64}
MAX_REPORTED_MISMATCHES = 5
MASK64 = (1 << 64) - 1
CALIBRATION_PASSES = 2  # passes of the loop per sample; reference_ns is for 2
CALIBRATION_WINDOW = 3  # samples in the sliding median


def import_package():
    """Import femtoc from this checkout's src/, or exit 1 if it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import femtoc
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import femtoc from {SRC}: {exc}")
    if not Path(femtoc.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: femtoc was imported from {femtoc.__file__}, not from {SRC}")


class Calibrator:
    """Scales wall times by a sliding median of a fixed calibration loop.

    The loop is a tiny register machine of its own (dispatch on small ints,
    list-indexed registers, 8-byte loads and stores on a bytearray, a dict
    lookup), because on a contended machine an interpreter slows down more
    than a bare arithmetic loop does. It allocates no
    GC-tracked objects and runs with the collector paused. It shares no code
    with femtoc, so a faster package cannot make it faster too.
    """

    def __init__(self):
        self.reference_ns = json.loads((HERE / "spec.json").read_text())["calibration"]["reference_ns"]
        self.window: deque[int] = deque(maxlen=CALIBRATION_WINDOW)
        self.raw = array("q")
        rng = random.Random(0)
        self.program = tuple(
            (rng.randrange(4), rng.randrange(8), rng.randrange(0, 4088, 8)) for _ in range(64)
        )
        self.regs = [rng.getrandbits(64) for _ in range(8)]
        self.mem = bytearray(rng.randbytes(4096))
        self.table = {i: (i * 7) & 0xFF for i in range(256)}

    def _loop(self) -> int:
        regs, mem, program, table = self.regs, self.mem, self.program, self.table
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter_ns()
            for _ in range(CALIBRATION_PASSES):
                for op, a, b in program:
                    if op == 0:
                        regs[a] = (regs[a] + regs[(a + 1) & 7]) & MASK64
                    elif op == 1:
                        regs[a] = int.from_bytes(mem[b : b + 8], "little")
                    elif op == 2:
                        mem[b : b + 8] = regs[a].to_bytes(8, "little")
                    else:
                        regs[a] ^= table[regs[a] & 0xFF]
            return time.perf_counter_ns() - start
        finally:
            if enabled:
                gc.enable()

    def sample(self) -> None:
        """Run the calibration loop once and add its time to the window."""
        ns = self._loop()
        self.raw.append(ns)
        self.window.append(ns)

    def factor(self) -> float:
        """reference_ns / median of the window: wall time -> calibrated time."""
        return self.reference_ns / statistics.median(self.window)

    def timed(self, fn, *args):
        """Call ``fn(*args)`` between two calibration samples.

        Returns (result, wall ns, factor); the window then holds the samples
        just before and just after the call, so a change of machine speed
        during the call is caught from both sides.
        """
        self.sample()
        start = time.perf_counter_ns()
        result = fn(*args)
        wall = time.perf_counter_ns() - start
        self.sample()
        return result, wall, self.factor()


class Samples:
    """Per-op wall times and calibration factors, stored flat so that the
    harness's own memory barely grows with the number of ops."""

    def __init__(self):
        self.wall = array("q")
        self.factor = array("d")

    def __len__(self) -> int:
        return len(self.wall)

    def add(self, wall: int, factor: float) -> None:
        self.wall.append(wall)
        self.factor.append(factor)

    def cal_us(self) -> list[float]:
        return [wall * factor / 1000 for wall, factor in zip(self.wall, self.factor)]


class Tally:
    """Checked operations and mismatches."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, workload, op, result) -> None:
        self.attempted += 1
        problem = workload.check(op, result)
        if problem:
            self.fail(problem)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if self.failed <= MAX_REPORTED_MISMATCHES:
            print(f"perfbench: mismatch: {problem}", file=sys.stderr)


class RunAborted(Exception):
    """An operation raised instead of returning a result."""


def run_op(workload, op, run, tally):
    try:
        return run(op)
    except Exception:
        tally.attempted += 1
        tally.fail(traceback.format_exc())
        raise RunAborted from None


def timed_setups(workload, cal, tally) -> tuple[list[float], list[float]]:
    """Set the workload up SETUP_REPEATS times; calibrated seconds per set-up."""
    setup_s, build_s = [], []
    for _ in range(SETUP_REPEATS):
        workload.prepare()
        gc.collect()
        done, wall, factor = cal.timed(run_op, workload, None, lambda _: workload.setup(), tally)
        for op, result in done:
            tally.check(workload, op, result)
        setup_s.append(wall * factor / 1e9)
        if getattr(workload, "build_ns", None) is not None:
            build_s.append(workload.build_ns * factor / 1e9)
    gc.collect()
    return setup_s, build_s


def loop(workload, seconds, cal, tally, recorder=None):
    """Closed loop for ``seconds``; (wall ns, calibration factor) per op.

    Returns (plain, traced) samples. With a recorder every second op runs
    under its spans, so both halves see the same machine and the same mix.
    """
    plain, traced = Samples(), Samples()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        op = workload.next_op()
        spanned = recorder is not None and len(plain) > len(traced)
        if spanned:
            with recorder.spans(workload.engine):
                result, wall, factor = cal.timed(run_op, workload, op, recorder.op_runner(workload.run), tally)
            if op.first_run:
                recorder.counts["first_runs"] += 1
                recorder.counts["first_run_ns"] += recorder.op_exec_ns
        else:
            result, wall, factor = cal.timed(run_op, workload, op, workload.run, tally)
        tally.check(workload, op, result)
        (traced if spanned else plain).add(wall, factor)
    return plain, traced


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def tail_metrics(samples: Samples, cal_raw) -> dict:
    cal_us = samples.cal_us()
    return {
        "wall.op_p50_us": statistics.median(samples.wall) / 1000,
        "wall.calib_p50_ns": statistics.median(cal_raw),
        "tail.op_p99_cal_us": statistics.quantiles(cal_us, n=100)[98] if len(cal_us) > 1 else cal_us[0],
        "tail.op_samples": len(cal_us),
    }


def end_to_end(workload, seconds, tally) -> dict:
    cal = Calibrator()
    setup_s, _ = timed_setups(workload, cal, tally)
    loop(workload, WARMUP_SECONDS, cal, tally)
    mark = len(cal.raw)
    samples, _ = loop(workload, seconds, cal, tally)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before any statistics
    cal_us = samples.cal_us()
    for name, value in tail_metrics(samples, cal.raw[mark:]).items():
        print(f"{name} = {value:.6g}")
    return {
        "setup_s": statistics.median(setup_s),
        "op_p50_cal_us": statistics.median(cal_us),
        "op_p90_cal_us": statistics.quantiles(cal_us, n=10)[8],
        "ops_per_cal_s": len(cal_us) / (sum(cal_us) / 1e6),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(workload, seconds, seed, tally) -> dict:
    from tracing import LAYER_OF, LAYERS, Recorder

    cal = Calibrator()
    _, build_s = timed_setups(workload, cal, tally)
    # On compute and fleet every verification happens in set-up, so the
    # verifier metrics cover one traced set-up as well as the ops.
    traced_setup = Recorder()
    workload.prepare()
    with traced_setup.spans(None):
        done, _, setup_factor = cal.timed(run_op, workload, None, lambda _: workload.setup(), tally)
    for op, result in done:
        tally.check(workload, op, result)
    n_count = COUNT_OPS[workload.name]
    counting = Recorder()
    with counting.counters(workload.engine):
        for _ in range(n_count):
            op = workload.next_op()
            tally.check(workload, op, run_op(workload, op, workload.run, tally))
    c = counting.counts

    loop(workload, WARMUP_SECONDS, cal, tally)
    mark = len(cal.raw)
    traced = Recorder()
    plain, spanned = loop(workload, seconds, cal, tally, traced)
    tails = tail_metrics(plain, cal.raw[mark:])
    traced.write(ROOT / ".perfbench-out" / f"{workload.name}-seed{seed}.spans.jsonl")

    t, g = traced.counts, statistics.median(spanned.factor)
    s = traced_setup.counts

    def us(ns: float) -> float:  # calibrated microseconds
        return ns * g / 1000

    def verifier_ns(recorder: Recorder) -> float:
        return recorder.self_ns["check_program"] + recorder.self_ns["verify"]

    layer_self = {layer: 0 for layer in LAYERS}
    for name, ns in traced.self_ns.items():
        layer_self[LAYER_OF[name]] += ns
    helpers = {k: v for k, v in c.items() if k.startswith("calls.")}
    metrics = {
        "isa.decode_us_per_kslot": ratio(us(traced.total_ns["from_bytes"]), t["slots_decoded"] / 1000),
        "isa.slots_decoded": c["slots_decoded"],
        "verifier.passes_per_verify": ratio(s["passes"] + c["passes"], s["verifies"] + c["verifies"]),
        "verifier.us_per_kslot": ratio(
            (verifier_ns(traced_setup) * setup_factor + verifier_ns(traced) * g) / 1000,
            (s["slots_verified"] + t["slots_verified"]) / 1000,
        ),
        "verifier.verifies": s["verifies"] + c["verifies"],
        "memory.checks_per_op": c["checks"] / n_count,
        "memory.regions_scanned_per_check": ratio(c["regions_scanned"], c["checks"]),
        "memory.denied_per_op": c["denied"] / n_count,
        "memory.allocs_per_slot_run": ratio(c["allocs"], c["slot_runs"]),
        "memory.bytes_allocated_per_op": c["bytes_allocated"] / n_count,
        "vm.exec_ns_per_instr": ratio(us(traced.self_ns["exec_program"]) * 1000, t["instructions"]),
        "vm.instructions_per_op": c["instructions"] / n_count,
        "vm.exec_us_per_run": ratio(us(traced.total_ns["exec_program"]), traced.calls["exec_program"]),
        "vm.faults_per_op": c["faults"] / n_count,
        "facilities.helper_calls_per_op": sum(helpers.values()) / n_count,
        "facilities.helper_us_per_call": ratio(us(traced.self_ns["helper"]), traced.calls["helper"]),
        "engine.trigger_self_us_per_slot": ratio(us(traced.self_ns["trigger_hook"]), t["slot_runs"]),
        "engine.tables_built_per_slot_run": ratio(c["tables_built"], c["slot_runs"]),
        "engine.verify_hit_ratio": 1 - ratio(c["verifies_in_trigger"], c["slot_runs"]),
        "engine.slot_runs_per_op": c["slot_runs"] / n_count,
        "update.apply_us": ratio(us(traced.total_ns["apply_update"]), traced.calls["apply_update"]),
        "update.apply_self_us": ratio(us(traced.self_ns["apply_update"]), traced.calls["apply_update"]),
        "update.first_run_us": ratio(us(t["first_run_ns"]), t["first_runs"]),
        "update.accepted": c["update.accepted"],
        "scenario.fire_self_us": ratio(us(traced.self_ns["fire"]), traced.calls["fire"]),
        "scenario.build_s": statistics.median(build_s) if build_s else 0.0,
        "trace.count_ops": n_count,
        "trace.op_us": ratio(us(traced.total_ns["op"]), traced.calls["op"]),
        "trace.overhead_ratio": ratio(
            statistics.fmean(spanned.cal_us()), statistics.fmean(plain.cal_us())
        ),
        "failed_ratio": ratio(tally.failed, tally.attempted),
        **tails,
    }
    for reason in ("BadSignature", "DigestMismatch", "RollbackRejected"):
        metrics[f"update.rejected.{reason}"] = c[f"update.rejected.{reason}"]
    for name in ("container_put", "container_get", "global_put", "global_get", "tenant_put",
                 "tenant_get", "now_ms", "sensor_read", "response_write", "debug_log"):
        metrics[f"facilities.calls.{name}"] = c[f"calls.{name}"]
    for layer in LAYERS:
        metrics[f"trace.self_us_per_op.{layer}"] = ratio(us(layer_self[layer]), traced.calls["op"])
    print(
        f"trace: self times of {', '.join(LAYERS)} sum to "
        f"{sum(metrics[f'trace.self_us_per_op.{layer}'] for layer in LAYERS):.6g} cal_us per op; "
        f"the op span is {metrics['trace.op_us']:.6g} cal_us"
    )
    return metrics


def run_all(args, bench: dict) -> int:
    """Run each workload in its own process and print every metric with its unit."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for entry in bench["workloads"]:
        name = entry["name"]
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
        if not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, value in result["metrics"].items():
            print(f"   {metric:<40} {value['value']:>16.6g} {value['unit']}")
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("compute", "fleet", "churn", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_package()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all(args, bench)
    from workloads import WORKLOADS

    declared = bench["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload](args.seed)
    tally = Tally()
    try:
        if args.trace:
            values = per_layer(workload, args.seconds, args.seed, tally)
        else:
            values = end_to_end(workload, args.seconds, tally)
    except RunAborted:
        values = {}
    if values and set(values) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ {m['name'] for m in declared})}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared if m["name"] in values}
    correct = tally.failed == 0 and bool(values)
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
