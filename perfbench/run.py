"""Benchmark runner for constr.

    python3 perfbench/run.py --workload queries|suite|equivalence \
        --seed N --seconds S --trace 0|1

Run from the root of a source tree (the directory holding `src/constr`).
Each invocation runs one workload in this interpreter: one process, one
thread, a closed loop with one client.  It prints a metadata line and,
as the last line, `{"correct", "attempted", "failed", "metrics"}`.

--trace 0  times whole rounds of ops until their summed time reaches
           S seconds and reports the end-to-end metrics.
--trace 1  runs a fixed number of rounds twice, first without and then
           with spans, and reports the per-layer metrics.

Times are reported at the reference speed of `speed.py`, which takes out
the host's drift; the metadata line also holds them as measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

from speed import Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_SAMPLES = 5  # set-ups per untraced run: this process and four probe processes
TRACE_ROUNDS = {"queries": 2, "suite": 1, "equivalence": 1}
MAX_LOOP_S = 120.0  # stop starting ops after this much real time

LAYER_SPANS = (
    "cli.main", "textio.parse_model", "model.validate_model", "model.tables",
    "formula.parse_formula", "semantics.holds", "semantics.extension",
    "semantics.explain", "semantics.strategic_holds_at", "semantics.extension_bits",
    "semantics.strategic_states_bits", "bisim.greatest_cl_bisim",
    "bisim.greatest_constr_bisim", "bisim.distinguishing_formula", "bisim.check_bisim",
    "validity.generate", "validity.run_suite", "validity.check_scheme",
)
COUNTED_SPANS = (
    "textio.parse_model", "model.tables", "semantics.strategic_holds_at",
    "semantics.extension_bits", "semantics.strategic_states_bits",
)
OP_COUNTS = (
    "validity.models_tried", "formula.distinguisher_dag_nodes",
    "formula.distinguisher_tree_nodes", "bisim.relation_pairs", "bisim.classes",
    "bisim.distinguished_pairs",
)


def shape_names():
    from workloads import CHAIN_SIZES, QUERY_SHAPES, UNION_SHAPES

    return ([f"a{a}s{s}" for a, s in QUERY_SHAPES] + [f"chain{n}" for n in CHAIN_SIZES]
            + [f"union.a{a}s{s}" for a, s in UNION_SHAPES])


def parse_args(argv):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs, for the benchmark's self-test")
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up, print its seconds and exit")
    return ap.parse_args(argv)


class Stats:
    """What one pass over ops measured; latencies at the reference speed."""

    def __init__(self):
        self.latencies: list[float] = []
        self.measured: list[float] = []
        self.factors: list[float] = []
        self.by_shape: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.counts: dict[str, int] = {}

    @property
    def timed_s(self) -> float:
        return sum(self.latencies)


def run_pass(wl, rounds, refs, seconds=None, traced=None, count=False) -> Stats:
    """Execute rounds of ops, checking each answer outside the timed part.

    With `seconds`, stop after the round in which the ops' summed
    measured time reaches it, so that every run measures whole rounds.
    """
    stats = Stats()
    started = perf_counter()
    with Speed() as speed:
        for ops in rounds:
            if seconds is not None and (sum(stats.measured) >= seconds
                                        or perf_counter() - started > MAX_LOOP_S):
                break
            run_round(wl, ops, refs, stats, speed, traced, count)
    return stats


def run_round(wl, ops, refs, stats, speed, traced, count):
    """`traced`, when given, is (recorder, bindings): spans are recorded
    while the op executes and nowhere else."""
    for op in ops:
        try:
            prepared = wl.prepare(op)
            if traced is None:
                output, spans = wl.execute(op, prepared, speed)
            else:
                recorder, bindings = traced
                recorder.op_id += 1
                bindings.enable()
                try:
                    output, spans = wl.execute(op, prepared, speed)
                finally:
                    bindings.disable()
            timings = [speed.seconds(begin, end) for begin, end in spans]
            ok = wl.check(op, output, refs)
            extra = wl.counts(op, output) if count else {}
        except Exception:  # an op that raises is a failed op; keep going
            traceback.print_exc(file=sys.stderr)
            stats.attempted += 1
            stats.failed += 1
            continue
        latencies = [seconds * factor for seconds, factor in timings]
        stats.attempted += len(latencies)
        stats.failed += 0 if ok else len(latencies)
        stats.latencies.extend(latencies)
        stats.measured.extend(seconds for seconds, _ in timings)
        stats.factors.extend(factor for _, factor in timings)
        shape = wl.shape(op)
        if shape is not None:
            stats.by_shape.setdefault(shape, []).extend(latencies)
        for key, value in extra.items():
            stats.counts[key] = stats.counts.get(key, 0) + value
        del output


def shape_p50_ms(stats: Stats) -> dict:
    return {f"shape.{name}.p50_ms": (statistics.median(stats.by_shape[name]) * 1000.0
                                     if name in stats.by_shape else 0.0)
            for name in shape_names()}


def timed_setup(wl) -> tuple[float, float]:
    """Seconds from before `import constr` to ready, at the reference
    speed and as measured."""
    with Speed() as speed:
        begin = speed.mark()
        sys.path.insert(0, str(ROOT / "src"))
        wl.setup()
        took, factor = speed.seconds(begin, speed.mark())
    return took * factor, took


def setup_probe(args) -> tuple[float, float]:
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-2000:]}")
    return tuple(json.loads(done.stdout.strip().splitlines()[-1]))


def metadata(args, attempted) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "constr").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(path.relative_to(ROOT).as_posix().encode())
            src.update(path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "tiny": args.tiny,
        "ops": attempted,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "constr" / "__init__.py").is_file():
        print(f"error: no constr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, load_refs

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir, tiny=args.tiny)
        if args.setup_only:
            print(json.dumps(timed_setup(wl)))
            return 0
        setups = [] if args.trace else [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
        refs = load_refs(args.workload)
        setups.append(timed_setup(wl))
        wl.bind()
        if args.trace:
            result = traced_run(wl, refs)
        else:
            result = untraced_run(wl, refs, args.seconds)
            result["metrics"]["setup_s"] = statistics.median(s for s, _ in setups)
            result["extra"]["measured"]["setup_s"] = statistics.median(m for _, m in setups)
        meta = metadata(args, result["attempted"])
        print(json.dumps({"meta": meta, "setup_samples_s": setups,
                          **result.pop("extra")}))
        print(json.dumps({
            "correct": result["failed"] == 0 and result["attempted"] > 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": unit_of(k)}
                        for k, v in result["metrics"].items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def timing_metrics(latencies) -> dict:
    lat_ms = sorted(x * 1000.0 for x in latencies) or [0.0]
    total = sum(latencies)
    return {
        "ops_per_s": len(latencies) / total if total else 0.0,
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": statistics.quantiles(lat_ms, n=10, method="inclusive")[-1]
        if len(lat_ms) > 1 else lat_ms[0],
    }


def untraced_run(wl, refs, seconds) -> dict:
    stats = run_pass(wl, wl.rounds(), refs, seconds=seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {**timing_metrics(stats.latencies), "peak_rss_mb": rss_mb}
    extra = {"measured": timing_metrics(stats.measured),
             "measured_s": sum(stats.measured), "samples": len(stats.latencies),
             "speed_factor_median": statistics.median(stats.factors or [1.0]),
             **{k: v for k, v in shape_p50_ms(stats).items() if v}}
    return {"attempted": stats.attempted, "failed": stats.failed,
            "metrics": metrics, "extra": extra}


def traced_run(wl, refs) -> dict:
    from tracing import Recorder, install

    rounds = wl.rounds(traced=True)
    rounds = [next(rounds) for _ in range(TRACE_ROUNDS[wl.name])]
    plain = run_pass(wl, rounds, refs)
    recorder = Recorder()
    wl.bind(recorder)
    traced = run_pass(wl, rounds, refs, traced=(recorder, install(recorder)), count=True)
    wl.bind()
    factor = statistics.median(traced.factors or [1.0])
    metrics = {f"{name}.s": recorder.self_s.get(name, 0.0) * factor for name in LAYER_SPANS}
    metrics.update({f"{name}.calls": recorder.calls.get(name, 0) for name in COUNTED_SPANS})
    metrics.update({name: traced.counts.get(name, 0) for name in OP_COUNTS})
    metrics["trace.overhead_ratio"] = traced.timed_s / plain.timed_s
    metrics["trace.self_coverage"] = recorder.total_self_s() / sum(traced.measured)
    metrics.update(shape_p50_ms(plain))
    extra = {"untraced_s": plain.timed_s, "traced_s": traced.timed_s,
             "spans_kept": len(recorder.spans),
             "spans_aggregated": sum(b[0] for b in recorder.aggregated.values())}
    return {"attempted": plain.attempted + traced.attempted,
            "failed": plain.failed + traced.failed, "metrics": metrics, "extra": extra}


def unit_of(name: str) -> str:
    if name == "setup_s" or name.endswith(".s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name == "ops_per_s":
        return "1/s"
    if name == "peak_rss_mb":
        return "MB"
    if name.startswith("trace."):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
