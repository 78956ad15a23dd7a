"""Self-test of the benchmark, at its small self-test size.

    python3 -m pytest perfbench/test_bench.py

Each workload runs through `run.py` in a fresh interpreter, traced and
untraced: the emitted metric names and units must be exactly those in
BENCHMARK.json, and no op may fail.  A corrupted reference entry must
make its op fail, which shows that the answer checks are live.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_emits_the_declared_metrics_without_failures(workload, trace):
    result = bench(workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert result["attempted"] > 0
    assert result["failed"] == 0  # fail ratio 0
    assert result["correct"]


@pytest.fixture
def in_process():
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))
    yield workdir
    shutil.rmtree(workdir, ignore_errors=True)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_corrupted_reference_fails_its_op(workload, in_process):
    from run import run_pass
    from workloads import WORKLOADS, load_refs

    wl = WORKLOADS[workload](7, in_process, tiny=True)
    wl.setup()
    wl.bind()
    op = wl.round()[0]
    refs = load_refs(workload)
    assert run_pass(wl, [[op]], refs).failed == 0
    refs["ops"][wl.ref_key(op)]["corrupted"] = True
    stats = run_pass(wl, [[op]], refs)
    assert stats.attempted > 0
    assert stats.failed / stats.attempted > 0
