"""Record the reference answers the benchmark checks against.

    python3 perfbench/record.py [--workload NAME ...]

Run from the root of a source tree.  Every pool item of each workload is
executed once and must first pass the independent referees (frozen
corpus verdicts, `brute_holds`, the memoized quantifier nest, the
bisimulation checkers); its answer is then written to
`perfbench/refs/<workload>.json.gz`.  Re-record only at a commit whose
answers are known to be right: a later commit is checked against them.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def record(name: str):
    from speed import Speed
    from workloads import WORKLOADS, save_refs

    refs: dict = {}
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        # the suite's self-test size runs other configurations
        for tiny in ((False, True) if name == "suite" else (False,)):
            wl = WORKLOADS[name](0, workdir, tiny=tiny)
            wl.setup()
            wl.bind()
            for op in wl.pool():
                start = perf_counter()
                with Speed() as speed:
                    output, _ = wl.execute(op, wl.prepare(op), speed)
                wl.record(op, output, refs)
                print(f"{name} {op}: {perf_counter() - start:.2f}s", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    save_refs(name, refs)


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    for name in args.workload or sorted(WORKLOADS):
        record(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
