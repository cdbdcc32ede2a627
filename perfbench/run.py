"""hienet benchmark: one workload per invocation, measured in a fresh process.

    python3 perfbench/run.py --workload train-small --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (spans are written to ``.perfbench-work/``). The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it describe the
machine, the samples behind each figure and any failed check.

The workload runs in a child process that starts with BLAS and OpenMP
pinned to one thread, so its peak memory is its own and it never uses more
than one core.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
#: the whole invocation ends within this many seconds
BUDGET_S = 175.0
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    # fixed string hashing, so set iteration order repeats from run to run
    "PYTHONHASHSEED": "0",
}


def measure(args, work: Path, out: Path) -> None:
    cmd = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", args.workload, "--seed", str(args.seed), "--work", str(work),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out),
    ]  # fmt: skip
    subprocess.run(cmd, cwd=ROOT, env={**os.environ, **PINNED}, check=True, timeout=BUDGET_S)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, help="a workload of perfbench/workloads.py")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hienet" / "__init__.py").is_file():
        print(f"perfbench: no hienet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    out = work / "report.json"
    try:
        measure(args, work, out)
        report = json.loads(out.read_text(encoding="utf-8"))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"perfbench: {args.workload} seed {args.seed} did not finish: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"machine": report["info"].pop("machine")}))
    print(json.dumps({"info": report["info"]}))
    print(json.dumps(report["result"]))
    return 0 if report["result"]["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
