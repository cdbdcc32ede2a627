"""One workload run in a fresh process.

Writes the workload's corpus from the seed, times the program's public
training entry point ``hienet.train`` on it, checks the outputs (and that
``hienet.predict`` serves the trained checkpoint) and writes one JSON
report. ``perfbench/run.py`` starts this process with BLAS pinned to one
thread before numpy is imported.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import hienet

from . import stats
from .layers import T, LayerCounts, baseline_check, install_layers, layer_metrics
from .trace import Patches, Tracer
from .workloads import WORKLOADS, Workload, write_inputs

ROOT = Path(__file__).resolve().parent.parent
#: setup-only calls (stopped at the end of setup) made before each full call,
#: so that the setup samples spread over the whole run like the step samples
SETUP_ONLY_PER_CALL = 2
MIN_FULL_CALLS = 2
#: step samples needed for a p90 with at least ten samples above it
MIN_STEP_SAMPLES = 100
#: no new call starts this long after measuring began
HARD_CAP_S = 110.0


class SetupDone(Exception):
    """Raised at the end-of-setup boundary to stop a setup-only call."""


class Boundaries(Patches):
    """Timestamps inside one ``train()`` call, at names ``train`` looks up.

    Setup ends at the first ``build_batch``; a training step runs from its
    ``build_batch`` to the return of ``Adam.step`` (eval batches never reach
    ``Adam.step``); the epoch loop ends at ``save_checkpoint``.
    """

    def __init__(self) -> None:
        super().__init__()
        self.start()

    def start(self, stop_at_setup: bool = False) -> None:
        self.stop_at_setup = stop_at_setup
        self.t_call = time.perf_counter()
        self.t_setup: float | None = None
        self.t_save: float | None = None
        self._batch_start: float | None = None
        self.step_s: list[float] = []
        self.losses: list[float] = []

    def install(self) -> None:
        self.replace(T, "build_batch", self._batch)
        self.replace(T, "msle_loss", self._loss)
        self.replace(T.Adam, "step", self._step)
        self.replace(T, "save_checkpoint", self._save)

    def _batch(self, fn):
        def wrapper(*args, **kwargs):
            now = time.perf_counter()
            if self.t_setup is None:
                self.t_setup = now
                if self.stop_at_setup:
                    raise SetupDone
            self._batch_start = now
            return fn(*args, **kwargs)

        return wrapper

    def _loss(self, fn):
        def wrapper(*args, **kwargs):
            loss = fn(*args, **kwargs)
            self.losses.append(float(loss.data))
            return loss

        return wrapper

    def _step(self, fn):
        def wrapper(*args, **kwargs):
            fn(*args, **kwargs)
            if self._batch_start is not None:
                self.step_s.append(time.perf_counter() - self._batch_start)
                self._batch_start = None

        return wrapper

    def _save(self, fn):
        def wrapper(*args, **kwargs):
            self.t_save = time.perf_counter()
            return fn(*args, **kwargs)

        return wrapper


class Ledger:
    """Operations attempted and failed; every failure keeps its reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, attempted: int, failed: int, problem: str = "") -> None:
        self.attempted += attempted
        self.failed += min(failed, attempted)
        if problem:
            self.problems.append(problem)


def check_predictions(rows, message_ids: list[str]) -> int:
    """Count predictions that are missing, extra, non-finite or negative."""
    bad = abs(len(rows) - len(message_ids))
    for (mid, plog, size), want in zip(rows, message_ids):
        ok = mid == want and all(math.isfinite(v) and v >= 0 for v in (plog, size))
        bad += not ok
    return bad


def machine() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


class Measurement:
    """Timed ``train()`` calls of one workload on its generated corpus."""

    def __init__(self, w: Workload, seed: int, work: Path, data: str) -> None:
        self.w, self.seed, self.work, self.data = w, seed, work, data
        self.message_ids = [r.message_id for r in hienet.load_cascades(data)]
        self.n_train = sum(T.split_of(m) == "train" for m in self.message_ids)
        self.steps_per_call = math.ceil(self.n_train / hienet.TrainConfig().batch_size) * w.epochs
        self.marks = Boundaries()
        self.ledger = Ledger()
        self.setup_s: list[float] = []
        self.run_s: list[float] = []
        self.rate: list[float] = []
        self.step_ms: list[float] = []
        self.traced_run_s: list[float] = []
        self._reference = None
        self.last_out: Path | None = None
        self.calls = 0

    def _train(self):
        self.last_out = self.work / f"out{self.calls % 2}"
        cfg = hienet.TrainConfig(data=self.data, out=str(self.last_out), epochs=self.w.epochs, seed=self.seed)
        return hienet.train(cfg)

    def setup_only(self) -> None:
        self.marks.start(stop_at_setup=True)
        try:
            self._train()
        except SetupDone:
            self.setup_s.append(self.marks.t_setup - self.marks.t_call)
            return
        raise RuntimeError("the setup boundary was never reached")

    def full_call(self, traced: bool = False) -> None:
        """One timed call; raises what the program raises."""
        self.calls += 1
        m = self.marks
        m.start()
        result = self._train()
        run_s = time.perf_counter() - m.t_call
        if traced:
            self.traced_run_s.append(run_s)
        else:
            self.run_s.append(run_s)
            self.setup_s.append(m.t_setup - m.t_call)
            self.rate.append(self.n_train * self.w.epochs / (m.t_save - m.t_setup))
            self.step_ms.extend(s * 1e3 for s in m.step_s)
        self._check(result)

    def _check(self, result) -> None:
        n = self.steps_per_call
        losses = self.marks.losses
        bad = sum(not math.isfinite(v) for v in losses) + abs(n - len(losses))
        problem = f"{bad} of {n} training steps failed" if bad else ""
        weights = (self.last_out / "checkpoint" / "weights.bin").read_bytes()
        key = (result.history, result.best_epoch, result.best_val_msle, weights)
        if self._reference is None:
            self._reference = key
        elif key != self._reference:
            bad, problem = n, f"call {self.calls} differs from call 1 on the same seed"
        self.ledger.record(n, bad, problem)

    def check_trained_checkpoint(self) -> None:
        """The last trained checkpoint predicts every cascade of its corpus, twice alike."""
        rows = hienet.predict(self.last_out / "checkpoint", self.data)
        bad = check_predictions(rows, self.message_ids)
        problem = f"checkpoint predict: {bad} invalid" if bad else ""
        if hienet.predict(self.last_out / "checkpoint", self.data) != rows:
            bad, problem = len(rows), "checkpoint predict differs between two calls"
        self.ledger.record(len(rows), bad, problem)

    def val_msle(self) -> float:
        return float(self._reference[0][-1]["val_MSLE"]) if self._reference else math.nan

    def enough(self, t0: float, seconds: float, min_calls: int, min_steps: int) -> bool:
        elapsed = time.perf_counter() - t0
        return elapsed > HARD_CAP_S or (
            elapsed >= seconds and len(self.run_s) >= min_calls and len(self.step_ms) >= min_steps
        )


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def end_to_end(meas: Measurement) -> dict[str, float]:
    return {
        "setup_s": statistics.median(meas.setup_s),
        "run_s": statistics.median(meas.run_s),
        "train_cascades_per_s": statistics.median(meas.rate),
        "train_step_ms_p50": statistics.median(meas.step_ms),
        "train_step_ms_p90": stats.nearest_rank(meas.step_ms, 90.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure(w: Workload, seed: int, work: Path, seconds: float, trace: bool) -> dict:
    info: dict = {"workload": w.name, "seed": seed, "machine": machine()}
    meas = Measurement(w, seed, work, write_inputs(w.name, seed, work / "corpus"))
    tracer, counts = Tracer(), LayerCounts()
    meas.marks.install()
    t0 = time.perf_counter()
    try:
        # a traced run alternates untraced and traced calls, for the overhead
        min_calls, min_steps = (1, 0) if trace else (MIN_FULL_CALLS, MIN_STEP_SAMPLES)
        while not meas.enough(t0, seconds, min_calls, min_steps):
            if not trace:
                for _ in range(SETUP_ONLY_PER_CALL):
                    meas.setup_only()
            meas.full_call()
            if trace:
                install_layers(tracer, counts)
                meas.full_call(traced=True)
                tracer.restore()
        meas.marks.restore()
        if trace:
            install_layers(tracer, counts)
        meas.check_trained_checkpoint()
    except Exception as exc:  # the program failed: every step of the call counts as failed
        meas.ledger.record(meas.steps_per_call, meas.steps_per_call, f"call raised {exc!r}")
    finally:
        tracer.restore()
        meas.marks.restore()

    led = meas.ledger
    result = {"correct": not led.failed and not led.problems, "attempted": led.attempted, "failed": led.failed}
    if not meas.run_s or (not trace and len(meas.step_ms) < MIN_STEP_SAMPLES):
        led.problems.append(f"too few samples: {len(meas.run_s)} calls, {len(meas.step_ms)} steps")
        info["problems"] = led.problems
        return {"info": info, "result": {**result, "correct": False, "metrics": {}}}

    info.update(
        calls=len(meas.run_s),
        setup_samples=len(meas.setup_s),
        step_samples=len(meas.step_ms),
        step_tail_percentile=stats.tail_percentile(len(meas.step_ms)),
        val_msle=meas.val_msle(),
        cascades=len(meas.message_ids),
        problems=led.problems,
    )
    if trace:
        values = layer_metrics(tracer.spans, counts)
        values["trace.overhead_frac"] = (
            statistics.median(meas.traced_run_s) / statistics.median(meas.run_s) - 1.0
        )
        info["baseline_check"] = baseline_check(
            values, counts, tracer.spans, statistics.median(meas.step_ms)
        )
        info["untraced_run_s"] = meas.run_s
        info["traced_run_s"] = meas.traced_run_s
        tracer.write(work.parent / f"trace-{w.name}-seed{seed}.json")
    else:
        values = end_to_end(meas)
    result["metrics"] = {
        name: {"value": values[name], "unit": unit}
        for name, unit in declared_units("per_layer" if trace else "end_to_end").items()
    }
    return {"info": info, "result": result}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    report = measure(WORKLOADS[args.workload], args.seed, args.work, args.seconds, bool(args.trace))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
