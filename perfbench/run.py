"""taupoly benchmark: replay real CLI invocations in fresh interpreters.

    python3 perfbench/run.py --workload ppa-tables --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout and imports ``taupoly`` from its
``src/``.  One worker process runs at a time and each starts cold, so
every sample pays the memo fills a user pays on each ``taupoly table k``
or ``verify`` run.  With ``--trace 0`` the last line of standard output
is a JSON object with the end-to-end metrics; with ``--trace 1`` it holds
the per-layer metrics of a traced run taken beside an untraced one.  The
run exits 1 when any output check fails and 2 when it cannot run at all.
README.md beside this file describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# A run must end within 180 s; no worker may start with less than this
# much of that budget left.
RUN_BUDGET_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "orbits.descent_distribution.self_s": "s",
    "orbits.descent_distribution.points": "count",
    "orbits.batched_rank.self_s": "s",
    "orbits.batched_rank.calls": "count",
    "orbits.batched_rank.matrices": "count",
    "orbits.batched_rank.matrices_per_s": "1/s",
    "orbits.interval_length_distribution.self_s": "s",
    "orbits.interval_length_distribution.kept": "count",
    "orbits.interval_kept_ratio": "ratio",
    "hereditary.tau_rigid_complex.self_s": "s",
    "hereditary.tau_rigid_complex.calls": "count",
    "hereditary.tau_rigid_complex.faces": "count",
    "hereditary.ext_dim.self_s": "s",
    "hereditary.ext_dim.calls": "count",
    "hereditary.tau_orbit_dim.self_s": "s",
    "lattice.oracles.self_s": "s",
    "lattice.oracles.paths": "count",
    "lattice.oracles.paths_per_s": "1/s",
    "weyl.oracles.self_s": "s",
    "series.verify_all_identities.self_s": "s",
    "formulas.d_polynomial.self_s": "s",
    "formulas.d_polynomial.calls": "count",
    "weyl.eulerian_poly.self_s": "s",
    "weyl.eulerian_poly.calls": "count",
    "weyl.narayana_poly.self_s": "s",
    "weyl.narayana_poly.calls": "count",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
    "warm_s": "s",
}


class RunError(Exception):
    """The benchmark could not take a measurement."""


class Run:
    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.start = time.monotonic()
        self.env = dict(
            os.environ,
            PYTHONPATH=str(SRC),
            PYTHONHASHSEED="0",
            TAUPOLY_THREADS="1",
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        self.setup: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []  # names of the first failed checks
        self.numpy = ""

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def worker(self, mode: str) -> dict:
        """Run one worker process to completion and return its report."""
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode]
        timeout = RUN_BUDGET_S - self.elapsed()
        if timeout <= 0:
            raise RunError("time budget spent before a worker could start")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise RunError(f"{mode} worker exceeded {timeout:.0f} s")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RunError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        report = json.loads(lines[-1])
        self.setup.append(report["ready_monotonic"] - spawned)
        self.numpy = report["numpy"]
        if "checks" in report:
            self.attempted += report["checks"]["attempted"]
            self.failed += report["checks"]["failed"]
            self.failures += report["checks"]["failures"]
        return report

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)

    def samples(self, seconds: float, modes: tuple[str, ...]) -> list[dict]:
        """Repeat the modes' workers in turn while the next round fits in
        ``seconds``; at least one round.  All outputs must be identical."""
        reports: list[dict] = []
        first = None
        round_s = 0.0
        while not reports or self.elapsed() + round_s <= seconds:
            began = self.elapsed()
            for mode in modes:
                report = self.worker(mode)
                reports.append(report)
                if "digests" not in report:
                    continue
                if first is None:
                    first = report
                    continue
                for i, (a, b) in enumerate(zip(first["digests"], report["digests"])):
                    self.check(f"{mode} worker {len(reports)}: item {i} output as in the first",
                               a == b)
            round_s = self.elapsed() - began
        return reports


# Import-only probes run before each cold worker: set-up time is short,
# so a run can afford many samples of it.
PROBES_PER_ROUND = 3


def summarise(samples: dict[str, list[float]]) -> dict[str, float]:
    """The end-to-end metrics of a run: the low median of each metric's
    samples, which is always one of the samples, so a figure is a time
    the program took or a peak it reached, whatever their number."""
    return {name: statistics.median_low(samples[name]) for name in END_TO_END}


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    """The metrics and, for the run record, the samples they come from."""
    modes = ("probe",) * PROBES_PER_ROUND + ("cold",)
    reports = [r for r in run.samples(seconds, modes) if "cold_s" in r]
    samples = {
        "wall_s": [r["cold_s"] for r in reports],
        "setup_s": run.setup,
        "peak_rss_mb": [r["peak_rss_mb"] for r in reports],
    }
    return summarise(samples), {"samples": samples}


def per_layer(run: Run, seconds: float) -> tuple[dict, dict]:
    """The metrics and, for the run record, the cold-pass samples and the
    entry points the tracer did not find."""
    reports = run.samples(seconds, ("warm", "traced"))
    untraced = [r for r in reports if "trace" not in r]
    traced = [r["trace"] for r in reports if "trace" in r]
    counts = traced[0]["counts"]
    for other in traced[1:]:
        run.check("traced counts repeat across workers", other["counts"] == counts)
    metrics = {}
    for name, unit in PER_LAYER.items():
        layer, _, stat = name.rpartition(".")
        if stat == "self_s":
            metrics[name] = statistics.median_low([t["self_s"].get(layer, 0.0) for t in traced])
        elif unit == "count":
            metrics[name] = counts.get(name, 0)
    rank_s = metrics["orbits.batched_rank.self_s"]
    matrices = metrics["orbits.batched_rank.matrices"]
    metrics["orbits.batched_rank.matrices_per_s"] = matrices / rank_s if rank_s else 0.0
    metrics["orbits.interval_kept_ratio"] = (
        metrics["orbits.interval_length_distribution.kept"] / matrices if matrices else 0.0
    )
    paths_s = metrics["lattice.oracles.self_s"]
    metrics["lattice.oracles.paths_per_s"] = metrics["lattice.oracles.paths"] / paths_s if paths_s else 0.0
    samples = {
        "untraced_wall_s": [r["cold_s"] for r in untraced],
        "traced_wall_s": [r["cold_s"] for r in reports if "trace" in r],
        "warm_s": [statistics.median(r["warm_s"]) for r in untraced],
    }
    metrics["warm_s"] = statistics.median_low(samples["warm_s"])
    metrics["trace.overhead_s"] = (
        statistics.median_low(samples["traced_wall_s"]) - statistics.median_low(samples["untraced_wall_s"])
    )
    record = {"samples": samples, "missing_entry_points": traced[0]["missing"]}
    return {name: metrics[name] for name in PER_LAYER}, record


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "taupoly" / "cli.py").is_file():
        print(f"no taupoly source under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed)
    try:
        values, record = (per_layer if args.trace else end_to_end)(run, args.seconds)
    except RunError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    units = PER_LAYER if args.trace else END_TO_END
    failed = run.failed
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": run.numpy,
        "TAUPOLY_THREADS": run.env["TAUPOLY_THREADS"],
        "check_fail_ratio": failed / run.attempted,
        "failures": run.failures[:20],
        "run_s": run.elapsed(),
        **record,
    }
    print("context " + json.dumps(context, sort_keys=True))
    for name, value in values.items():
        print(f"{args.workload:>12}  {name:<44} {value:>16.6g} {units[name]}")
    print(f"{args.workload:>12}  {'check_fail_ratio':<44} {failed / run.attempted:>16.6g} "
          f"({failed} of {run.attempted} checks failed)")
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
