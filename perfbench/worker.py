"""One workload sample in a fresh interpreter.

Started by run.py, one process at a time.  Imports ``taupoly`` from the
checkout's ``src/``, runs the workload's items once with cold memos (the
cold pass), and prints one JSON line with timings, peak RSS, output
digests and check tallies.

Modes: ``probe`` stops where the first item would start (set-up time
only); ``cold`` runs the cold pass; ``warm`` then repeats the items with
warm memos (the warm passes); ``traced`` installs the span wrappers,
runs the cold pass and writes its spans to ``out/spans-<workload>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# Warm passes repeat until they add up to this much time, so a pass of a
# few milliseconds is still measured over enough repetitions.
WARM_MIN_TOTAL_S = 0.25
WARM_MAX_PASSES = 1000
MAX_LISTED_FAILURES = 20


def run_item(cli, item: str) -> tuple[int | None, str]:
    """(exit code, stdout) of one CLI invocation; exit code None if it raised."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(["--format", "json", *item.split()])
    except Exception:  # an exception is a failed item, not a crashed sample
        return None, buf.getvalue() + traceback.format_exc()
    return code, buf.getvalue()


def run_pass(cli, items: list[str]) -> tuple[float, list[tuple[int | None, str]]]:
    start = time.perf_counter()
    outputs = [run_item(cli, item) for item in items]
    return time.perf_counter() - start, outputs


def digest(output: tuple[int | None, str]) -> str:
    code, text = output
    return hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    def to_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures[:MAX_LISTED_FAILURES],
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("probe", "cold", "warm", "traced"), required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import numpy
    import taupoly
    import taupoly.cli as cli
    from taupoly.formulas import golden_table

    if not Path(taupoly.__file__).resolve().is_relative_to(SRC):
        print(f"taupoly imported from {taupoly.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from tracer import Tracer, default_layers, install
    from workloads import check_item, load_expected, ordered_items

    items = ordered_items(args.workload, args.seed)
    expected = load_expected()
    tracer = None
    missing: list[str] = []
    if args.mode == "traced":
        tracer = Tracer()
        missing = install(tracer, default_layers())
    ready = time.monotonic()
    result: dict = {"ready_monotonic": ready, "numpy": numpy.__version__}
    if args.mode == "probe":
        print(json.dumps(result))
        return 0

    cold_s, cold = run_pass(cli, items)
    tally = Tally()
    for item, (code, text) in zip(items, cold):
        for name, ok in check_item(item, code, text, expected, golden_table):
            tally.add(name, ok)
    result.update(cold_s=cold_s, digests=[digest(o) for o in cold])

    if tracer is not None:
        result["trace"] = {
            "self_s": tracer.self_times(),
            "counts": dict(tracer.counts),
            "missing": missing,
        }
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}.json")
    if args.mode == "warm":
        warm: list[float] = []
        while not warm or (sum(warm) < WARM_MIN_TOTAL_S and len(warm) < WARM_MAX_PASSES):
            seconds, outputs = run_pass(cli, items)
            warm.append(seconds)
            for item, again, first in zip(items, outputs, cold):
                tally.add(f"{item}: warm output identical to cold", again == first)
        result["warm_s"] = warm

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["checks"] = tally.to_dict()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
