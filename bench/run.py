"""orthox benchmark: seeded workloads against the public API, every answer checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):
  queries         short caret words, the interactive op mix, 20 families
  huge_exponents  the same mix with run exponents 10^2..10^4
  window          idempotent windows, band DOT, chains, inverse windows, eggboxes
  verify          verify_reducer with the cap re-check, max_len 5-7, cap 9-12

Each workload is a closed loop: one client in one process sends the next
job when the previous answer is back.  Jobs come in blocks of identical
make-up; the run stops at the first block boundary after which less than
half a block's time would remain and at least 100 jobs were timed.  Answers are checked after each block,
outside the timed region.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones,
taken by wrapping the public functions of each orthox module (the layers
words, normal_form, quotient, structure, render, classify, oracle and
cli) on a fixed number of blocks, each first run untraced.
The last stdout line is one JSON object: correct, attempted, failed,
metrics.  The set-up probes count as attempted jobs too.  A run with a
failed job still prints its result, then exits 1.  Spans of a traced run
go to bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_PROBES = 7
KEPT_TIMES = 20_000
MIN_JOBS = 100            # timed samples per run, so that p90 has 10 beyond it

END_TO_END = {            # name -> unit
    "setup_s": "s", "jobs_per_s": "1/s", "job_p50_ms": "ms", "job_p90_ms": "ms",
    "peak_rss_mb": "MB", "ok_frac": "frac",
}
PER_LAYER = {
    "words.parse_word.calls": "count", "words.parse_word.self_ms": "ms",
    "words.letters_per_char": "ratio", "words.syllables.self_ms": "ms",
    "words.format_word.self_ms": "ms",
    "normal_form.reduce.calls": "count", "normal_form.reduce.self_ms": "ms",
    "normal_form.canonical_inverse.self_ms": "ms", "normal_form.power.self_ms": "ms",
    "normal_form.power.multiplies_per_call": "count", "normal_form.format_element.self_ms": "ms",
    "normal_form.format_element.chars_out": "chars",
    "normal_form.multiply.calls": "count", "normal_form.multiply.self_ms": "ms",
    "normal_form.multiply.repeat_frac": "frac", "normal_form.is_idempotent.calls": "count",
    "normal_form.window_elements.self_ms": "ms",
    "quotient.inverse_image.self_ms": "ms", "quotient.inverses_window.self_ms": "ms",
    "structure.idempotents_window.self_ms": "ms", "structure.idempotent_hit_frac": "frac",
    "structure.natural_leq.calls": "count", "structure.band_diagram.self_ms": "ms",
    "structure.local_chain.self_ms": "ms", "structure.related.self_ms": "ms",
    "render.eggbox_grid.self_ms": "ms", "render.band_dot.self_ms": "ms",
    "classify.classify_relation.self_ms": "ms",
    "oracle.closure_classes.ms": "ms", "oracle.closure_unchecked.ms": "ms",
    "oracle.verify_compare.self_ms": "ms", "oracle.words_enumerated": "count",
    "oracle.pairs_compared": "count",
    "cli.import_ms": "ms",
    "trace.jobs": "count", "trace.overhead_frac": "frac",
}

# A fresh interpreter imports the CLI and answers one job; it reports the
# import time on stderr after a marker.
PROBE = """\
import sys, time
t0 = time.perf_counter()
import orthox.cli
ms = (time.perf_counter() - t0) * 1e3
code = orthox.cli.main(sys.argv[1:])
sys.stdout.flush()
print("\\nimport_ms=%r" % ms, file=sys.stderr)
sys.exit(code)
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "orthox" / "__init__.py").is_file():
        print(f"orthox sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads                                 # imports orthox
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    result = measure(workload, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name:42s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'failed_frac':42s} {result['failed'] / result['attempted']:>16.6g} frac")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


class SetupProbe:
    """Cold-starts of the CLI on the first job: wall seconds and import ms.

    A fresh interpreter imports orthox.cli and answers the job; the probes
    are spread over the run so that they sample the machine as the jobs do.
    Each probe is a job of the tally: it fails on a non-zero exit or on
    output other than the API's answer.
    """

    def __init__(self, workload, job, expected: str, tally):
        self.argv = [sys.executable, "-c", PROBE, *workload.cli(job)]
        self.expected = expected
        self.tally = tally
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.walls: list[float] = []
        self.imports: list[float] = []

    def run(self, upto: int = SETUP_PROBES) -> None:
        """Probe until `upto` probes were made (at most SETUP_PROBES)."""
        while len(self.walls) < min(upto, SETUP_PROBES):
            start = time.perf_counter()
            proc = subprocess.run(self.argv, env=self.env, capture_output=True,
                                  text=True, timeout=120)
            self.walls.append(time.perf_counter() - start)
            self.tally.attempted += 1
            if proc.returncode != 0 or proc.stdout.rstrip("\n") != self.expected:
                self.tally.fail(f"CLI {self.argv[3:]!r}: exit {proc.returncode}, "
                                f"stdout {proc.stdout!r}")
            marker = proc.stderr.rfind("import_ms=")
            if marker >= 0:
                self.imports.append(float(proc.stderr[marker + len("import_ms="):]))


class Reservoir:
    """A fixed-size uniform sample of job times (algorithm R).

    Keeping every time would make the benchmark's own memory, and so
    peak_rss_mb, grow with the number of jobs a fast build completes.
    """

    def __init__(self, size: int = KEPT_TIMES):
        self.size, self.seen = size, 0
        self.values = array("d")
        self.rng = random.Random(0)

    def extend(self, times) -> None:
        for value in times:
            self.seen += 1
            if len(self.values) < self.size:
                self.values.append(value)
            else:
                i = self.rng.randrange(self.seen)
                if i < self.size:
                    self.values[i] = value


class Tally:
    """Answers checked and failed; an exception from a job or its check fails it."""

    def __init__(self, workload):
        self.workload, self.attempted, self.failed = workload, 0, 0
        self.examples: list[str] = []       # the first few failures, for stderr

    def check(self, jobs, answers) -> None:
        for job, answer in zip(jobs, answers):
            self.attempted += 1
            try:
                good = (not isinstance(answer, Exception)
                        and self.workload.check(job, *answer))
            except Exception as exc:                 # a broken answer, not a crash
                answer, good = exc, False
            if not good:
                self.fail(f"{job!r}: {answer!r}")

    def fail(self, example: str) -> None:
        self.failed += 1
        if len(self.examples) < 5:
            self.examples.append(example[:500])


def run_block(workload, block, tracer=None, first_id=0):
    """Run one block of jobs; returns (answers, job times in ms, wall seconds)."""
    answers, durations = [], []
    run = workload.run
    start = time.perf_counter()
    for offset, job in enumerate(block):
        t0 = time.perf_counter_ns()
        try:
            if tracer is None:
                answer = run(job)
            else:
                answer = tracer.run_job(first_id + offset, run, job)
        except Exception as exc:                     # counted as failed by Tally
            answer = exc
        durations.append((time.perf_counter_ns() - t0) / 1e6)
        answers.append(answer)
    return answers, durations, time.perf_counter() - start


def measure(workload, seconds: float, trace: bool) -> dict:
    blocks = workload.blocks()
    first_block = next(blocks)
    # The set-up probe answers the first job through the CLI, so the first
    # job is the block's first one that has a CLI command.
    i = next(i for i, job in enumerate(first_block) if workload.cli(job) is not None)
    first_block.insert(0, first_block.pop(i))
    tally = Tally(workload)
    probe = SetupProbe(workload, first_block[0], workload.run(first_block[0])[1], tally)
    if trace:
        probe.run()
        metrics = measure_traced(workload, first_block, blocks, tally)
        metrics["cli.import_ms"] = statistics.median(probe.imports or [0.0])
    else:
        metrics = measure_timed(workload, first_block, blocks, tally, seconds, probe)
        metrics["setup_s"] = statistics.median(probe.walls)
    tally.failed += workload.finish()
    for example in tally.examples:
        print(f"failed: {example}", file=sys.stderr)
    metrics["ok_frac"] = 1 - tally.failed / max(1, tally.attempted)
    units = END_TO_END if not trace else PER_LAYER
    return {"correct": tally.failed == 0,
            "attempted": tally.attempted, "failed": tally.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def measure_timed(workload, block, blocks, tally, seconds: float, probe) -> dict:
    times = Reservoir()
    timed, nblocks = 0.0, 0
    probe.run(1)
    while True:
        answers, durations, wall = run_block(workload, block)
        timed += wall
        nblocks += 1
        times.extend(durations)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        tally.check(block, answers)
        del answers, durations
        gc.collect()
        probe.run(1 + int((SETUP_PROBES - 1) * timed / seconds))
        if timed + 0.5 * timed / nblocks >= seconds and times.seen >= MIN_JOBS:
            break
        block = next(blocks)
    probe.run()
    q = statistics.quantiles(times.values, n=10)
    return {"jobs_per_s": times.seen / timed, "job_p50_ms": statistics.median(times.values),
            "job_p90_ms": q[8], "peak_rss_mb": peak_kb / 1024}


def measure_traced(workload, block, blocks, tally) -> dict:
    from tracing import Tracer
    from workloads import FAMILIES
    tracer = Tracer()
    plain = {"jobs": 0, "s": 0.0}
    traced = {"jobs": 0, "s": 0.0}
    unchecked_ms = 0.0
    for _ in range(workload.trace_blocks):
        # The same block untraced, then traced: their ratio is the overhead.
        answers, _, wall = run_block(workload, block)
        plain["jobs"] += len(block)
        plain["s"] += wall
        tally.check(block, answers)
        tracer.install()
        try:
            answers, _, wall = run_block(workload, block, tracer, traced["jobs"])
        finally:
            tracer.uninstall()
        traced["jobs"] += len(block)
        traced["s"] += wall
        tally.check(block, answers)
        if workload.name == "verify":        # the same closures without the re-check
            closure = tracer.original("oracle", "closure_classes")
            for _, fam, max_len, cap in block:
                t0 = time.perf_counter_ns()
                closure(FAMILIES[fam], max_len, cap, check_cap=False)
                unchecked_ms += (time.perf_counter_ns() - t0) / 1e6
        block = next(blocks)
    summary = tracer.summary()
    tracer.write(OUT / f"trace-{workload.name}.csv.gz")

    def get(name, key="self_ms"):
        return summary.get(name, {}).get(key, 0)

    metrics = {}
    for name in PER_LAYER:
        if name.endswith(".self_ms") or name.endswith(".calls"):
            span, _, key = name.rpartition(".")
            metrics[name] = get(span, key)
    parse = summary.get("words.parse_word", {})
    power_calls = get("normal_form.power", "calls")
    multiply = summary.get("normal_form.multiply", {})
    tested = summary.get("normal_form.window_elements", {})
    metrics.update({
        "words.letters_per_char": parse.get("size", 0) / max(1, tracer.chars_in),
        "normal_form.power.multiplies_per_call":
            multiply.get("under", {}).get("normal_form.power", 0) / max(1, power_calls),
        "normal_form.format_element.chars_out": get("normal_form.format_element", "size"),
        "normal_form.multiply.repeat_frac": multiply.get("size", 0) / max(1, multiply.get("calls", 0)),
        "structure.idempotent_hit_frac":
            tested.get("idempotents_found", 0) / max(1, tested.get("tested_for_idempotents", 0)),
        "oracle.closure_classes.ms": get("oracle.closure_classes", "total_ms"),
        "oracle.closure_unchecked.ms": unchecked_ms,
        "oracle.verify_compare.self_ms": get("oracle.verify_reducer"),
        "oracle.words_enumerated": get("oracle.all_words", "size"),
        "oracle.pairs_compared": get("oracle.verify_reducer", "size"),
        "trace.jobs": traced["jobs"],
        "trace.overhead_frac": (traced["s"] / traced["jobs"]) / (plain["s"] / plain["jobs"]) - 1,
    })
    return metrics


if __name__ == "__main__":
    sys.exit(main())
