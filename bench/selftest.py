"""Self-test of the benchmark itself.

    python3 bench/selftest.py

For every workload: the same seed gives the same job list and the same
answer digest, another seed gives another job list, every answer of the
first blocks passes its check, each planted wrong answer is caught, window
answers from an is_idempotent that misses ab are caught, a CLI probe with
the wrong output fails, and a queries run whose yes/no answers are
sometimes flipped reports ok_frac < 1.
A wrong answer is planted by handing a job the answer of an earlier job
of the same op (and family) whose printed text differs, or the negation
of a yes/no answer.  Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run as bench                                 # noqa: E402
import workloads                                    # noqa: E402
from orthox import normal_form as nf, structure     # noqa: E402

BLOCKS = {"queries": 1, "huge_exponents": 2, "window": 2, "verify": 2}


def first_jobs(name: str, seed: int) -> list:
    blocks = workloads.WORKLOADS[name](seed).blocks()
    return [job for _ in range(BLOCKS[name]) for job in next(blocks)]


def digest(workload, jobs) -> str:
    h = hashlib.sha256()
    for job in jobs:
        h.update(workload.run(job)[1].encode())
        h.update(b"\0")
    return h.hexdigest()


def plant(job, answer, earlier: dict):
    """A wrong answer for `job`, or None when no earlier answer can serve."""
    value, text = answer[0], answer[1]
    if isinstance(value, bool):
        return (not value, "false" if value else "true", *answer[2:])
    key = job[:2]
    other = earlier.get(key)
    earlier[key] = answer
    if other is not None and other[1] != text:
        return (other[0], other[1], *answer[2:])
    return None


def expect(ok: bool, message: str) -> None:
    print(("ok    " if ok else "FAIL  ") + message)
    if not ok:
        sys.exit(1)


def main() -> int:
    for name, cls in workloads.WORKLOADS.items():
        jobs = first_jobs(name, 7)
        expect(jobs == first_jobs(name, 7), f"{name}: seed 7 gives the same job list")
        expect(jobs != first_jobs(name, 8), f"{name}: seed 8 gives another job list")
        expect(digest(cls(7), jobs) == digest(cls(7), first_jobs(name, 7)),
               f"{name}: seed 7 gives the same answer digest")

        workload = cls(7)
        answers = [workload.run(job) for job in jobs]
        tally = bench.Tally(workload)
        tally.check(jobs, answers)
        tally.failed += workload.finish()
        expect(tally.failed == 0, f"{name}: {tally.attempted} true answers pass")

        workload = cls(7)
        earlier: dict = {}
        wrong = [plant(job, answer, earlier) for job, answer in zip(jobs, answers)]
        planted = [(job, bad) for job, bad in zip(jobs, wrong) if bad is not None]
        tally = bench.Tally(workload)
        tally.check([job for job, _ in planted], [bad for _, bad in planted])
        expect(tally.failed == len(planted) > 0,
               f"{name}: {tally.failed} of {len(planted)} planted wrong answers caught")

    # An is_idempotent that misses ab, as a wrong multiply could, left in
    # place while the answers are checked: the window lists and band
    # diagrams built on it drop ab, and the checks, which list idempotents
    # by reduce alone, must see that.
    workload = workloads.Window(7)
    jobs = [job for job in first_jobs("window", 7)
            if job[0] in ("idempotents_window", "band_dot")
            and isinstance(job[1], workloads.Combinatorial)]
    tally = bench.Tally(workload)
    right = structure.is_idempotent
    structure.is_idempotent = lambda x: right(x) and nf.format_element(x) != "ab"
    try:
        tally.check(jobs, [workload.run(job) for job in jobs])
    finally:
        structure.is_idempotent = right
    expect(tally.failed == len(jobs) > 0,
           f"window: {tally.failed} of {len(jobs)} answers without ab caught")

    workload = workloads.Queries(7)
    job = next(job for job in first_jobs("queries", 7) if workload.cli(job) is not None)
    tally = bench.Tally(workload)
    bench.SetupProbe(workload, job, workload.run(job)[1] + "x", tally).run(1)
    expect(tally.attempted == tally.failed == 1, "queries: a CLI probe with the wrong output fails")

    class Planted(workloads.Queries):
        """Queries with every 97th yes/no answer flipped."""

        jobs_run = 0

        def run(self, job):
            answer = super().run(job)
            self.jobs_run += 1
            if self.jobs_run % 97 == 0 and isinstance(answer[0], bool):
                return (not answer[0], "false" if answer[0] else "true", answer[2])
            return answer

    result = bench.measure(Planted(7), 0.2, trace=False)
    ok_frac = result["metrics"]["ok_frac"]["value"]
    expect(not result["correct"] and result["failed"] > 0 and ok_frac < 1,
           f"queries run with flipped answers: failed {result['failed']} of "
           f"{result['attempted']}, ok_frac {ok_frac:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
