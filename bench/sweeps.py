"""Informational scaling sweeps; printed, never gated.

    python3 bench/sweeps.py

Microseconds per call against exponent size and flat word length for
reduce, format_element, power and canonical_inverse; seconds per call
against window bound for idempotents_window and band_diagram; seconds per
closure against cap, with and without the cap re-check.  Prints the
src/orthox line count beside them and ends with one JSON line.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from orthox import Combinatorial, canonical_inverse, format_element, power, reduce  # noqa: E402
from orthox.oracle import closure_classes                                   # noqa: E402
from orthox.structure import band_diagram, idempotents_window               # noqa: E402

FREE = Combinatorial(None, None)
POWER = 10


def per_call(fn, budget: float = 0.2) -> float:
    """Best of three timings of `fn`, in seconds per call."""
    calls, best = 1, float("inf")
    while True:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= budget / 4 or calls >= 1 << 20:
            break
        calls *= 2
    best = elapsed / calls
    for _ in range(2):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - start) / calls)
    return best


def word_ops(text: str) -> dict[str, float]:
    x = reduce(text, FREE)
    return {"reduce": per_call(lambda: reduce(text, FREE)) * 1e6,
            "format_element": per_call(lambda: format_element(x)) * 1e6,
            f"power_{POWER}": per_call(lambda: power(x, POWER)) * 1e6,
            "canonical_inverse": per_call(lambda: canonical_inverse(x)) * 1e6}


def main() -> int:
    out: dict = {"unit": {"exponent": "us/call", "length": "us/call",
                          "bound": "s/call", "cap": "s/call"}}
    rng = random.Random(0)
    # b^n a^n b is its own canonical form, so every op sees exponent n.
    out["exponent"] = {n: word_ops(f"b^{n}a^{n}b") for n in (10, 100, 1000, 10_000, 100_000)}
    out["length"] = {n: word_ops("".join(rng.choice("ab") for _ in range(n)))
                     for n in (8, 64, 512, 4096)}
    # band_diagram is cubic in the number of idempotents (4 * bound - 2):
    # bound 200 would take over a minute, so its sweep stops at 40.
    out["bound"] = {b: {"idempotents_window": per_call(lambda: idempotents_window(FREE, b), 0),
                        "band_diagram": (per_call(lambda: band_diagram(FREE, b), 0)
                                         if b <= 40 else None)}
                    for b in (10, 20, 40, 100, 200)}
    out["cap"] = {c: {"closure": per_call(lambda: closure_classes(FREE, 5, c, check_cap=False), 0),
                      "closure_with_recheck": per_call(lambda: closure_classes(FREE, 5, c), 0)}
                  for c in (9, 10, 11, 12, 13)}
    out["src_orthox_lines"] = sum(len(p.read_text().splitlines())
                                  for p in sorted((SRC / "orthox").glob("*.py")))
    for sweep in ("exponent", "length", "bound", "cap"):
        print(f"{sweep} ({out['unit'][sweep]})")
        for size, row in out[sweep].items():
            cells = "  ".join(f"{k}={v:.4g}" for k, v in row.items() if v is not None)
            print(f"  {size:>7}  {cells}")
    print(f"src/orthox lines: {out['src_orthox_lines']}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
