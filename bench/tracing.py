"""Spans and counts around orthox's public functions, installed from outside.

``Tracer.install`` swaps each traced function for a wrapper in every
``orthox`` module namespace that holds it: ``structure.multiply`` and
``quotient.multiply`` are separate bindings of ``normal_form.multiply``,
while ``power`` and ``is_idempotent`` look ``multiply`` up at call time.
``uninstall`` puts the originals back, so checks run untraced.

A span is (name, start_ns, end_ns, parent span, job id, size, cost);
spans stay in memory in flat arrays and are written out once, when the
run ends.  Cost is the tracer's own time around the span: its wrapper's
work before start_ns (such as hashing multiply's operands) and after
end_ns.  Self time is a span's duration minus the time its child spans
cover, cost included, so no span's self time holds tracer bookkeeping.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter_ns

# Layer (orthox module) -> traced public functions.
TRACED = {
    "words": ("parse_word", "syllables", "format_word"),
    "normal_form": ("reduce", "multiply", "canonical_inverse", "power",
                    "is_idempotent", "format_element", "window_elements"),
    "quotient": ("inverse_image", "inverses_window"),
    "structure": ("related", "idempotents_window", "natural_leq",
                  "band_diagram", "local_chain"),
    "render": ("eggbox_grid", "band_dot"),
    "classify": ("classify_relation",),
    "oracle": ("closure_classes", "verify_reducer", "all_words"),
}


def _size(name: str, args, result) -> int:
    """The count a span carries: letters out, chars out, elements or pairs."""
    if name in ("words.parse_word", "normal_form.format_element",
                "normal_form.window_elements", "structure.idempotents_window",
                "oracle.all_words"):
        return len(result)
    if name == "oracle.verify_reducer":
        return (result.agreements + len(result.reducer_splits_closure)
                + len(result.closure_splits_reducer))
    return 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []    # span name by id
        self.cols = {key: array("q") for key in
                     ("name", "start", "end", "parent", "job", "size", "cost")}
        self.chars_in = 0            # caret characters handed to parse_word
        self.seen_pairs: set[int] = set()
        self.stack: list[int] = []
        self.job = -1
        self.originals: dict[tuple[str, str], object] = {}
        self.bindings: list[tuple[object, str, object, object]] = []

    # -- spans ------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, nid: int) -> int:
        cols = self.cols
        sid = len(cols["name"])
        cols["name"].append(nid)
        cols["start"].append(0)
        cols["end"].append(0)
        cols["parent"].append(self.stack[-1] if self.stack else -1)
        cols["job"].append(self.job)
        cols["size"].append(0)
        cols["cost"].append(0)
        self.stack.append(sid)
        cols["start"][sid] = perf_counter_ns()
        return sid

    def _close(self, sid: int, entered: int, size: int = 0) -> None:
        """End a span whose wrapper was entered at `entered` ns."""
        end = perf_counter_ns()
        cols = self.cols
        cols["end"][sid] = end
        cols["size"][sid] = size
        self.stack.pop()
        cols["cost"][sid] = cols["start"][sid] - entered + perf_counter_ns() - end

    def run_job(self, job_id: int, fn, *args):
        """Run one job under a root span named "job"."""
        entered = perf_counter_ns()
        self.job = job_id
        sid = self._open(self._name_id("job"))
        try:
            return fn(*args)
        finally:
            self._close(sid, entered)

    def _wrap(self, name: str, fn):
        tracer = self
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            entered = perf_counter_ns()
            if name == "words.parse_word":
                tracer.chars_in += len(args[0])
            size = 0
            if name == "normal_form.multiply":
                key = hash((args[0], args[1]))
                size = key in tracer.seen_pairs      # 1 = operand pair seen before
                tracer.seen_pairs.add(key)
            sid = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
                size = size or _size(name, args, result)
                return result
            finally:
                tracer._close(sid, entered, size)

        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        if not self.originals:
            for layer, names in TRACED.items():
                module = sys.modules[f"orthox.{layer}"]
                for attr in names:
                    self.originals[(layer, attr)] = getattr(module, attr)
            wrappers = {id(fn): self._wrap(f"{layer}.{attr}", fn)
                        for (layer, attr), fn in self.originals.items()}
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "orthox" and not mod_name.startswith("orthox."):
                    continue
                for attr, value in vars(module).items():
                    if id(value) in wrappers:
                        self.bindings.append((module, attr, value, wrappers[id(value)]))
        for module, attr, _, wrapper in self.bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self.bindings:
            setattr(module, attr, original)

    def original(self, layer: str, attr: str):
        return self.originals[(layer, attr)]

    # -- results ----------------------------------------------------------
    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_ms, self_ms, summed size, and calls per parent.

        Window elements listed for idempotents_window are also summed apart,
        beside the idempotents that call returned.
        """
        cols = self.cols
        n = len(cols["name"])
        names, start, end, parent, size, cost = (
            cols["name"], cols["start"], cols["end"], cols["parent"], cols["size"], cols["cost"])
        child_ns = [0] * n
        for sid in range(n):
            p = parent[sid]
            if p >= 0:
                child_ns[p] += end[sid] - start[sid] + cost[sid]
        out: dict[str, dict[str, float]] = {}
        for sid in range(n):
            name = self.names[names[sid]]
            row = out.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0,
                                        "size": 0, "under": {}})
            dur = end[sid] - start[sid]
            row["calls"] += 1
            row["total_ms"] += dur / 1e6
            row["self_ms"] += (dur - child_ns[sid]) / 1e6
            row["size"] += size[sid]
            p = parent[sid]
            if p >= 0:
                under = row["under"]
                pname = self.names[names[p]]
                under[pname] = under.get(pname, 0) + 1
                if name == "normal_form.window_elements" and pname == "structure.idempotents_window":
                    row["tested_for_idempotents"] = row.get("tested_for_idempotents", 0) + size[sid]
                    row["idempotents_found"] = row.get("idempotents_found", 0) + size[p]
        return out

    def write(self, path) -> None:
        """Write every span as CSV: id,name,start_ns,end_ns,parent,job,size,cost_ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        cols = self.cols
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id,name,start_ns,end_ns,parent,job,size,cost_ns\n")
            for sid, row in enumerate(zip(*(cols[k] for k in ("name", "start", "end",
                                                              "parent", "job", "size", "cost")))):
                nid, s, e, p, j, z, c = row
                out.write(f"{sid},{self.names[nid]},{s},{e},{p},{j},{z},{c}\n")
