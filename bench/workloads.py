"""Seeded job lists, job execution and answer checks for each workload.

A workload yields its jobs in blocks.  Every block has the same make-up
(the same ops, families and size strata), so the work per block hardly
depends on the seed; the seed picks the words, elements, jitter and
order inside that make-up.  Jobs call the public orthox API through module
attributes (``nf.reduce``, ``structure.related``), so the tracer can swap
those attributes for wrappers.

Every job returns ``(value, text)``: the API result and the text the CLI
would print for it.  ``check`` then tests the answer through a second
public path or against facts the benchmark derives from the input text
itself.  Checks run outside the timed region.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

import orthox.classify as classify
import orthox.normal_form as nf
import orthox.oracle as oracle
import orthox.quotient as quotient
import orthox.render as render
import orthox.structure as structure
from orthox.family import Combinatorial, GroupCase

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

INF = None
COMBINATORIAL = [Combinatorial(n, m) for n, m in (
    (INF, INF), (1, 1), (2, 2), (3, 2), (2, 3), (4, 3),
    (1, INF), (INF, 1), (3, INF), (INF, 3), (4, INF), (INF, 4))]
# Finite order 2: the oracle's closure converges for it at every
# (max_len, cap) the verify workload uses; order 3 and up does not.
GROUP = [GroupCase(left, right, order)
         for left, right in ((False, False), (False, True), (True, False), (True, True))
         for order in (INF, 2)]
FAMILIES = COMBINATORIAL + GROUP
FREE = Combinatorial(INF, INF)
BICYCLIC = Combinatorial(1, 1)
BAND_SIZE = {1: 4, 2: 2, 3: 2, 4: 1}

_RUN = re.compile(r"([ab])(?:\^([0-9]+))?")
_SWAP = {"a": "b", "b": "a"}


# -- caret text, read by the benchmark itself --------------------------------

def caret(runs: list[tuple[str, int]]) -> str:
    return "".join(letter if e == 1 else f"{letter}^{e}" for letter, e in runs)


def runs_of(text: str) -> list[tuple[str, int]]:
    return [(m[1], int(m[2] or 1)) for m in _RUN.finditer(text)]


def flat_len(text: str) -> int:
    return sum(e for _, e in runs_of(text))


def flat(text: str) -> str:
    return "".join(letter * e for letter, e in runs_of(text))


def mirror_text(text: str) -> str:
    """Reverse the word and swap a <-> b; an inverse in every family."""
    return caret([(_SWAP[letter], e) for letter, e in reversed(runs_of(text))])


def split(text: str) -> tuple[str, str | None]:
    """Cut a word into two nonempty halves; (text, None) for one letter."""
    runs = runs_of(text)
    if len(runs) > 1:
        half = len(runs) // 2
        return caret(runs[:half]), caret(runs[half:])
    letter, e = runs[0]
    if e == 1:
        return text, None
    return caret([(letter, e // 2)]), caret([(letter, e - e // 2)])


def group_coords(family: GroupCase, text: str):
    """(g, row, col) of a word in a group-case family, from its letters."""
    runs = runs_of(text)
    g = sum(e if letter == "a" else -e for letter, e in runs)
    if family.order is not None:
        g %= family.order
    return (g,
            runs[0][0] if family.tracks_row else None,
            runs[-1][0] if family.tracks_col else None)


def coords(x) -> tuple:
    return (x.form.g, x.form.row, x.form.col)


def family_args(family) -> list[str]:
    if isinstance(family, GroupCase):
        order = "inf" if family.order is None else str(family.order)
        return ["--group-case", str(family.case_number), "--order", order]
    n, m = family.right_bound, family.left_bound
    return ["--family", f"{'inf' if n is None else n},{'inf' if m is None else m}"]


class Deck:
    """Stratified draws in [0, 1): each pass of `size` draws hits every stratum."""

    def __init__(self, rng: random.Random, size: int):
        self.rng, self.size, self.cards = rng, size, []

    def draw(self) -> float:
        if not self.cards:
            self.cards = [(i + self.rng.random()) / self.size for i in range(self.size)]
            self.rng.shuffle(self.cards)
        return self.cards.pop()


def log_uniform(q: float, lo: float, hi: float) -> int:
    return max(1, round(lo * (hi / lo) ** q))


# -- queries and huge_exponents ------------------------------------------------

QUERY_OPS = ("reduce", "multiply", "canonical_inverse", "equal", "related",
             "inverse_image", "is_idempotent", "power", "classify_relation")


class Queries:
    """Short caret words: at most 8 runs, exponents at most 8."""

    name = "queries"
    cycles_per_block = 10
    trace_blocks = 10
    short_len = 8            # words up to this many letters are checked by closure

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.exp_deck = Deck(self.rng, 256)
        self.runs_deck = Deck(self.rng, 8)
        self.power_deck = Deck(self.rng, 16)
        self.short: dict[tuple[int, str], object] = {}
        self.short_failures = 0

    # generation
    def exponent(self) -> int:
        q = self.exp_deck.draw()
        return 1 if q < 0.5 else 2 + int((q - 0.5) * 14)

    def word(self, max_exp: int = 10**9) -> str:
        letters = "abababab" if self.rng.random() < 0.5 else "babababa"
        return caret([(letters[i], min(self.exponent(), max_exp))
                      for i in range(1 + int(self.runs_deck.draw() * 8))])

    def power_exponent(self) -> int:
        return self.rng.randint(2, 8)

    def bound_exponent(self) -> int:
        return self.rng.randint(1, 8)

    def equal_variant(self, text: str) -> str:
        """A word equal to `text` in every family, built from the axioms."""
        runs = runs_of(text)
        way = self.rng.randrange(3)
        cuts = [i for i in range(len(runs) - 1) if runs[i][0] == "a"]
        if way == 0 and cuts:                   # a^k b^l = a^(k+t) b^(l+t)
            i = self.rng.choice(cuts)
            t = self.rng.randint(1, max(1, self.exponent()))
            runs[i] = ("a", runs[i][1] + t)
            runs[i + 1] = ("b", runs[i + 1][1] + t)
            return caret(runs)
        if way == 1:                            # a = a(ba), b = b(ab)
            return text + ("ba" if runs[-1][0] == "a" else "ab")
        return ("ab" if runs[0][0] == "a" else "ba") + text   # a = (ab)a

    def job(self, op: str, fam: int):
        rng = self.rng
        u = self.word()
        if op == "power":
            return (op, fam, u, None, self.power_exponent(), None)
        if op in ("equal", "classify_relation"):
            way = rng.randrange(3)
            if way == 0:
                return (op, fam, u, self.equal_variant(u), None, "equal")
            if way == 1 and op == "classify_relation":
                n = self.bound_exponent()
                pre, suf = self.word(8), self.word(8)
                lhs, rhs = ((f"a^{n + 1}b", f"a^{n}") if rng.random() < 0.5
                            else (f"ab^{n + 1}", f"b^{n}"))
                return (op, fam, pre + lhs + suf, pre + rhs + suf, None, None)
            return (op, fam, u, self.word(), None, None)
        if op == "related":
            v = u + self.word() if rng.random() < 0.5 else self.word()
            return (op, fam, u, v, rng.choice("RLHD"), None)
        if op == "multiply":
            return (op, fam, u, self.word(), None, None)
        if op == "is_idempotent" and rng.random() < 0.5:
            return (op, fam, u + mirror_text(u), None, None, "idempotent")
        return (op, fam, u, None, None, None)

    def blocks(self):
        pairs = [(op, fam) for op in QUERY_OPS for fam in range(len(FAMILIES))]
        while True:
            block = []
            for _ in range(self.cycles_per_block):
                cycle = pairs[:]
                self.rng.shuffle(cycle)
                block.extend(self.job(op, fam) for op, fam in cycle)
            yield block

    def cli(self, job):
        op, fam, u, v, extra, _ = job
        fa = family_args(FAMILIES[fam])
        return {"reduce": ["reduce", *fa, u],
                "multiply": ["mul", *fa, u, v],
                "canonical_inverse": ["inv", *fa, u],
                "equal": ["eq", *fa, u, v],
                "related": ["green", *fa, "--rel", str(extra), u, v],
                "inverse_image": ["image", *fa, u],
                "is_idempotent": ["idem", *fa, u],
                "classify_relation": ["classify", u, v]}.get(op)

    # execution
    @staticmethod
    def run(job):
        op, fam, u, v, extra, _ = job
        family = FAMILIES[fam]
        if op == "classify_relation":
            verdict = classify.classify_relation(u, v)
            return verdict, str(verdict), None
        x = nf.reduce(u, family)
        if op == "reduce":
            return x, nf.format_element(x), x
        if op == "multiply":
            value = nf.multiply(x, nf.reduce(v, family))
        elif op == "canonical_inverse":
            value = nf.canonical_inverse(x)
        elif op == "power":
            value = nf.power(x, extra)
        elif op == "inverse_image":
            image = quotient.inverse_image(x)
            if isinstance(image, quotient.CyclicImage):
                return image, str(image.value), x
            return image, nf.format_element(image.element), x
        else:
            if op == "equal":
                hit = nf.equal(x, nf.reduce(v, family))
            elif op == "related":
                hit = structure.related(x, nf.reduce(v, family), extra)
            else:
                hit = nf.is_idempotent(x)
            return hit, "true" if hit else "false", x
        return value, nf.format_element(value), x

    # checks
    def record_short(self, fam: int, text: str, x) -> None:
        """Keep the answer for a short word; closure classes judge it at the end."""
        # A run of e letters takes at most 2e characters, so long texts are long words.
        if len(text) > 2 * self.short_len or flat_len(text) > self.short_len:
            return
        key = (fam, flat(text))
        seen = self.short.setdefault(key, x.form)
        if seen != x.form:
            self.short_failures += 1

    def check(self, job, value, text, x) -> bool:
        """Check one answer; `x` is the job's own reduction of u."""
        op, fam, u, v, extra, tag = job
        family = FAMILIES[fam]
        group = isinstance(family, GroupCase)
        reduce, mul = nf.reduce, nf.multiply
        if op == "classify_relation":
            return self.check_classify(u, v, value, tag)
        if op in ("reduce", "multiply"):
            word = u if op == "reduce" else u + v
            if value != reduce(text, family):
                return False
            left, right = split(word)           # a second path: multiply the halves
            if value != (reduce(word, family) if right is None else
                         mul(reduce(left, family), reduce(right, family))):
                return False
            self.record_short(fam, word, value)
            return not group or coords(value) == group_coords(family, word)
        self.record_short(fam, u, x)
        if op == "canonical_inverse":
            if mul(mul(x, value), x) != x or mul(mul(value, x), value) != value:
                return False
            mirrored = mirror_text(nf.format_element(x))
            if not group:
                return value == reduce(mirrored, family)
            return coords(value) == group_coords(family, mirrored)
        if op == "power":
            if value != reduce(text, family) or value != _square_multiply(x, extra):
                return False
            if not group:
                return True
            g, row, col = group_coords(family, u)
            g *= extra
            if family.order is not None:
                g %= family.order
            return coords(value) == (g, row, col)
        if op == "inverse_image":
            if group:
                return value.value == group_coords(family, u)[0]
            return value.element == reduce(u, BICYCLIC)
        if op == "is_idempotent":
            expected = reduce(u + u, family) == x
            if group:
                expected = expected and group_coords(family, u)[0] == 0
            return value == expected and (tag != "idempotent" or value)
        y = reduce(v, family)
        self.record_short(fam, v, y)
        if op == "equal":
            if tag == "equal" and not value:
                return False
            if group:
                return value == (group_coords(family, u) == group_coords(family, v))
            return value == (x == y)
        # related
        if extra == "D":
            return value is True
        if group:
            (_, rx, cx), (_, ry, cy) = group_coords(family, u), group_coords(family, v)
            same_row, same_col = rx == ry, cx == cy
        else:
            xi, yi = nf.canonical_inverse(x), nf.canonical_inverse(y)
            e, f = mul(x, xi), mul(y, yi)            # x R xx', and e R f in a band
            same_row = mul(e, f) == f and mul(f, e) == e
            e, f = mul(xi, x), mul(yi, y)            # x L x'x
            same_col = mul(e, f) == e and mul(f, e) == f
        expected = {"R": same_row, "L": same_col, "H": same_row and same_col}[extra]
        return value == expected

    @staticmethod
    def check_classify(u, v, verdict, tag) -> bool:
        """A verdict names the combinatorial families where u = v holds."""
        def holds(n, m):
            family = Combinatorial(n, m)
            return nf.reduce(u, family) == nf.reduce(v, family)

        if isinstance(verdict, classify.Redundant):
            return holds(INF, INF)
        if tag == "equal":
            return False
        if isinstance(verdict, classify.RightBound):
            return holds(verdict.n, INF) and not holds(verdict.n + 1, INF)
        if isinstance(verdict, classify.LeftBound):
            return holds(INF, verdict.m) and not holds(INF, verdict.m + 1)
        if isinstance(verdict, classify.Both):
            n, m = verdict.n, verdict.m
            return holds(n, m) and not holds(n + 1, m) and not holds(n, m + 1)
        return isinstance(verdict, classify.Impossible) and not holds(1, 1)

    def finish(self) -> int:
        """Judge the short-word answers against closure classes; count failures."""
        failures = self.short_failures
        by_family: dict[int, dict[str, object]] = {}
        for (fam, word), form in self.short.items():
            by_family.setdefault(fam, {})[word] = form
        for fam, answers in sorted(by_family.items()):
            table = oracle.closure_classes(FAMILIES[fam], self.short_len,
                                           self.short_len + 4, check_cap=False)
            form_of_class: dict[str, object] = {}
            class_of_form: dict[object, str] = {}
            for word, form in answers.items():
                rep = table.classes[word]
                if form_of_class.setdefault(rep, form) != form:
                    failures += 1
                if class_of_form.setdefault(form, rep) != rep:
                    failures += 1
        return failures


class HugeExponents(Queries):
    """The queries mix with run exponents log-uniform in [10^2, 10^4]."""

    name = "huge_exponents"
    cycles_per_block = 1
    trace_blocks = 2
    short_len = 0
    out_cap = 200_000        # letters a power's input may spell out, times p

    def exponent(self) -> int:
        return log_uniform(self.exp_deck.draw(), 100, 10_000)

    def power_exponent(self) -> int:
        return log_uniform(self.power_deck.draw(), 10, 1000)

    def bound_exponent(self) -> int:
        return log_uniform(self.exp_deck.draw(), 100, 10_000)

    def job(self, op: str, fam: int):
        job = super().job(op, fam)
        if op != "power":
            return job
        # Cap the spelled-out answer: |x^p| <= p * |x| letters.
        p = job[4]
        runs = runs_of(job[2])
        cap = max(1, self.out_cap // (p * len(runs)))
        return (op, fam, caret([(letter, min(e, cap)) for letter, e in runs]), None, p, None)


def _square_multiply(x, p: int):
    result, base = None, x
    while p:
        if p & 1:
            result = base if result is None else nf.multiply(result, base)
        p >>= 1
        if p:
            base = nf.multiply(base, base)
    return result


# -- window --------------------------------------------------------------------

def C(n, m):
    return Combinatorial(n, m)


# (op, family, size).  Sizes are window bounds, eggbox windows (U, D, L, R),
# or None for a random window.  The make-up is fixed so that every block
# costs about the same; the seed picks bounds below the listed ones (by up
# to a 25th), elements, random windows and the order.  Jobs fall into cost
# groups (at this commit) so that the median and the 90th percentile of job
# time land inside a group rather than on the edge between two.
WINDOW_BLOCK = [
    # about 2 s
    ("idempotents_window", FREE, 200),
    # about 0.2 s: the 90th percentile
    ("band_dot", FREE, 28), ("local_chain", FREE, 60),
    ("inverses_window", FREE, 55), ("idempotents_window", C(1, 1), 140),
    # 15 to 120 ms
    ("idempotents_window", C(3, INF), 70), ("idempotents_window", C(INF, 4), 40),
    ("local_chain", C(3, 2), 29), ("local_chain", FREE, 20),
    ("band_dot", C(1, 1), 20), ("band_dot", C(INF, 3), 12),
    # about 5 ms, the same window size for every element: the median
    ("inverses_window", C(1, 1), 20), ("inverses_window", C(1, 1), 20),
    ("inverses_window", C(2, 2), 20), ("inverses_window", C(2, 2), 20),
    ("inverses_window", C(3, 2), 20), ("inverses_window", C(3, 2), 20),
    ("inverses_window", C(2, 3), 20), ("inverses_window", C(2, 3), 20),
    ("inverses_window", C(4, 3), 20),
    # under 3 ms
    ("idempotents_window", C(4, 3), 14), ("idempotents_window", C(INF, 1), 10),
    ("idempotents_window", GROUP[0], 10), ("band_dot", GROUP[2], 6),
    ("inverses_window", GROUP[3], 30),
    ("eggbox_grid", FREE, (3, 3, 3, 3)), ("eggbox_grid", C(4, INF), (3, 3, 3, 3)),
    ("eggbox_grid", C(4, 3), (2, 3, 3, 3)), ("eggbox_grid", GROUP[4], None),
    ("eggbox_grid", C(INF, INF), None), ("eggbox_grid", C(3, 2), None),
]
# The largest bound at which the check lists a combinatorial family's window
# idempotents itself (Window.listed_idempotents).  The free family's window
# at bound 200 is checked by its count, 4 bound - 2, instead: listing it
# would take about 20 s.
LISTED_TOP: dict = {}
for _op, _family, _size in WINDOW_BLOCK:
    if (_op in ("idempotents_window", "band_dot", "local_chain")
            and isinstance(_family, Combinatorial)
            and (_op, _family) != ("idempotents_window", FREE)):
        LISTED_TOP[_family] = max(_size, LISTED_TOP.get(_family, 0))
GOLDEN_FILES = {(FREE, (3, 3, 3, 3)): "eggbox_free.txt",
                (C(4, INF), (3, 3, 3, 3)): "eggbox_right4.txt",
                (C(4, 3), (2, 3, 3, 3)): "eggbox_right4_left3.txt"}


class Window:
    """Window enumerations: idempotents, band DOT, chains, inverses, eggboxes."""

    name = "window"
    trace_blocks = 1

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.golden = {key: [[cell.strip() for cell in line.split(" | ")]
                             for line in (GOLDEN / name).read_text().splitlines()]
                       for key, name in GOLDEN_FILES.items()}
        self.listed: dict = {}

    def small_word(self, top: int) -> str:
        nruns = self.rng.randint(1, 4)
        first = self.rng.randrange(2)
        return caret([("ab"[(first + i) % 2], self.rng.randint(1, top))
                      for i in range(nruns)])

    def job(self, op, family, size):
        rng = self.rng
        if op == "eggbox_grid":
            if size is None:
                n, m = getattr(family, "right_bound", None), getattr(family, "left_bound", None)
                size = (rng.randint(0, 5 if m is None else m - 1), rng.randint(0, 5),
                        rng.randint(0, 5 if n is None else n - 1), rng.randint(0, 5))
            return (op, family, size, None)
        bound = size - rng.randint(0, size // 25)     # cost grows as bound^2 or faster
        if op == "local_chain":
            word = self.small_word(max(1, bound // 3))
            return (op, family, bound, word + mirror_text(word))   # idempotent
        if op == "inverses_window":
            return (op, family, bound, self.small_word(max(1, bound // 2)))
        return (op, family, bound, None)

    def blocks(self):
        first = True
        while True:
            block = [self.job(*spec) for spec in WINDOW_BLOCK]
            self.rng.shuffle(block)
            if first:   # the set-up probe answers the first job: make it a cheap eggbox
                i = next(i for i, job in enumerate(block) if job[0] == "eggbox_grid")
                block.insert(0, block.pop(i))
                first = False
            yield block

    def cli(self, job):
        op, family, size, _ = job
        fa = family_args(family)
        if op == "idempotents_window":
            return ["idem", *fa, "--bound", str(size)]
        if op == "band_dot":
            return ["band", *fa, "--bound", str(size), "--format", "dot"]
        if op == "eggbox_grid":
            return ["eggbox", *fa, "--window", ",".join(map(str, size or (3, 3, 3, 3)))]
        return None

    @staticmethod
    def run(job):
        op, family, size, word = job
        if op == "idempotents_window":
            found = structure.idempotents_window(family, size)
            return found, "\n".join(nf.format_element(e) for e in found)
        if op == "band_dot":
            dot = render.band_dot(family, size)
            return dot, dot
        if op == "eggbox_grid":
            matrix = render.eggbox_grid(family, render.EggboxWindow(*(size or (3, 3, 3, 3))))
            return matrix, render.grid_text(matrix)
        if op == "local_chain":
            found = structure.local_chain(nf.reduce(word, family), family, size)
        else:
            found = quotient.inverses_window(nf.reduce(word, family), size)
        return found, "\n".join(nf.format_element(e) for e in found)

    def listed_idempotents(self, family, bound: int) -> set[str]:
        """Window idempotents of a combinatorial family, found by reduce alone.

        A window word t is idempotent when reduce(tt) == reduce(t); neither
        multiply nor is_idempotent takes part.  The list is made once per
        family, at its LISTED_TOP bound, and cut down to smaller bounds.
        """
        if family not in self.listed:
            words = map(nf.format_element, nf.window_elements(family, LISTED_TOP[family]))
            self.listed[family] = {t for t in words if _idempotent(t, family)}
        return {t for t in self.listed[family] if all(e <= bound for _, e in runs_of(t))}

    def idempotents_ok(self, family, bound: int, names: list[str]) -> bool:
        """`names` are the window's idempotents, each once."""
        if len(set(names)) != len(names):
            return False
        if isinstance(family, GroupCase):
            return (len(names) == BAND_SIZE[family.case_number]
                    and all(_idempotent(t, family) for t in names))
        if not all(e <= bound for name in names for _, e in runs_of(name)):
            return False
        if bound <= LISTED_TOP.get(family, 0):
            return set(names) == self.listed_idempotents(family, bound)
        return (family == FREE and len(names) == 4 * bound - 2
                and all(_idempotent(t, family) for t in names))

    def check(self, job, value, text) -> bool:
        op, family, size, word = job
        reduce = nf.reduce

        def below(low, high):       # natural order e <= f: ef = fe = e
            e = reduce(low, family)
            return reduce(low + high, family) == e and reduce(high + low, family) == e

        if op == "eggbox_grid":
            if isinstance(family, GroupCase):
                return _group_grid_ok(family, value)
            golden = self.golden.get((family, size))
            return value == _eggbox_cells(size) and (golden is None or value == golden)
        if op == "band_dot":
            nodes = re.findall(r'^  "([^"]+)";$', value, re.M)
            covers = re.findall(r'^  "([^"]+)" -> "([^"]+)" \[style=bold\];$', value, re.M)
            return (self.idempotents_ok(family, size, nodes)
                    and all(below(low, high) for high, low in covers))
        names = text.split("\n") if text else []
        if op == "idempotents_window":
            keys = [nf.sort_key(e) for e in value]
            return keys == sorted(keys) and self.idempotents_ok(family, size, names)
        if op == "local_chain":
            # exactly e and the window idempotents below it, each below the last
            top = nf.format_element(reduce(word, family))
            members = {top} | {f for f in self.listed_idempotents(family, size)
                               if below(f, top)}
            return (bool(names) and names[0] == top and set(names) == members
                    and len(names) == len(members) and _idempotent(top, family)
                    and all(below(low, high) for high, low in zip(names, names[1:])))
        # inverses_window: y with x y x = x and y x y = y, inside the window
        x = reduce(word, family)
        inside = isinstance(family, GroupCase) or all(
            e <= size for name in names for _, e in runs_of(name))
        return inside and all(reduce(word + y + word, family) == x
                              and reduce(y + word + y, family) == reduce(y, family)
                              for y in names)

    def finish(self) -> int:
        return 0


def _eggbox_cells(size) -> list[list[str]]:
    """The eggbox window as laid out in orthox.render, spelled by the benchmark.

    Rows: a b^k (k descending), the central row, b^k (k ascending); columns:
    a^l b (l descending), the central column, a^l (l ascending).  A cell is
    its row word followed by its column word; the centre is ab.
    """
    up, down, left, right = size
    rows = [[("a", 1), ("b", k)] for k in range(up + 1, 1, -1)] + [[]]
    rows += [[("b", k)] for k in range(1, down + 1)]
    cols = [[("a", l), ("b", 1)] for l in range(left + 1, 1, -1)] + [[]]
    cols += [[("a", l)] for l in range(1, right + 1)]
    return [[caret(row + col) if row or col else "ab" for col in cols] for row in rows]


def _group_grid_ok(family: GroupCase, matrix) -> bool:
    """Cells of a group-case eggbox: one per tracked row/column, g = 0, 1, 2."""
    rows = ("a", "b") if family.tracks_row else (None,)
    cols = ("a", "b") if family.tracks_col else (None,)
    if [len(line) for line in matrix] != [len(cols)] * len(rows):
        return False
    for line, row in zip(matrix, rows):
        for cell, col in zip(line, cols):
            reps = cell.split(": ", 1)[1].split(", ")
            if [group_coords(family, rep) for rep in reps] != [
                    (g, row, col) for g in range(min(3, family.order or 3))]:
                return False
    return True


def _idempotent(text: str, family) -> bool:
    return nf.reduce(text + text, family) == nf.reduce(text, family)


# -- verify --------------------------------------------------------------------

# (max_len, cap) jobs per family: the closure converges at each of them for
# that family (checked against the reducer).  Finite-order group cases, at
# odd indices of FAMILIES, need cap >= max_len + 4, so odd indices take
# (6, 11) where even ones take (6, 9).  That puts 30 jobs at cap 9, 40 at
# cap 10 and 30 at cap 11: the median and the 90th percentile of job time
# fall inside a cap.  Caps stop at 11 so that the 100 jobs fit in one run;
# bench/sweeps.py times caps up to 13.
def verify_slots(fam: int) -> list[tuple[int, int]]:
    return [(5, 9), (5, 10), (6, 10), (5, 11), (6, 11) if fam % 2 else (6, 9)]


class Verify:
    """verify_reducer with the cap re-check: every family at five (max_len, cap).

    The input space is small, so a pass is the same 100 jobs for every seed:
    five blocks, each holding every family once.  The seed picks which slot
    a family takes in which block, and the order.
    """

    name = "verify"
    trace_blocks = 1

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def blocks(self):
        first = True
        while True:
            shifts = [self.rng.randrange(5) for _ in FAMILIES]
            for b in range(5):
                block = []
                for fam in range(len(FAMILIES)):
                    block.append(("verify_reducer", fam, *verify_slots(fam)[(b + shifts[fam]) % 5]))
                self.rng.shuffle(block)
                if first:                    # a cheap job first, for the set-up probe
                    block.sort(key=lambda job: job[3] > 9)
                    first = False
                yield block

    @staticmethod
    def cli(job):
        _, fam, max_len, cap = job
        return ["verify", *family_args(FAMILIES[fam]), "--max-len", str(max_len),
                "--cap", str(cap), "--format", "json"]

    @staticmethod
    def run(job):
        _, fam, max_len, cap = job
        report = oracle.verify_reducer(FAMILIES[fam], max_len, cap)
        return report, json.dumps(report.to_json())

    @staticmethod
    def check(job, report, text) -> bool:
        _, _, max_len, _ = job
        words = 2 ** (max_len + 1) - 2
        return (not report.reducer_splits_closure and not report.closure_splits_reducer
                and report.agreements == words * (words - 1) // 2)

    def finish(self) -> int:
        return 0


WORKLOADS = {w.name: w for w in (Queries, HugeExponents, Window, Verify)}
