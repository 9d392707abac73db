"""Seeded inputs for the benchmark workloads, each with its known answer.

Nothing here calls adil. Inputs are built from the corpus files and from
generators whose construction fixes the answer: the corpus manifest and
`.spec` files say what a corpus program should get, and the generators know
which loop they broke. The same seed always gives the same items.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("class-batch", "large-program", "dense-chain", "authoring")

# Stand-alone copy of the dense add-chain plan, added to the shipped base
# by the dense-chain workload.
EXTRA_PLANS = {"dense-chain": ["add-chain.plan"]}

CLASS_VARIANTS = 8  # fresh variants of each corpus program per pool
AUTHOR_VARIANTS = 9  # renamed variants per correct exemplar, besides the original
LARGE_K = (16, 64)  # sum loops per large program, smallest and largest
LARGE_SIZES = 5  # odd, so the median is one size's time
DENSE_K = range(16, 25, 2)  # additions per dense program

_KEYWORDS = {"int", "if", "else", "while", "for", "return"}
_KEEP = _KEYWORDS | {"main", "scanf", "printf"}
_TOKEN = re.compile(r'/\*.*?\*/|//.*|"(?:[^"\\\n]|\\.)*"|[A-Za-z_]\w*|\d+'
                    r'|<=|>=|==|!=|&&|\|\||\S')
_IDENT = re.compile(r"[A-Za-z_]\w*")


@dataclass(frozen=True)
class Item:
    """One graded program (or, in `authoring`, one exemplar to turn into a plan)."""
    name: str  # file name the program is parsed under
    source: str
    spec: str  # spec text; in authoring the goal is the plan acquired from the item
    bug_line: int | None  # None: every required goal RECOGNIZED, no findings
    plan_name: str | None = None  # authoring only: name for the acquired plan


def make_items(workload: str, seed: int, root: Path) -> list[Item]:
    if workload == "class-batch":
        return class_batch(seed, root)
    if workload == "large-program":
        return large_program(seed)
    if workload == "dense-chain":
        return dense_chain(seed)
    if workload == "authoring":
        return authoring(seed, root)
    raise ValueError(f"unknown workload {workload!r}")


def spec_texts(items: list[Item]) -> list[str]:
    """The distinct spec texts a workload grades against, in first-use order."""
    return list(dict.fromkeys(item.spec for item in items))


# ---------------------------------------------------------------------------
# Corpus and line-preserving variants

@dataclass(frozen=True)
class CorpusProgram:
    path: str  # relative to corpus/
    source: str
    spec: str
    bug_line: int | None


def load_corpus(root: Path) -> list[CorpusProgram]:
    corpus = root / "corpus"
    out = [CorpusProgram(f"correct/{c.name}", c.read_text(encoding="utf-8"),
                         c.with_suffix(".spec").read_text(encoding="utf-8"), None)
           for c in sorted((corpus / "correct").glob("*.c"))]
    manifest = json.loads((corpus / "bugs" / "manifest.json").read_text(encoding="utf-8"))
    for entry in manifest:
        out.append(CorpusProgram(entry["bug"], (corpus / entry["bug"]).read_text(encoding="utf-8"),
                                 (corpus / entry["spec"]).read_text(encoding="utf-8"),
                                 int(entry["bug_line"])))
    return out


def variant(source: str, rng: random.Random) -> str:
    """Rename identifiers consistently and reshuffle spaces between tokens.

    Every line stays on its line, so a manifest's `bug_line` still names the
    edited line. Comments, string literals and the names in `_KEEP` stay as
    written.
    """
    mapping: dict[str, str] = {}
    taken = set(_KEEP)

    def rename(name: str) -> str:
        if name not in mapping:
            while True:
                fresh = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz")
                                for _ in range(rng.randint(1, 7)))
                fresh += rng.choice(["", "_", "2", "_v"])
                if fresh not in taken:
                    break
            taken.add(fresh)
            mapping[name] = fresh
        return mapping[name]

    lines = []
    for line in source.split("\n"):
        indent = line[: len(line) - len(line.lstrip())]
        pieces = []
        pos = len(indent)
        for m in _TOKEN.finditer(line, pos):
            text = m.group()
            if _IDENT.fullmatch(text) and text not in _KEEP:
                text = rename(text)
            if pieces:
                had_space = m.start() > pos
                gap = " " * rng.randint(1, 3) if had_space else " " * (rng.random() < 0.3)
                pieces.append(gap)
            pieces.append(text)
            pos = m.end()
        lines.append(indent + "".join(pieces))
    return "\n".join(lines)


def class_batch(seed: int, root: Path) -> list[Item]:
    """Every corpus program, CLASS_VARIANTS fresh variants each, seeded order."""
    rng = random.Random(f"class-batch/{seed}")
    programs = load_corpus(root)
    items = []
    for _ in range(CLASS_VARIANTS):
        for prog in rng.sample(programs, len(programs)):
            items.append(Item(f"student{len(items):04d}.c", variant(prog.source, rng),
                              prog.spec, prog.bug_line))
    return items


def authoring(seed: int, root: Path) -> list[Item]:
    """Each correct corpus program as written plus AUTHOR_VARIANTS renamed variants."""
    rng = random.Random(f"authoring/{seed}")
    exemplars = [p for p in load_corpus(root) if p.bug_line is None]
    items = []
    for prog in exemplars:
        for k in range(1 + AUTHOR_VARIANTS):
            source = prog.source if k == 0 else variant(prog.source, rng)
            name = f"exemplar-{len(items):03d}"
            items.append(Item(f"{name}.c", source, _spec(name), None, plan_name=name))
    rng.shuffle(items)
    return items


def _spec(goal: str) -> str:
    return f'spec "{goal}"\ngoal "{goal}" required\nend\n'


# ---------------------------------------------------------------------------
# Generated programs

def large_sizes() -> list[int]:
    """LARGE_SIZES loop counts spaced geometrically over LARGE_K."""
    lo, hi = LARGE_K
    return [round(lo * (hi / lo) ** (j / (LARGE_SIZES - 1))) for j in range(LARGE_SIZES)]


def sum_loops_source(k: int, buggy_loop: int | None, names: tuple[str, str]) -> tuple[str, int | None]:
    """K sequential sum loops over one array; loop `buggy_loop` tests with <=.

    Returns the source and the line of the broken loop's `while`.
    """
    s, i = names
    lines = ["int sums(int a[], int n) {"]
    for j in range(k):
        lines += [f"    int {s}{j};", f"    int {i}{j};"]
    bug_line = None
    for j in range(k):
        lines += [f"    {s}{j} = 0;", f"    {i}{j} = 0;"]
        cmp_ = "<"
        if j == buggy_loop:
            cmp_ = "<="
            bug_line = len(lines) + 1
        lines += [f"    while ({i}{j} {cmp_} n) {{",
                  f"        {s}{j} = {s}{j} + a[{i}{j}];",
                  f"        {i}{j} = {i}{j} + 1;",
                  "    }"]
    lines += [f"    return {s}{k - 1};", "}", ""]
    return "\n".join(lines), bug_line


def large_program(seed: int) -> list[Item]:
    """One program per size; every other size has one <= bound at a seeded loop.

    Sizes and which of them are broken are fixed, so every seed weighs the
    same mix and the median lands on the middle size; the seed picks the
    broken loop, the variable names and the order.
    """
    rng = random.Random(f"large-program/{seed}")
    items = []
    for j, k in enumerate(large_sizes()):
        loop = rng.randrange(k) if j % 2 else None
        names = rng.choice([("s", "i"), ("sum", "idx"), ("acc", "k"), ("t", "j")])
        source, bug_line = sum_loops_source(k, loop, names)
        items.append(Item(f"sums-{k:03d}.c", source, _spec("running-total"), bug_line))
    rng.shuffle(items)
    return items


def dense_source(k: int, rng: random.Random) -> str:
    """Additions with two consumers each, as in the matcher's budget tests.

    The seed picks the variable prefix and each addition's operand order,
    which `commutable` makes irrelevant to the answer.
    """
    x = rng.choice(["x", "t", "acc", "r"])
    decls = "".join(f"    int {x}{i};\n" for i in range(k))

    def add(a: str, b: str) -> str:
        return f"{a} + {b}" if rng.random() < 0.5 else f"{b} + {a}"

    body = f"    {x}0 = {add('u', 'v')};\n    {x}1 = {add(f'{x}0', 'u')};\n"
    body += "".join(f"    {x}{i} = {add(f'{x}{i-1}', f'{x}{i-2}')};\n" for i in range(2, k))
    return f"int f(int u, int v) {{\n{decls}{body}    return {x}{k-1};\n}}\n"


def dense_chain(seed: int) -> list[Item]:
    rng = random.Random(f"dense-chain/{seed}")
    items = [Item(f"dense-{k:02d}.c", dense_source(k, rng), _spec("add-chain"), None)
             for k in DENSE_K]
    rng.shuffle(items)
    return items



def required_goals(spec: str) -> list[str]:
    """Goal names a spec text marks required, read without adil's spec parser."""
    return re.findall(r'^\s*goal\s+"([^"]*)"\s+required\s*$', spec, flags=re.M)
