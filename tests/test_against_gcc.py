"""gcc as an independent judge of adil's parser: every program the tests
feed adil that adil accepts, gcc accepts too, and programs adil rejects for
C's scope rules gcc rejects at the same place. Skipped without gcc.

`-Wno-error=implicit-function-declaration` keeps scanf and printf without
their #include a warning (silenced by -w) on gcc 14 and later, as it is on
older releases.
"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from adil.frontend import CSyntaxError, parse_c

from generators import random_program
from test_frontend import _ATOMS, _BINARY_OPS, STATEMENTS, _expression_program, statement_program

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

GCC = shutil.which("gcc")
pytestmark = pytest.mark.skipif(GCC is None, reason="gcc is not on PATH")
GCC_FLAGS = ["-std=c99", "-fsyntax-only", "-w", "-Wno-error=implicit-function-declaration"]


def _gcc(paths: list[Path]) -> subprocess.CompletedProcess:
    return subprocess.run([GCC, *GCC_FLAGS, *map(str, paths)], capture_output=True, text=True)


def _programs(corpus_cases) -> dict[str, str]:
    """File name -> source: the corpus, every workload item at one seed, 200
    generated programs, and 200 statement soups and 200 operator soups (the
    parser tests' pieces, of which the soups adil accepts are kept)."""
    programs = {f"corpus-{prog.name}": prog.read_text() for prog, _ in corpus_cases}
    for workload in workloads.WORKLOADS:
        for item in workloads.make_items(workload, 3, ROOT):
            programs[f"{workload}-{item.name}"] = item.source
    for seed in range(200):
        programs[f"random-{seed:03d}.c"] = random_program(random.Random(seed))
    for seed in range(200):
        rng = random.Random(seed)
        source = statement_program(rng.choices(STATEMENTS, k=rng.randrange(9)))
        try:
            parse_c(source)
        except CSyntaxError:
            continue
        programs[f"soup-{seed:03d}.c"] = source
    for seed in range(200):
        source = _operator_soup(random.Random(seed))
        try:
            parse_c(source)
        except CSyntaxError:
            continue
        programs[f"operators-{seed:03d}.c"] = source
    return programs


def _operator_soup(rng: random.Random) -> str:
    """An operator soup as test_property_parser_matches_reference_on_operator_soups
    draws one: operators and atoms in turn, with brackets that may not match."""
    pieces = [(rng.choice(_BINARY_OPS + [","]), rng.choice(["", "", "(", "-", "!", "a[", "f("]),
               rng.choice(_ATOMS), rng.choice(["", "", ")", "]"])) for _ in range(rng.randrange(13))]
    soup = "x" + "".join(f" {op} {before}{atom}{after}" for op, before, atom, after in pieces)
    return _expression_program(soup, rng.random() < 0.5)


def test_gcc_accepts_every_program_adil_accepts(tmp_path, corpus_cases):
    paths = []
    for name, source in _programs(corpus_cases).items():
        parse_c(source, filename=name)
        paths.append(tmp_path / name)
        paths[-1].write_text(source)
    assert len(paths) > 21 + 168 + 5 + 5 + 100 + 200
    assert sum(path.name.startswith("operators-") for path in paths) >= 20  # 25 at these seeds
    proc = _gcc(paths)
    assert proc.returncode == 0, proc.stderr[:4000]


@pytest.mark.parametrize("source, col", [
    ("int f(int a, int a) { return a; }\n", 18),
    ("int f(int a) { int a; a = 1; return a; }\n", 20),
], ids=["parameter-twice", "body-redeclares-parameter"])
def test_gcc_and_adil_reject_a_redeclared_parameter_at_one_place(tmp_path, source, col):
    with pytest.raises(CSyntaxError) as err:
        parse_c(source, filename="p.c")
    assert str(err.value).startswith(f"p.c:1:{col}: ")
    (tmp_path / "p.c").write_text(source)
    proc = _gcc([tmp_path / "p.c"])
    assert proc.returncode != 0 and f"p.c:1:{col}: error:" in proc.stderr


def test_gcc_and_adil_agree_that_an_initializer_sees_its_own_name(tmp_path):
    # the inner `a` is a scalar from its declarator on, so a[0] is an error and a is not
    rejected = "int main() { int a[3]; { int a = a[0]; } return 0; }\n"
    accepted = "int main() { int a[3]; { int a = a; } return 0; }\n"
    with pytest.raises(CSyntaxError):
        parse_c(rejected)
    parse_c(accepted)
    for name, source, code in (("rejected.c", rejected, 1), ("accepted.c", accepted, 0)):
        (tmp_path / name).write_text(source)
        assert _gcc([tmp_path / name]).returncode == code, name


def test_gcc_and_adil_accept_a_form_feed_and_a_vertical_tab_between_tokens(tmp_path, corpus_dir):
    # C99 6.4 lists both as white space: a form-feed line after the header
    # comment (a page break), and each in place of a space between tokens
    source = (corpus_dir / "correct/sum.c").read_text()
    source = source.replace("*/\n", "*/\n\f\n", 1).replace("int s;", "int\vs;").replace("s = 0;", "s\f=\v0;")
    assert source.count("\f") == 2 and source.count("\v") == 2
    parse_c(source, filename="spaces.c")
    (tmp_path / "spaces.c").write_text(source)
    proc = _gcc([tmp_path / "spaces.c"])
    assert proc.returncode == 0, proc.stderr
