"""Mutation testing for one module of ``src/fairaudit``, standard library only.

    python tests/mutation.py src/fairaudit/metrics.py [--lines L,L]

A mutant swaps one operator of the module: ``<``/``<=``, ``>``/``>=``,
``==``/``!=``, ``+``/``-`` or ``*``/``/``, each way. The sites are every
such comparison and binary operation (before Python 3.12, outside an
f-string), in source order; ``--lines`` keeps those on the given lines.
Each mutant is written into a temporary copy of the repository, never
into the checkout. The module's own tests (``tests/test_<module>.py``)
run first; a mutant they miss runs the whole suite, and a mutant that
passes that too survives. Both runs are first timed once unmutated, and a
mutant's run that takes longer than ``TIMEOUT_FACTOR`` times its unmutated
time plus ``TIMEOUT_FLOOR`` seconds (say, one that loops forever) counts
as killed. A swap listed in ``tests/mutation_equivalents.py`` changes
nothing the program does, so it is not run. Prints one line per mutant and
the score; exits 1 when any unlisted mutant survives, and 2, scoring
none, when an unmutated run fails.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import runpy
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SWAPS = {
    ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="), ast.Add: ("+", "-"), ast.Sub: ("-", "+"),
    ast.Mult: ("*", "/"), ast.Div: ("/", "*"),
}
TIMEOUT_FACTOR, TIMEOUT_FLOOR = 5, 30  # a mutant's run may take 5x the unmutated run, plus 30 s


def sites(source: str) -> list[tuple[tuple[int, int], str, str, str]]:
    """Every swappable operator token: its (line, column), text and replacement,
    and the swap it makes, as the operation before and after (``old -> new``),
    each its operands' source around the operator, single-spaced."""
    spans = []  # (operator, end of the left operand, start of the right operand)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp):
            spans.append((node.op, node.left, node.right))
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            spans.extend(zip(node.ops, operands, operands[1:]))
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    tokens = [t for t in tokens if t.type == tokenize.OP]
    lines = source.splitlines(keepends=True)

    def position(line: int, offset: int) -> tuple[int, int]:  # ast counts UTF-8 bytes
        return line, len(lines[line - 1].encode()[:offset].decode())

    found = []
    for op, left, right in spans:
        if type(op) not in SWAPS:
            continue
        old, new = SWAPS[type(op)]
        after = position(left.end_lineno, left.end_col_offset)
        before = position(right.lineno, right.col_offset)
        between = [t.start for t in tokens if after <= t.start < before and t.string == old]
        if len(between) == 1:  # before Python 3.12 an f-string's operators are no tokens
            a, b = (" ".join(ast.get_source_segment(source, side).split()) for side in (left, right))
            found.append((between[0], old, new, f"{a} {old} {b} -> {a} {new} {b}"))
    return sorted(found)


def mutate(source: str, site: tuple[tuple[int, int], str, str, str]) -> str:
    (line, column), old, new, _ = site
    lines = source.splitlines(keepends=True)
    text = lines[line - 1]
    lines[line - 1] = text[:column] + new + text[column + len(old):]
    return "".join(lines)


def passes(copy: Path, tests: tuple[str, ...], timeout: float | None) -> bool:
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        result = subprocess.run(command, cwd=copy, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False
    return result.returncode == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", type=Path, help="a module under src/fairaudit")
    parser.add_argument("--lines", help="comma-separated source lines to mutate")
    args = parser.parse_args(argv)
    module = args.module.resolve().relative_to(ROOT)
    source = (ROOT / module).read_text(encoding="utf-8")
    every = sites(source)
    equivalents = runpy.run_path(str(ROOT / "tests/mutation_equivalents.py"))["EQUIVALENTS"]
    listed = {(line, swap) for name, line, swap, _ in equivalents if name == module.stem}
    lines = source.splitlines()
    chosen = [site for site in every if (lines[site[0][0] - 1].strip(), site[3]) not in listed]
    equivalent = len(every) - len(chosen)
    if args.lines:
        wanted = {int(line) for line in args.lines.split(",")}
        chosen = [site for site in chosen if site[0][0] in wanted]
    own_tests = f"tests/test_{module.stem}.py"
    # the module's own tests, when it has them, then the whole suite
    runs = {own_tests: (own_tests,)} if (ROOT / own_tests).exists() else {}
    runs["the suite"] = ()
    survivors = []
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "repo"
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis")
        shutil.copytree(ROOT, copy, ignore=ignore)
        timeouts = {}
        for name, tests in runs.items():
            start = time.monotonic()
            if not passes(copy, tests, None):
                print(f"{name} fails unmutated; no mutant scored")
                return 2
            timeouts[name] = TIMEOUT_FACTOR * (time.monotonic() - start) + TIMEOUT_FLOOR
        for site in chosen:
            (copy / module).write_text(mutate(source, site), encoding="utf-8")
            killer = next(
                (name for name, tests in runs.items() if not passes(copy, tests, timeouts[name])),
                None,
            )
            if killer is None:
                verdict = "SURVIVED"
                survivors.append(site)
            else:
                verdict = f"killed by {killer}"
            (line, column), _, _, swap = site
            print(f"{module}:{line}:{column + 1}: {swap}: {verdict}", flush=True)
    print(
        f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed "
        f"({equivalent} of the module's listed as equivalent, not run)"
    )
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
