"""Mutation testing for one module of ``src/fairaudit``, standard library only.

    python tests/mutation.py src/fairaudit/metrics.py [--lines L,L]

A mutant swaps one operator of the module: ``<``/``<=``, ``>``/``>=``,
``==``/``!=``, ``+``/``-`` or ``*``/``/``, each way. The sites are every
such comparison and binary operation (before Python 3.12, outside an
f-string), in source order; ``--lines`` keeps those on the given lines.
Each mutant is written into a temporary copy of the repository, never
into the checkout. The module's own tests (``tests/test_<module>.py``)
run first; a mutant they miss runs the whole suite, and a mutant that
passes that too survives. Prints one line per mutant and the score;
exits 1 when any survives.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import shutil
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SWAPS = {
    ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="), ast.Add: ("+", "-"), ast.Sub: ("-", "+"),
    ast.Mult: ("*", "/"), ast.Div: ("/", "*"),
}
TIMEOUT = 300  # seconds; a mutant whose tests run longer (say, loop forever) counts as killed


def sites(source: str) -> list[tuple[tuple[int, int], str, str]]:
    """Every swappable operator token: its (line, column), text and replacement."""
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
            found.append((between[0], old, new))
    return sorted(found)


def mutate(source: str, site: tuple[tuple[int, int], str, str]) -> str:
    (line, column), old, new = site
    lines = source.splitlines(keepends=True)
    text = lines[line - 1]
    lines[line - 1] = text[:column] + new + text[column + len(old):]
    return "".join(lines)


def passes(copy: Path, *tests: str) -> bool:
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        result = subprocess.run(command, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT)
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
    chosen = sites(source)
    if args.lines:
        wanted = {int(line) for line in args.lines.split(",")}
        chosen = [site for site in chosen if site[0][0] in wanted]
    own_tests = f"tests/test_{module.stem}.py"
    survivors = []
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "repo"
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis")
        shutil.copytree(ROOT, copy, ignore=ignore)
        for site in chosen:
            (copy / module).write_text(mutate(source, site), encoding="utf-8")
            if (copy / own_tests).exists() and not passes(copy, own_tests):
                verdict = f"killed by {own_tests}"
            elif not passes(copy):
                verdict = "killed by the suite"
            else:
                verdict = "SURVIVED"
                survivors.append(site)
            (line, column), old, new = site
            print(f"{module}:{line}:{column + 1}: {old} -> {new}: {verdict}", flush=True)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
