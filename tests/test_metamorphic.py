"""Metamorphic gate: one export, spelled two ways, gives one report.

A small random export is written once plainly (comma-separated, "\\n" line
ends, no quotes, no byte-order mark) and once under one relation that a
real export may differ by: "\\r\\n" line ends, every cell quoted (so every
block goes through csv.reader rather than the comma split), a UTF-8
byte-order mark, an extra unbound column, the columns in another order, or
the same bytes read in blocks of a few characters. Both go through
``fairaudit audit`` with the same flags, JSON or Markdown, with or without
``--bootstrap``, and the exit code, stdout and stderr must be the same
bytes once the echoed input path is replaced. Cells are sometimes padded
with spaces, scores sometimes blank, outcomes sometimes blank (a dropped
record) and covariate cells sometimes blank (imputed or dropped).
Duplicated records and another row order are not relations here: the
first changes every count, the second the order floats add in.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairaudit.dataset as dataset_module
from fairaudit.cli import main

HEADER = ("y", "g", "d", "s", "x")
LABELS = ("a", "b", "c")
# Every criterion, or a few whose bootstrap rarely meets an undefined resample
CRITERIA = ("all", "statistical_parity,overall_accuracy,brier_parity,well_calibration")
RELATIONS = ("crlf", "quoted", "bom", "extra_column", "reordered", "blocks")


def export(rng: random.Random) -> tuple[list[str], list[tuple[str, ...]]]:
    """The header and cell rows of an export, 10 to 24 records in each group.

    The cells come from a seeded generator rather than one draw each, which
    hypothesis would lean towards all-zero columns. Decisions and scores
    lean towards the outcome, so that many bootstrap runs keep every
    resample and give intervals rather than exit 2 (about 40% here).
    """
    group = [label for label in LABELS[: rng.randint(2, 3)] for _ in range(rng.randint(10, 24))]
    rng.shuffle(group)

    def padded(cell: str) -> str:  # the loader strips the spaces
        return rng.choice([cell, cell, f" {cell}", f"{cell} "])

    rows = []
    for label in group:
        y = rng.randint(0, 1)
        d = 1 - y if rng.random() < 0.3 else y
        score = rng.randint(0, 4) / 8 if y == 0 else rng.randint(3, 8) / 8
        rows.append(
            (
                "" if rng.random() < 0.05 else padded(str(y)),  # a blank outcome drops the record
                padded(label),
                padded(str(d)),
                "" if rng.random() < 0.03 else padded(str(score)),
                "" if rng.random() < 0.07 else padded(str(rng.randint(0, 9))),
            )
        )
    return list(HEADER), rows


def spelled(header, rows, *, end="\n", quoted=False, bom=False) -> str:
    def cell(text: str) -> str:
        return '"' + text.replace('"', '""') + '"' if quoted else text

    lines = (",".join(map(cell, row)) + end for row in [header, *rows])
    return ("\ufeff" if bom else "") + "".join(lines)


def audit(directory: str, text: str, flags: list[str], block_chars: int | None = None):
    """Exit code, stdout and stderr of an audit of ``text``, the input path replaced."""
    path = os.path.join(directory, "export.csv")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        if block_chars is not None:
            patch.setattr(dataset_module, "_BLOCK_CHARS", block_chars)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["audit", "--input", path, *flags])
    return code, out.getvalue().replace(path, "INPUT"), err.getvalue().replace(path, "INPUT")


# 17 examples for each of the 6 relations: 102 in all
@pytest.mark.parametrize("relation", RELATIONS)
@settings(max_examples=17)
@given(st.integers(0, 2**32 - 1), st.data(), st.sampled_from(["json", "markdown"]), st.booleans())
def test_one_export_spelled_two_ways_gives_one_report(relation, seed, data, fmt, bootstrap):
    # each relation draws the same seeds, so the relation joins the seed
    header, rows = export(random.Random(f"{relation}:{seed}"))
    plain = spelled(header, rows)
    block_chars = None
    if relation == "crlf":
        text = spelled(header, rows, end="\r\n")
    elif relation == "quoted":
        text = spelled(header, rows, quoted=True)
    elif relation == "bom":
        text = spelled(header, rows, bom=True)
    elif relation == "extra_column":
        at = data.draw(st.integers(0, len(header)))
        extra = st.sampled_from(["icu", "med", "7", "0.5"])
        cells = data.draw(st.lists(extra, min_size=len(rows), max_size=len(rows)))
        text = spelled(
            header[:at] + ["z"] + header[at:],
            [row[:at] + (cell,) + row[at:] for row, cell in zip(rows, cells)],
        )
    elif relation == "reordered":
        order = data.draw(st.permutations(range(len(header))))
        text = spelled([header[j] for j in order], [tuple(row[j] for j in order) for row in rows])
    else:
        text, block_chars = plain, data.draw(st.sampled_from([1, 2, 5, 17, 64]))

    criteria, cut = data.draw(st.sampled_from(CRITERIA)), data.draw(st.integers(0, 5))
    flags = [
        "--outcome", "y", "--group", "g", "--decision", "d", "--score", "s",
        "--criteria", criteria, "--meta", "--condition", f"c=x >= {cut}",
        "--bins", "2", "--min-bin-count", "2", "--epsilon", "0.1", "--format", fmt,
    ]
    if bootstrap:
        flags += ["--bootstrap", "20", "--seed", "3"]
    with tempfile.TemporaryDirectory() as left, tempfile.TemporaryDirectory() as right:
        assert audit(right, text, flags, block_chars) == audit(left, plain, flags)
