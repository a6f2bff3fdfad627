"""Random small CSVs and flag sets through main(): the exit-code contract.

Every run ends in exit 0 with a clean stderr and a schema-valid report,
or in exit 1 (input) or 2 (computation) with one ``fairaudit: `` line on
stderr. Any exception or warning that escapes fails the run, since the
suite turns warnings into errors.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

import jsonschema
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit import load_report_schema
from fairaudit.cli import main

HEADER = ("y", "g", "s", "d", "age", "ward")

# Well-formed cells (blanks make a row droppable, not the file invalid) and,
# for one cell in some files, a malformed value the loader must reject.
VALID = {
    "y": ["0", "1"],
    "g": ["a", "b", "c"],
    "s": ["0.1", "0.35", "0.5", "0.8", "0.95", ""],
    "d": ["0", "1", ""],
    "age": ["25", "61", "70", "44", ""],
    "ward": ["icu", "med", "med", ""],
}
MALFORMED = {
    "y": ["2", "yes", ""],
    "g": [""],
    "s": ["1.5", "-0.2", "nan", "x"],
    "d": ["0.5", "no"],
    "age": ["old"],
    "ward": ['"icu'],  # an unterminated quote
}

SCHEMA = load_report_schema()


@st.composite
def csv_texts(draw) -> str:
    n = draw(st.integers(1, 12))
    rows = [[draw(st.sampled_from(VALID[name])) for name in HEADER] for _ in range(n)]
    damage = draw(st.sampled_from(["none"] * 4 + ["cell", "short", "long"]))
    i = draw(st.integers(0, n - 1))
    if damage == "cell":
        j = draw(st.integers(0, len(HEADER) - 1))
        rows[i][j] = draw(st.sampled_from(MALFORMED[HEADER[j]]))
    elif damage == "short":
        rows[i] = rows[i][: draw(st.integers(1, len(HEADER) - 1))]
    elif damage == "long":
        rows[i].append(draw(st.sampled_from(["", "extra"])))
    return "\n".join(",".join(row) for row in [list(HEADER), *rows]) + "\n"


def maybe(draw, flag: str, good: list[str], bad: list[str]) -> list[str]:
    """Half the time the flag is absent; an invalid value is rare."""
    if draw(st.booleans()):
        return [flag, draw(st.sampled_from(good * 4 + bad))]
    return []


@st.composite
def argvs(draw) -> list[str]:
    command = draw(st.sampled_from(["audit", "meta", "diagnose"]))
    argv = [command, "--outcome", "y", "--group", "g"]
    binding = draw(st.sampled_from(["score", "decision", "both"]))
    if binding in ("score", "both"):
        argv += ["--score", "s"]
    if binding in ("decision", "both"):
        argv += ["--decision", "d"]
    if binding == "score" or draw(st.booleans()):
        argv += ["--threshold", draw(st.sampled_from(["0.5", "0.3", "0", "1"] * 4 + ["1.5"]))]
    argv += ["--format", draw(st.sampled_from(["json", "markdown"]))]
    if command == "audit":
        if draw(st.booleans()):
            argv += ["--bootstrap", str(draw(st.integers(2, 20)))]
        criteria = ["default", "all", "statistical_parity,brier_parity"]
        argv += maybe(draw, "--criteria", criteria, ["bogus"])
        expressions = ["age >= 60", "ward == 'icu'"] * 4 + ["age >>", "nosuch > 1"]
        for name in ("old", "icu")[: draw(st.integers(0, 2))]:
            expr = draw(st.sampled_from(expressions))
            argv += ["--condition", f"{name}={expr}"]
        argv += maybe(draw, "--epsilon", ["0.05", "0.5"], ["0", "-1"])
        argv += maybe(draw, "--bins", ["2", "5"], ["1"])
        argv += maybe(draw, "--min-bin-count", ["1", "3"], ["0"])
        argv += maybe(draw, "--reference", ["a", "b"], ["z"])
        if draw(st.booleans()):
            argv.append("--meta")
    elif command == "meta":
        argv += maybe(draw, "--metric", ["positive_rate", "fpr", "brier_score"], ["bogus"])
        argv += maybe(draw, "--kind", ["max_min_diff", "generalized_entropy"], ["bogus"])
    else:
        argv += maybe(draw, "--level", ["0.05", "0.5"], ["1"])
    return argv


@settings(max_examples=200)
@given(text=csv_texts(), argv=argvs())
def test_main_keeps_the_exit_code_contract(text, argv):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "input.csv")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--input", path])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
        if "json" in argv:
            jsonschema.validate(json.loads(out), SCHEMA)
        else:
            assert out.startswith("#")
    else:
        assert out == ""
        assert err.startswith("fairaudit: ") and err.count("\n") == 1 and err.endswith("\n")
