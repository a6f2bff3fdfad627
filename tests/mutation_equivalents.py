"""Operator swaps that change nothing the program does, which ``tests/mutation.py`` does not run.

Each entry is (module, the stripped source line, the swap as ``tests/mutation.py``
writes it, why it changes nothing). The line is named by its text, not its number,
so an entry outlives edits elsewhere in the module and lapses when its line changes.
"""

EQUIVALENTS = [
    (
        "dataset",
        "if len(pieces) == 64:",
        "len(pieces) == 64 -> len(pieces) != 64",
        "joining the pieces on every append instead gives the same arrays",
    ),
    (
        "dataset",
        r'if quoted or (len(text) > limit and max(map(len, text.split("\n"))) > limit):',
        "len(text) > limit -> len(text) >= limit",
        "a block of exactly limit characters cannot hold a line longer than limit",
    ),
    (
        "dataset",
        r'if quoted or (len(text) > limit and max(map(len, text.split("\n"))) > limit):',
        r'max(map(len, text.split("\n"))) > limit -> max(map(len, text.split("\n"))) >= limit',
        "csv and the comma path both accept a cell of exactly limit characters",
    ),
]
