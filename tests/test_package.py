"""The package's public surface and the hygiene of its imports."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import fairaudit

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "fairaudit").glob("*.py"))


def imported_names(tree: ast.Module) -> list[str]:
    """The names a module's import statements bind, ``__future__`` aside."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def annotation_strings(tree: ast.Module) -> list[str]:
    """The string parts of every annotation, such as ``-> "AuditDataset"``."""
    strings = []
    for node in ast.walk(tree):
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if annotation is not None:
                strings += [
                    part.value
                    for part in ast.walk(annotation)
                    if isinstance(part, ast.Constant) and isinstance(part.value, str)
                ]
    return strings


def exported_names(tree: ast.Module) -> list[str]:
    """The module's ``__all__`` entries; a re-export counts as a use."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "__all__" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def used_names(tree: ast.Module) -> set[str]:
    """Every name a module reads, in code, in string annotations and in ``__all__``."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for text in annotation_strings(tree):
        parsed = ast.parse(text, mode="eval")
        names |= {node.id for node in ast.walk(parsed) if isinstance(node, ast.Name)}
    return names | set(exported_names(tree))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = sorted(set(imported_names(tree)) - used_names(tree))
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


def test_string_annotations_count_as_uses():
    tree = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from .dataset import AuditDataset\n"
        "def mask(dataset: 'AuditDataset') -> None: ...\n"
    )
    assert set(imported_names(tree)) <= used_names(tree)
    assert imported_names(ast.parse("import os\n")) == ["os"]
    assert "os" not in used_names(ast.parse("import os\n"))


def readme_public_names() -> list[str]:
    """The backticked names under README's "Public names" heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n### Public names\n", 1)[1].split("\n#", 1)[0]
    return re.findall(r"`(\w+)`", section)


def test_all_has_no_duplicates_and_every_entry_resolves():
    assert len(set(fairaudit.__all__)) == len(fairaudit.__all__)
    missing = [name for name in fairaudit.__all__ if not hasattr(fairaudit, name)]
    assert missing == []


def test_all_matches_the_readme_list():
    listed = readme_public_names()
    assert len(set(listed)) == len(listed)
    assert sorted(listed) == sorted(fairaudit.__all__)
