"""The docs cannot drift from the source tree.

DESIGN §5 draws every module under ``src/repro/``, and §2's inventory
names subsystems by dotted module.  Every module must appear in one of
the two, every module §5 draws must exist, and so must every
``src/repro`` path that DESIGN, README or EXPERIMENTS.md names.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
DOCS = ("DESIGN.md", "README.md", "EXPERIMENTS.md")


def _design_section(number: int) -> str:
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    match = re.search(rf"^## {number}\. .*?(?=^## |\Z)", text, re.M | re.S)
    assert match, f"DESIGN.md has no section {number}"
    return match.group(0)


def _modules() -> set:
    """Every module under src/repro/, as a path relative to it."""
    return {path.relative_to(PACKAGE).as_posix() for path in PACKAGE.rglob("*.py")}


def _layout() -> set:
    """The modules §5's drawing names, relative to src/repro/.

    In the drawing, a line whose first token ends in ``/`` opens a
    package (its ``__init__.py`` comes with the name), deeper-indented
    lines continue it, and a line indented like the packages without
    one holds top-level modules; ``*.py`` tokens are the modules.  The
    drawing of ``src/repro/`` ends at the next unindented line."""
    lines = _design_section(5).split("```")[1].splitlines()
    paths, package = set(), ""
    for line in lines[lines.index("src/repro/") + 1:]:
        if not line.startswith(" "):
            break
        tokens = line.split()
        if tokens[0].endswith("/"):
            package = tokens.pop(0)
            paths.add(package + "__init__.py")
        elif len(line) - len(line.lstrip()) == 2:
            package = ""
        paths.update(package + token for token in tokens if token.endswith(".py"))
    return paths


def _inventory() -> set:
    """The modules §2's inventory names as ``repro.x.y``."""
    paths = set()
    for name in re.findall(r"`repro\.([\w.]+)`", _design_section(2)):
        path = name.replace(".", "/")
        package = PACKAGE / path
        paths.add(f"{path}/__init__.py" if package.is_dir() else f"{path}.py")
    return paths


def test_every_module_is_in_the_design():
    missing = sorted(_modules() - _layout() - _inventory())
    assert not missing, f"modules missing from DESIGN §5 and §2: {missing}"


def test_layout_names_only_existing_modules():
    stale = sorted(_layout() - _modules())
    assert not stale, f"DESIGN §5 draws modules that do not exist: {stale}"


@pytest.mark.parametrize("doc", DOCS)
def test_src_paths_in_docs_exist(doc):
    text = (ROOT / doc).read_text(encoding="utf-8")
    paths = set(re.findall(r"src/repro(?:/[\w.]+)*", text))
    stale = sorted(path for path in paths if not (ROOT / path).exists())
    assert not stale, f"{doc} names paths that do not exist: {stale}"
