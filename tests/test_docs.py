"""Cross-references to docstring paragraphs resolve, and names of tests
and test helpers point at code that exists and is used.

A reference reads `see "X"` or `see "X" in <module>`: X is the start of a
paragraph of that module's docstring, or of the referring file's own
module when none is named.
"""

import ast
import functools
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sdnsim"
# Words may be split over comment lines, so "#" counts as white space.
REFERENCE = re.compile(
    r'see[\s#]+"([^"]+)"(?:[\s#]+in[\s#]+`?(\w+)(?:\.py)?`?)?')
SOURCES = [ROOT / "README.md", *sorted(PACKAGE.glob("*.py"))]


def _paragraphs(module: str) -> list[str]:
    """The paragraphs of the module's docstring, whitespace collapsed."""
    path = PACKAGE / f"{module}.py"
    doc = ast.get_docstring(ast.parse(path.read_text(encoding="utf-8"))) or ""
    return [" ".join(part.split()) for part in re.split(r"\n\s*\n", doc)]


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: path.name)
def test_every_reference_names_a_paragraph(source):
    own = source.stem if source.suffix == ".py" else None
    text = source.read_text(encoding="utf-8")
    unresolved = []
    for match in REFERENCE.finditer(text):
        title = re.sub(r"[\s#]+", " ", match[1])
        module = match[2] or own
        known = module is not None and (PACKAGE / f"{module}.py").is_file()
        if not (known and any(paragraph.startswith(title)
                              for paragraph in _paragraphs(module))):
            line = text.count("\n", 0, match.start()) + 1
            unresolved.append((line, title, module))
    assert unresolved == []


@pytest.mark.parametrize("source", ["README.md", "src/sdnsim/kernel.py"])
def test_references_are_found(source):
    assert REFERENCE.search((ROOT / source).read_text(encoding="utf-8"))


# A test named in prose: test_x or TestX, not followed by "." (a file name
# such as test_docs.py).
NAMED_TEST = re.compile(r"\b(test_\w+|Test[A-Z]\w*)\b(?!\.)")
NAMING = [ROOT / "README.md", ROOT / "ROADMAP.md",
          *sorted(PACKAGE.glob("*.py"))]


@functools.cache
def _defined_tests() -> frozenset[str]:
    """Every test_ function and Test class defined under tests/ or bench/."""
    names = set()
    for path in [*ROOT.glob("tests/*.py"), *ROOT.glob("bench/*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
    return frozenset(names)


@pytest.mark.parametrize("source", NAMING, ids=lambda path: path.name)
def test_every_named_test_exists(source):
    defined = _defined_tests()
    text = source.read_text(encoding="utf-8")
    missing = sorted({match[1] for match in NAMED_TEST.finditer(text)}
                     - defined)
    assert missing == []


def test_every_test_helper_is_named_again():
    """A module-level function, class or fixture under tests/ that is no
    test is named somewhere besides its definition, so that retiring a
    test leaves none of its helpers behind."""
    texts = [path.read_text(encoding="utf-8")
             for path in sorted(ROOT.glob("tests/*.py"))]
    helpers = {node.name for text in texts for node in ast.parse(text).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith(("test_", "Test"))}
    orphans = sorted(name for name in helpers
                     if sum(len(re.findall(rf"\b{name}\b", text))
                            for text in texts) < 2)
    assert orphans == []
