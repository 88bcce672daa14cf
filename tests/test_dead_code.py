"""No public function or method of the library goes unused, and the README
names no error class that is gone and maps exactly verify-all's claims.

Every public module-level function of src/cubicgeom, and every public method
of its public classes, must be referenced by name somewhere in src/ outside
its own definition: one that only tests/ reference is test code, and lives
in the test module that uses it.
"""

import ast
import re
from collections import Counter
from pathlib import Path

from cubicgeom import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cubicgeom"


def _names(node):
    """Every name that node references: variables, attributes, imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def _public_defs(tree):
    """(qualified name, def node) for public functions and public methods."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item


def test_every_public_function_is_referenced():
    used = {folder: Counter(name for path in sorted((ROOT / folder).rglob("*.py"))
                            for name in _names(ast.parse(path.read_text())))
            for folder in ("src", "tests")}
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for qualname, node in _public_defs(ast.parse(path.read_text())):
            own = Counter(_names(node))[node.name]
            if used["src"][node.name] == own:
                by = "only tests" if used["tests"][node.name] else "nothing"
                unused.append(f"{path.relative_to(ROOT)}: {qualname} ({by})")
    assert not unused, "unreferenced in src:\n" + "\n".join(unused)


def test_readme_names_only_existing_errors():
    defined = {node.name
               for path in PACKAGE.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef)}
    named = set(re.findall(r"\b[A-Z]\w*Error\b",
                           (ROOT / "README.md").read_text()))
    assert named, "the README names no error class"
    assert not named - defined, f"not in cubicgeom: {sorted(named - defined)}"


def test_readme_claim_map_matches_the_claims():
    # a row per claim key, in order, each naming a test that exists
    rows = re.findall(r"^\| `(\w+)` \|.*\| `(test_\w+\.py)::(test_\w+)` \|$",
                      (ROOT / "README.md").read_text(), re.M)
    assert [key for key, _, _ in rows] == [key for key, *_ in cli.claims()]
    for _, module, name in rows:
        tree = ast.parse((ROOT / "tests" / module).read_text())
        assert name in {node.name for node in tree.body
                        if isinstance(node, ast.FunctionDef)}, (module, name)
