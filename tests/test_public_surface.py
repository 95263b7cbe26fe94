"""Every public function and class has a user in the pipeline.

A public module-level function or class in src/promo_gym must be named by
some other code in src/promo_gym or in benchmarks/. A name only tests call
is surface without a user: delete it, or add it to KEPT with the reason it
stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "promo_gym"

KEPT = {
    # acceptance criterion 8: every CSV schema round-trips through its writer
    "write_promo_plan",
    "write_transactions",
    # the manifest round-trip property writes with it, and a run report
    # is to record the resolved manifest
    "manifest_to_json",
}


def _public_definitions() -> dict[str, str]:
    """Public module-level function and class name -> its module."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                found[node.name] = path.stem
    return found


def _names_used() -> set[str]:
    """Every name and attribute referred to in src/promo_gym and benchmarks/;
    a def or class statement names nothing here."""
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "benchmarks").glob("*.py")]
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


def test_every_public_name_has_a_user():
    used = _names_used() | KEPT
    unused = sorted(f"{module}.{name}" for name, module in _public_definitions().items()
                    if name not in used)
    assert unused == []


def test_kept_names_are_still_defined():
    assert KEPT <= set(_public_definitions())
