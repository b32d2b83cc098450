"""Checks on the program's source text."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _reads(node) -> Counter:
    """How often each name is read under ``node``: loaded as a variable,
    read as an attribute, or imported by name."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            out.update(alias.name for alias in n.names)
    return out


def _definitions(tree):
    """(name, node) for each top-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            yield from ((t.id, node) for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def test_every_top_level_name_is_read_by_the_program():
    # A helper only tests read belongs in the tests; one nothing reads goes.
    package = [ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "unlearn").glob("*.py"))]
    perfbench = [ast.parse(p.read_text()) for p in sorted((ROOT / "perfbench").glob("*.py"))]
    reads = sum((_reads(tree) for tree in package + perfbench), Counter())
    defined: dict[str, list] = {}
    for tree in package:
        for name, node in _definitions(tree):
            if not (name.startswith("__") and name.endswith("__")):
                defined.setdefault(name, []).append(node)
    unread = sorted(
        name
        for name, nodes in defined.items()
        if reads[name] == sum(_reads(node)[name] for node in nodes)
    )
    assert unread == [], f"top-level names no program code reads: {', '.join(unread)}"


def test_only_serialize_reads_and_writes_state_files():
    # StateDir owns the state directory's envelopes, their versions and
    # the order of the writes: other modules go through it.
    owned = {"read_json", "atomic_write_json", "atomic_write_bytes",
             "VERSION", "UPDATE_PROOF_VERSION", "PARAMS_VERSION"}
    offenders = {
        path.stem: sorted(owned & set(_reads(ast.parse(path.read_text()))))
        for path in sorted((ROOT / "src" / "unlearn").glob("*.py"))
        if path.stem != "serialize"
    }
    assert {m: names for m, names in offenders.items() if names} == {}
