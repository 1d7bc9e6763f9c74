"""Every module-level function, class and constant in src/holodet is
reached from what runs: module top-level code, the command line, the
package exports, the acceptance gate and the benchmark.  Code that only
tests call lives with those tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _parse(path):
    """The module's tree with its docstrings removed."""
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *DEFS)) and ast.get_docstring(node) is not None:
            node.body = node.body[1:]
    return tree


def _names(node, strings=False):
    """Names, attributes and imported names under node; with strings, also
    the dotted parts of string constants."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            out.update(part for a in n.names for part in a.name.split("."))
        elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.update(n.value.split("."))
    return out


def unreached():
    """module.name of each src/holodet definition that no root reaches.
    Names match without their module: a definition sharing a reached name
    counts as reached."""
    defs, roots = {}, set()
    for path in sorted((ROOT / "src" / "holodet").glob("*.py")):
        for stmt in _parse(path).body:
            if isinstance(stmt, DEFS):
                names, body = [stmt.name], stmt
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names, body = [t.id for t in targets if isinstance(t, ast.Name)], stmt.value
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                if path.stem == "__init__":
                    roots.update(a.asname or a.name for a in stmt.names)
                continue
            else:
                roots |= _names(stmt)
                continue
            for name in names:
                defs[f"{path.stem}.{name}"] = body
                # the parser reaches every cli definition; __init__ exports its own
                if path.stem in ("cli", "__init__"):
                    roots.add(name)
    for gate in ("test_acceptance.py", "_helpers.py"):
        roots.update(a.asname or a.name for n in ast.walk(_parse(ROOT / "tests" / gate))
                     if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names)
    # the benchmark names the bindings it wraps and probes as strings
    for path in (ROOT / "perfbench").glob("*.py"):
        roots |= _names(_parse(path), strings=True)
    done = set()
    while todo := [q for q in defs if q.split(".", 1)[1] in roots and q not in done]:
        done.update(todo)
        for q in todo:
            roots |= _names(defs[q])
    return sorted(set(defs) - done)


def test_every_src_definition_is_reached():
    missing = unreached()
    assert not missing, "reached by no root: " + ", ".join(missing)
