"""The package's surface: no top-level code that nothing in the package
calls, and an export list that resolves."""
import ast
from pathlib import Path

import pvashape

SRC = Path(__file__).resolve().parent.parent / "src" / "pvashape"

# Top-level names that nothing in src/ calls, each kept for a stated reason.
ALLOWED_UNREFERENCED = {
    "cli.main": "entry point of the `pvashape` console script",
    "distance.psd": "one-row match that perfbench/run.py's self-match check calls",
    "model.gradients": "the analytic gradients acceptance criterion 5 checks",
}


def _trees():
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SRC.glob("*.py"))}


def _is_main_guard(node):
    return (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
            and isinstance(node.test.left, ast.Name) and node.test.left.id == "__name__")


def _used_names(node, modules):
    """Names read under ``node``, plus ``module.name`` attributes of the
    package's own modules. An ``if __name__ == "__main__"`` block is an
    outside caller, and imports and ``__all__`` strings are not uses."""
    if _is_main_guard(node):
        return
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield node.id
    elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
          and node.value.id in modules):
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _used_names(child, modules)


def _callers():
    """``{name: "module.name"}`` of every top-level definition, and for each
    name read anywhere, the definitions reading it (None for module-level
    code). A definition reading its own name is not its own caller."""
    trees = _trees()
    defs, callers = {}, {}
    for module, tree in trees.items():
        for node in tree.body:
            owner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            if owner is not None:
                assert owner not in defs, f"{owner} defined twice; names resolve bare here"
                defs[owner] = f"{module}.{owner}"
            for used in set(_used_names(node, trees)) - {owner}:
                callers.setdefault(used, set()).add(owner)
    return defs, callers


def test_every_top_level_definition_is_used_in_the_package():
    # reached from module-level code or an allowed entry, directly or
    # through other reached definitions
    defs, callers = _callers()
    reached = {None} | {name for name, full in defs.items() if full in ALLOWED_UNREFERENCED}
    while True:
        new = {name for name in defs
               if name not in reached and callers.get(name, set()) & reached}
        if not new:
            break
        reached |= new
    unused = sorted(full for name, full in defs.items() if name not in reached)
    assert unused == [], f"defined in src/ but called only from outside it: {unused}"


def test_allow_list_names_only_unreferenced_definitions():
    # an entry whose definition is gone or now has a caller in src/ is stale
    defs, callers = _callers()
    stale = [full for full in ALLOWED_UNREFERENCED
             if full not in defs.values() or callers.get(full.split(".")[1])]
    assert stale == []


def test_every_exported_name_resolves():
    missing = [name for name in pvashape.__all__ if not hasattr(pvashape, name)]
    assert missing == []
    assert len(set(pvashape.__all__)) == len(pvashape.__all__)
