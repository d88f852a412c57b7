"""Every name a package module imports is read somewhere in that module,
and every name a package module defines is read somewhere."""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "limsupgames"


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            ann = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            ann = node.returns
        else:
            continue
        if ann is not None:
            yield ann


def read_names(tree: ast.Module) -> set:
    """Names loaded anywhere, including inside string annotations, plus the
    names a module re-exports through __all__."""
    names = {n.id for n in ast.walk(tree)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for ann in annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                inner = ast.parse(node.value, mode="eval")
                names |= {n.id for n in ast.walk(inner)
                          if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            names |= set(ast.literal_eval(node.value))
    return names


def imported_names(tree: ast.Module) -> list:
    out = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            out += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [a.asname or a.name for a in node.names]
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = sorted(set(imported_names(tree)) - read_names(tree))
    assert not unused, f"{path.name} imports but never reads {unused}"


def defined_names(tree: ast.Module) -> list:
    """Module-level defs, classes and assigned names, dunders aside."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            out.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            out += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in out if not (n.startswith("__") and n.endswith("__"))]


def test_every_defined_name_is_read():
    # read by some package module (as a name or an attribute), listed in
    # __all__, or named by the benchmark, which binds package names by text
    read = set()
    defined = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read |= read_names(tree)
        read |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        defined += [f"{path.stem}.{n}" for n in defined_names(tree)]
    for path in (ROOT / "perfbench").glob("*.py"):
        read |= set(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    dead = [d for d in defined if d.split(".", 1)[1] not in read]
    assert not dead, f"defined but never read: {dead}"


# The @dataclass classes left in src, each with why it is not a NamedTuple.
# A dataclass costs about 1 ms of exec-generated code at every import, so a
# new one has to be argued for here.
DATACLASSES = {
    "dyadic.Dyadic": "the benchmark tracer patches __post_init__ to count "
                     "constructions; validated and normalized there",
    "dyadic.ExtValue": "the benchmark tracer patches __post_init__ to count "
                       "constructions; validated there",
    "trees.TreeSpec": "the benchmark tracer rebuilds it with "
                      "dataclasses.replace",
    "families.GridLscFamily": "the benchmark tracer rebuilds it with "
                              "dataclasses.replace",
    "trees.EventuallyPeriodicBranch": "validated in __post_init__",
    "automata.NodeAutomaton": "validated in __post_init__",
    "games.FiniteValueSet": "validated and normalized in __post_init__",
    "games.GameKind": "validated in __post_init__",
    "cli.ExperimentConfig": "validated in __post_init__, also on the "
                            "replace of command-line overrides",
}


def is_dataclass_decorator(node: ast.expr) -> bool:
    if isinstance(node, ast.Call):
        node = node.func
    return isinstance(node, ast.Name) and node.id == "dataclass"


def test_only_argued_dataclasses_remain():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found |= {f"{path.stem}.{node.name}" for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef)
                  and any(map(is_dataclass_decorator, node.decorator_list))}
    assert found == set(DATACLASSES), (
        f"unlisted: {sorted(found - set(DATACLASSES))}, "
        f"no longer dataclasses: {sorted(set(DATACLASSES) - found)}")
