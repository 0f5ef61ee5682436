"""Rules the package source keeps, checked on its syntax trees."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "plcsynth").glob("*.py"))


def test_sources_found():
    assert len(SOURCES) > 1


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_bare_assert(path):
    # `python -O` strips assert statements, so an invariant must raise
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dataclasses(path):
    # value classes are `blocks.Record`s; `dataclasses` costs the command
    # line's cold start about a millisecond per class
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
             or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"]
    assert lines == [], f"{path.name}: dataclasses imported at lines {lines}"


def test_slot_operators_declared_once():
    # the slot operators are named by their expression classes, in one
    # table whose order is the templates' operator order
    from plcsynth import engine
    from plcsynth.blocks import And, Const, Not, Or, Var, Xor

    tree = ast.parse(Path(engine.__file__).read_text(encoding="utf-8"))
    tags = {"input", "const", "not", "and", "or", "xor"}
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and node.value in tags]
    assert found == [], f"engine.py: string operator tags at lines {found}"
    assert list(engine._OPERATORS) == [Var, Const, Not, And, Or, Xor]


def test_one_unsatisfiable_site():
    # every contradiction is found and worded in one place, so `check` and
    # every op report the same point and constraints
    calls = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Unsatisfiable"]
    assert len(calls) == 1, f"Unsatisfiable is constructed at {calls}"


def _sites(tree: ast.AST, match) -> list[str]:
    """Qualified names of the functions holding each node `match` accepts."""
    found: list[str] = []

    def walk(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                walk(child, (*scope, child.name))
                continue
            if match(child):
                found.append(".".join(scope))
            walk(child, scope)

    walk(tree, ())
    return found


def _calls_by_function(tree: ast.AST, name: str) -> list[str]:
    """Qualified names of the functions holding each call of `name`."""
    return _sites(tree, lambda node: isinstance(node, ast.Call) and
                  getattr(node.func, "id", getattr(node.func, "attr", None)) == name)


def test_solver_built_in_two_places():
    # one bounded checker and the slot templates hold every solver the
    # package builds; sat.py defines the solver and its one-shot `solve`
    sites = [f"{path.stem}.{site}" for path in SOURCES if path.name != "sat.py"
             for site in _calls_by_function(ast.parse(path.read_text(encoding="utf-8")),
                                            "CdclSolver")]
    assert sorted(sites) == ["engine._SlotTemplate.__init__", "engine._unroll"]


def test_operands_read_by_few_functions():
    # every structural walk of an expression is a `fold_expr`; the
    # reference simulator, the NOT constructor and the printers read
    # operands themselves
    allowed = {"blocks.fold_expr", "blocks.eval_expr", "engine._not", "lang._format",
               "lang._compile_il_expr"}
    sites = {f"{path.stem}.{site}" for path in SOURCES
             for site in _sites(ast.parse(path.read_text(encoding="utf-8")),
                                lambda node: isinstance(node, ast.Attribute) and
                                node.attr in ("operand", "left", "right"))}
    assert sites <= allowed, f"operands read in {sorted(sites - allowed)}"


def test_one_out_of_rounds_rule():
    # a CEGIS run that runs out of rounds returns its caller's known
    # program or, without one, raises in one place for every op
    sites = [f"{path.stem}.{site}" for path in SOURCES
             for site in _calls_by_function(ast.parse(path.read_text(encoding="utf-8")),
                                            "SizeBoundExceeded")]
    assert sites == ["engine._run_cegis"]


def test_one_written_block_check():
    # synthesize and simplify write their blocks through one driver, which
    # checks the block against the whole spec; the other checks are the
    # CEGIS loop's and repair's test of the original
    from plcsynth import engine

    tree = ast.parse(Path(engine.__file__).read_text(encoding="utf-8"))
    assert sorted(_calls_by_function(tree, "_find_violation")) == [
        "_minimal_edit_synthesis", "_run_cegis", "_synthesis_driver"]


def test_engine_evaluates_no_point_recursively():
    # spec clauses are read through truth tables (`fold_expr` walks
    # iteratively); `eval_expr` takes a Python stack frame per level
    from plcsynth import engine

    tree = ast.parse(Path(engine.__file__).read_text(encoding="utf-8"))
    assert _calls_by_function(tree, "eval_expr") == []


# Defined for callers outside the package (tests, README, the benchmark's
# tracer) and referenced nowhere in it.
LIBRARY_API = {"blocks.expr_size", "constraints.instantiate_template",
               "constraints.save_constraints", "sat.solve", "sat.to_dimacs",
               "sat.TseitinEncoder.assert_true"}


def _definitions(node: ast.AST, scope: tuple[str, ...] = (), in_class: bool = False):
    """(qualified name, node, whether it is a method) of every function
    and class under `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield ".".join((*scope, child.name)), child, in_class
            yield from _definitions(child, (*scope, child.name), isinstance(child, ast.ClassDef))
        else:
            yield from _definitions(child, scope)


def test_every_definition_referenced():
    # a function, class or method that nothing in the package names is
    # dead unless it is library API.  A function or class is named by a
    # name or an import (the package reaches no module of its own through
    # an attribute), a method by an attribute only.  Dunders are called
    # by Python, `__post_init__` from the text `Record` compiles
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    references: dict[tuple[str, bool], list[tuple[str, int]]] = {}
    for stem, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                references.setdefault((name, isinstance(node, ast.Attribute)), []).append(
                    (stem, node.lineno))
    unreferenced = {f"{stem}.{qualified}" for stem, tree in trees.items()
                    for qualified, node, method in _definitions(tree)
                    if not (node.name.startswith("__") and node.name.endswith("__"))
                    and all(where == stem and node.lineno <= line <= node.end_lineno
                            for where, line in references.get((node.name, method), ()))}
    assert unreferenced == LIBRARY_API, (
        f"referenced nowhere in the package: {sorted(unreferenced - LIBRARY_API)}; "
        f"listed as library API but referenced or gone: {sorted(LIBRARY_API - unreferenced)}")
