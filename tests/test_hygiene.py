"""Source hygiene: every name a module imports is used in that module, every
private module-level function or class is used somewhere, every local
a function assigns and every parameter it takes is read, every CLI flag
is read by its subcommand's handler, only the recurrence table steps
the recurrence and reads its private members, only coefficients reads a
sequence's private members, only named scopes build a table, read
beta_n or refuse exact values, one writer makes JSON text, the only
to_json method is a sparse function's, and only exactnum tests a value for
the exact type."""
import argparse
import ast
import inspect
import pathlib

import pytest

from treejacobi.cli import build_parser

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "treejacobi"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TREES = {p: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}


def _unused_imports(path: pathlib.Path) -> list:
    tree = TREES[path]
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path) == []


def _references(node, skip):
    """Names and attribute names used under node, not counting inside skip."""
    if node is skip:
        return
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _references(child, skip)


def _unreferenced_private_defs(path: pathlib.Path) -> list:
    out = []
    for node in TREES[path].body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name.startswith("_") and not node.name.startswith("__")):
            if not any(node.name in _references(tree, node)
                       for tree in TREES.values()):
                out.append(f"{node.name} (line {node.lineno})")
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_helper_is_used(path):
    assert _unreferenced_private_defs(path) == []


def _unread_locals(path: pathlib.Path) -> list:
    """Names a function assigns but never reads, nested functions included;
    "_" marks a discard."""
    out = []
    for func in ast.walk(TREES[path]):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, read = {}, set()
        for node in ast.walk(func):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Store):
                    stored.setdefault(node.id, node.lineno)
                else:
                    read.add(node.id)
        out += [f"{func.name}: {name} (line {line})" for name, line in stored.items()
                if name not in read and name != "_"]
    return sorted(set(out))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_local_is_read(path):
    assert _unread_locals(path) == []


def _unread_parameters(path: pathlib.Path) -> list:
    """Parameters a function never reads; self, cls and "_"-prefixed names
    are exempt."""
    out = []
    for func in ast.walk(TREES[path]):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = func.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        body = func.body if isinstance(func.body, list) else [func.body]
        read = {node.id for stmt in body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        name = getattr(func, "name", "<lambda>")
        out += [f"{name}: {p.arg} (line {p.lineno})" for p in params
                if p.arg not in read and p.arg not in ("self", "cls")
                and not p.arg.startswith("_")]
    return sorted(out)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert _unread_parameters(path) == []


def _name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _scopes_where(found) -> list:
    """The scopes ("module.Class.function") of the nodes for which found(node)
    holds, a class or function being in its own scope."""
    out = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}"
        if found(node):
            out.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path, tree in TREES.items():
        visit(tree, path.stem)
    return sorted(out)


def test_only_the_table_steps_the_recurrence():
    # a change to what the table stores then changes one class: every value
    # reaches readers through PolyCache.solution, from the one float stepper
    # (_float_solution) or the one formula that reads the rows of poly_pairs
    # (_exact_solution)
    loads = _scopes_where(lambda node: _name(node) == "poly_pairs"
                          and isinstance(node.ctx, ast.Load))
    assert loads == ["orthopoly.PolyCache.__init__"]
    steppers = _scopes_where(lambda node: isinstance(node, ast.Attribute)
                             and node.attr == "_coeff_rows")
    assert sorted(set(steppers)) == ["orthopoly.PolyCache.__init__",
                                     "orthopoly.PolyCache._float_solution"]
    row_readers = _scopes_where(lambda node: isinstance(node, ast.Attribute)
                                and node.attr == "_rows")
    assert sorted(set(row_readers)) == ["orthopoly.PolyCache.__init__",
                                        "orthopoly.PolyCache._exact_solution",
                                        "orthopoly.PolyCache.ensure",
                                        "orthopoly.wronskian_residual"]


def _private_members(module: str, classes) -> set:
    """The private names ("_x", not "__x__") that the named classes of the
    module define as methods or assign on self."""
    names = set()
    for node in TREES[SRC / f"{module}.py"].body:
        if isinstance(node, ast.ClassDef) and node.name in classes:
            for sub in ast.walk(node):
                if isinstance(sub, ast.FunctionDef):
                    names.add(sub.name)
                elif (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                      and _name(sub.value) == "self"):
                    names.add(sub.attr)
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def test_only_orthopoly_reads_the_tables_private_members():
    # readers elsewhere go through the public interface (solution, levels,
    # values and the deficiency readers); the test matches names, so no
    # other class may reuse one of these private names
    private = _private_members("orthopoly", {"PolyCache", "DeficiencyContext"})
    assert {"_rows", "_solutions", "_weights", "_exact_solution"} <= private
    assert _reads_elsewhere("orthopoly", private) == []


def _reads_elsewhere(module: str, names: set) -> list:
    """Attribute reads of the given names in every module but one."""
    return sorted(f"{path.stem}: {node.attr} (line {node.lineno})"
                  for path, tree in TREES.items() if path.stem != module
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in names)


def test_only_coefficients_reads_a_sequences_private_members():
    # every layer reads lambda_n and beta_n through the four accessors, so
    # the tables and the pair formulas can change inside one module; the
    # test matches names, as the rule for the recurrence table does
    private = _private_members("coefficients", {"CoefficientSequence"})
    assert {"_lam_pairs", "_beta_pairs", "_lam_floats", "_lam_fractions"} <= private
    assert _reads_elsewhere("coefficients", private) == []


def test_exact_values_are_refused_in_one_scope():
    # the branch that picks the float formula of a non-integer power is the
    # one place that knows a family has no exact values
    raises = _scopes_where(lambda node: isinstance(node, ast.Call)
                           and _name(node.func) == "ExactModeUnavailable")
    assert raises == ["coefficients.CoefficientSequence._lam_pairs"]


def test_only_these_scopes_build_a_recurrence_table():
    # a sqrt(d) table at a non-real z is a DeficiencyContext, which builds
    # its table only by subclassing
    calls = _scopes_where(lambda node: isinstance(node, ast.Call)
                          and _name(node.func) == "PolyCache")
    assert calls == ["deficiency.classify_by_series", "lambda_tree.radial_propagate",
                     "oracle.series_oracle", "orthopoly.compute_polys", "orthopoly.poly_pairs"]
    subclasses = _scopes_where(lambda node: isinstance(node, ast.ClassDef)
                               and any(_name(base) == "PolyCache" for base in node.bases))
    assert subclasses == ["orthopoly.DeficiencyContext"]


def _discards_beta(node) -> bool:
    """An assignment `lam, _ = _accessors(...)`, which keeps only lam."""
    return (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Tuple)
            and len(node.targets[0].elts) == 2 and _name(node.targets[0].elts[1]) == "_")


def test_only_these_scopes_read_beta():
    # J's entries are written once per representation, so each scope here
    # is one representation of J (or the selector of its accessors); a
    # further hand-written copy of J reads beta_n and lands in this list.
    # PolyCache.__init__ selects lam only, so its call does not count
    lam_only = {id(node.value) for tree in TREES.values() for node in ast.walk(tree)
                if _discards_beta(node)}
    reads = _scopes_where(lambda node: (
        isinstance(node, ast.Attribute) and node.attr in ("beta", "beta_exact"))
        or (isinstance(node, ast.Call) and _name(node.func) == "_accessors"
            and id(node) not in lam_only))
    assert sorted(set(reads)) == [
        "coefficients._accessors",              # the accessor selector
        "deficiency._Profile.residual",         # level profiles
        "operator.JacobiOperator.apply",        # sparse functions on either tree
        "operator.moments",                     # the exact radial matrix, conjugated
        "oracle._tree_section",                 # dense sections of the tree operators
        "orthopoly.PolyCache._float_solution",  # the float recurrence, every weighting
        "orthopoly._IntegerRecurrence.rows",    # the integer recurrence
        "orthopoly._tridiagonal",               # the radial tridiagonal section
    ]


def _formats_a_record(node) -> bool:
    """A dict keyed "address" or a string holding a JSON key of the
    vertex records ("address", "re" or "im" in quotes)."""
    if isinstance(node, ast.Dict):
        return any(isinstance(k, ast.Constant) and k.value == "address" for k in node.keys)
    return (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and any(f'"{key}"' in node.value for key in ("address", "re", "im")))


def test_one_scope_writes_json_and_one_formats_a_record():
    # dump_json splices each SparseFunction's own text in where json.dumps
    # wrote its marker, so a second writer or a second record formatter
    # would print records that bypass one of them
    dumps = _scopes_where(lambda node: isinstance(node, ast.Call)
                          and _name(node.func) in ("dumps", "dump"))
    assert sorted(set(dumps)) == ["cli.dump_json"]
    assert sorted(set(_scopes_where(_formats_a_record))) == ["treecore.SparseFunction.to_json"]


def test_only_a_sparse_function_writes_itself_as_json():
    # cli builds each artifact from result fields; the library's one JSON
    # method is a function's record text, which dump_json splices in
    defs = _scopes_where(lambda node: isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                         and node.name.startswith("to_json"))
    assert defs == ["treecore.SparseFunction.to_json"]


def test_only_exactnum_tests_a_value_for_the_exact_type():
    # an ExactComplex answers complex(), abs() and bool() as a float does, and
    # where the arithmetic is chosen, exactnum.is_exact names the type
    tests = _scopes_where(lambda node: isinstance(node, ast.Call)
                          and _name(node.func) == "isinstance" and len(node.args) == 2
                          and any(_name(n) == "ExactComplex" for n in ast.walk(node.args[1])))
    assert tests and {scope.split(".")[0] for scope in tests} == {"exactnum"}


def _unread_cli_flags() -> list:
    """Options of each subcommand whose handler never reads args.<dest>;
    --config and --out are read by the shared plumbing."""
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    out = []
    for command, p in sub.choices.items():
        handler = p.get_default("func")
        tree = ast.parse(inspect.getsource(handler))
        read = {node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name) and node.value.id == "args"}
        dests = {a.dest for a in p._actions} - {"help", "config", "out", "func", "command"}
        out += [f"{command}: {dest}" for dest in sorted(dests - read)]
    return out


def test_every_cli_flag_is_read():
    assert _unread_cli_flags() == []
