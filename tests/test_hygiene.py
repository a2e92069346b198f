"""Source hygiene that a linter would check: unused imports, unused local
names, unused private module-level names, package definitions that only
tests reach, the exports and CLI options that no command reads.

The source checks read the files with ``ast`` and import none of them; the
option check runs each CLI command in-process.  None starts a process.
"""

import argparse
import ast
import io
from pathlib import Path

import ellplan
from ellplan import cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ellplan"
INIT = PACKAGE / "__init__.py"


def _scanned_files() -> list[Path]:
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p != INIT]
    files += sorted((ROOT / "tests").glob("*.py"))
    files += sorted((ROOT / "scripts").glob("*.py"))
    return files


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import statement, mapped to its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs
            every += [a for a in (args.vararg, args.kwarg) if a is not None]
            yield from (a.annotation for a in every if a.annotation is not None)
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a quoted annotation such as -> "EpsSpec" uses the name it spells
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return used


def test_no_unused_imports():
    unused = []
    for path in _scanned_files():
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used_names(tree)
        for name, line in _imported_names(tree).items():
            if name not in used:
                unused.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert not unused, "unused imports:\n" + "\n".join(unused)


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_scope(node: ast.AST):
    """Nodes of a function body, without nested functions, classes and
    comprehension targets, whose names live in scopes of their own."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _SCOPES):
            if not isinstance(child, ast.Lambda):
                yield child  # its name is bound here
            continue
        if isinstance(child, ast.comprehension):
            for part in (child.iter, *child.ifs):
                yield part
                yield from _own_scope(part)
            continue
        yield child
        yield from _own_scope(child)


def _local_bindings(func: ast.AST) -> dict[str, int]:
    """Names a function binds in its own scope, mapped to their first line."""
    declared, bound = set(), {}
    for node in _own_scope(func):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.setdefault(node.id, node.lineno)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.setdefault(node.name, node.lineno)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.setdefault(node.name, node.lineno)
    return {n: line for n, line in bound.items() if n not in declared}


def _local_reads(func: ast.AST) -> set[str]:
    """Names read anywhere in a function, nested scopes included (a closure
    reads its enclosing function's locals); x += 1 reads x."""
    reads = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            reads.add(node.id)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            reads.add(node.target.id)
    return reads


def test_no_unused_local_names():
    unused = []
    for path in _scanned_files():
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            reads = _local_reads(func)
            unused += [
                f"{path.relative_to(ROOT)}:{line}: {name}"
                for name, line in _local_bindings(func).items()
                if not name.startswith("_") and name not in reads
            ]
    assert not unused, "unused local names:\n" + "\n".join(unused)


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level ``_x`` def, class or assignment target, mapped to its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [
                n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)
            ]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names read, reached as an attribute or imported anywhere in the file."""
    refs = set(_imported_names(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
    return refs


def test_no_unused_private_module_names():
    trees = {
        path: ast.parse(path.read_text(), filename=str(path)) for path in _scanned_files()
    }
    referenced = set().union(*map(_referenced_names, trees.values()))
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for name, line in _private_definitions(tree).items()
        if name not in referenced
    ]
    assert not unused, "unreferenced private names:\n" + "\n".join(unused)


# module-level definitions that nothing in src/, bench/ or scripts/ names,
# with the reason each stays
_REACHED_OTHERWISE = {
    ("__init__.py", "__getattr__"): "Python calls it for each lazy export (PEP 562)",
}


def _names_in_tables(tree: ast.Module) -> set[str]:
    """The strings of the ``_KINDS`` and ``_EXPORTS`` literals: each names a
    definition that a record kind or an export reaches by name."""
    return {
        node.value
        for stmt in tree.body
        if isinstance(stmt, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id in ("_KINDS", "_EXPORTS") for t in stmt.targets)
        for node in ast.walk(stmt)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def test_package_holds_only_what_runs():
    """Every module-level function and class in the package is named by
    another definition in src/, or from bench/ or scripts/; a definition
    that only tests reach belongs in the tests."""
    referenced, defined = set(), {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        referenced |= _names_in_tables(tree)
        for node in tree.body:
            refs = _referenced_names(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[path.name, node.name] = node.lineno
                refs.discard(node.name)  # a use inside its own body
            referenced |= refs
    for path in sorted((ROOT / "bench").rglob("*.py")) + sorted((ROOT / "scripts").glob("*.py")):
        referenced |= _referenced_names(ast.parse(path.read_text(), filename=str(path)))
    unreached = sorted(
        f"{file}:{line}: {name}"
        for (file, name), line in defined.items()
        if name not in referenced and (file, name) not in _REACHED_OTHERWISE
    )
    assert not unreached, "definitions only tests reach:\n" + "\n".join(unreached)
    assert set(_REACHED_OTHERWISE) <= set(defined)


def _export_table_names(tree: ast.Module) -> list[str]:
    """Every name listed in the ``_EXPORTS`` literal, repeats included."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in node.targets
        ):
            return [elt.value for names in node.value.values for elt in names.elts]
    raise AssertionError("no _EXPORTS table in __init__.py")


def test_all_matches_the_package_imports():
    tree = ast.parse(INIT.read_text(), filename=str(INIT))
    assert sorted(ellplan.__all__) == sorted(_export_table_names(tree))
    assert len(ellplan.__all__) == len(set(ellplan.__all__))
    for name in ellplan.__all__:
        assert getattr(ellplan, name, None) is not None, name


class _ReadRecorder(argparse.Namespace):
    """Parsed settings that note in ``_reads`` the name of each one read."""

    def __init__(self, settings: dict):
        super().__init__(**settings)
        self._reads = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


# together these take every branch that reads an option: each --rule, each
# --suite, --check, each testbed source
_BRANCH_ARGVS = [
    *(["plan", "--eps", "1e-2", "--rule", rule] for rule in ("bf", "ps", "star", "all")),
    ["verify", "--suite", "bounds", "--lmax", "5"],
    ["verify", "--suite", "logs", "--grid", "0:1:1/2"],
    ["verify", "--suite", "ordering", "--lmax", "5"],
    ["verify", "--suite", "expansion"],
    ["table", "--eps", "1e-1"],
    ["table", "--check"],
    ["certify", "--ell", "19", "--eps", "1e-2"],
    ["testbed", "--bundled", "three_cover"],
    ["testbed", "--instance", str(PACKAGE / "data" / "greedy_gap.json")],
    ["testbed", "--random", "1", "--seed", "3"],
]


def test_every_option_is_read_by_its_command():
    """A subcommand defines only options its command reads: each command
    runs as ``main`` runs it, the policy built from its cap first."""
    parser = cli._build_parser()
    defined, read = {}, {}
    for argv in _BRANCH_ARGVS:
        args = vars(parser.parse_args(argv))
        command = args.pop("command")
        settings = _ReadRecorder(args)
        policy = cli.certified.RefinementPolicy(settings.precision_cap)
        code = cli._COMMANDS[command](settings, policy, io.StringIO())
        assert code == cli.EXIT_OK, argv
        defined[command] = set(args)
        read.setdefault(command, set()).update(settings._reads)
    assert set(defined) == set(cli._COMMANDS)
    unread = {c: sorted(defined[c] - read[c]) for c in defined if defined[c] - read[c]}
    assert not unread, f"options no command reads: {unread}"


def _render_calls(tree: ast.AST) -> list[str]:
    """Each ``records.render*`` a tree reaches, and each bare ``render_line``."""
    names = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr.startswith("render")
            and isinstance(node.value, ast.Name)
            and node.value.id == "records"
        ):
            names.append(node.attr)
        elif isinstance(node, ast.Name) and node.id == "render_line":
            names.append(node.id)
    return names


def test_cli_writes_structured_lines_only_through_render_record():
    # a line built from an ad-hoc dict would skip the declared field table
    # that parse_record reads it back with
    path = PACKAGE / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert set(_render_calls(tree)) == {"render_record"}
    assert "json" not in _imported_names(tree)


def test_only_render_record_calls_render_line():
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    if isinstance(node, ast.Call) and "render_line" in _render_calls(node.func):
                        callers.append(f"{path.name}:{func.name}")
    assert callers == ["records.py:render_record"]


def test_only_the_codecs_module_reads_json():
    # one reader of untrusted text: one duplicate-key hook, one number policy
    loads, hooks = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr == "loads" and (
                    isinstance(func.value, ast.Name) and func.value.id == "json"
                ):
                    loads.add(path.name)
                if any(k.arg == "object_pairs_hook" for k in node.keywords):
                    hooks.add(path.name)
    assert (loads, hooks) == ({"_codecs.py"}, {"_codecs.py"})


def _ladder_callers(tree: ast.AST, where: str = "<module>") -> list[str]:
    """The innermost function around each ``.ladder()`` call in a tree."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += _ladder_callers(node, node.name)
            continue
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "ladder"
        ):
            found.append(where)
        found += _ladder_callers(node, where)
    return found


def test_only_cmp_certified_walks_the_precision_ladder():
    # one loop over the precision ladder: every certified decision, ell_ps's
    # ceiling included, is a cmp_certified verdict at the rung it needed
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        callers += [f"{path.name}:{name}" for name in _ladder_callers(tree)]
    assert callers == ["certified.py:cmp_certified"]
