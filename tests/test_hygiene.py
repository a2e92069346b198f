"""Source hygiene that a linter would check: unused imports and the exports.

Both checks read the source with ``ast``; neither imports the scanned files
nor starts a process.
"""

import ast
from pathlib import Path

import ellplan

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


def test_all_matches_the_package_imports():
    tree = ast.parse(INIT.read_text(), filename=str(INIT))
    assert set(ellplan.__all__) == set(_imported_names(tree))
    assert len(ellplan.__all__) == len(set(ellplan.__all__))
    for name in ellplan.__all__:
        assert getattr(ellplan, name, None) is not None, name
