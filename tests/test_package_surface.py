"""Static checks on the package surface (no Ray).

The correctness snapshot reads only the head of the query registry, so
every oracled query must sit there.  And kept code imports lazily inside
functions, so importing each module does not prove that every
``knowledge_graph_ray`` import still resolves: an AST walk does.
"""

import ast
import pathlib

REPO = pathlib.Path(__file__).resolve().parents[1]
PKG = "knowledge_graph_ray"
SNAPSHOT_HEAD = 50


def test_every_oracle_sits_in_the_registry_head():
    from knowledge_graph_ray.pipelines.queries import ORACLE_SQL, QUERIES

    assert set(ORACLE_SQL) <= set(QUERIES)
    head = set(list(QUERIES)[:SNAPSHOT_HEAD])
    assert not set(ORACLE_SQL) - head, sorted(set(ORACLE_SQL) - head)


def _module_file(module: str) -> "pathlib.Path | None":
    path = REPO.joinpath(*module.split("."))
    if (path / "__init__.py").is_file():
        return path / "__init__.py"
    if path.with_suffix(".py").is_file():
        return path.with_suffix(".py")
    return None


def _module_names(path: pathlib.Path) -> set[str]:
    """Names bound at module level (not inside functions or classes)."""
    names: set[str] = set()

    def visit(stmts):
        for node in stmts:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names.add(node.name)
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update((a.asname or a.name).split(".")[0]
                             for a in node.names)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    names.update(n.id for n in ast.walk(target)
                                 if isinstance(n, ast.Name))
            # statements nested in if / try / with blocks still bind
            # module-level names
            for field in ("body", "orelse", "finalbody", "handlers"):
                visit(getattr(node, field, None) or [])

    visit(ast.parse(path.read_text()).body)
    return names


def _has(module: str, attr: str) -> bool:
    path = _module_file(module)
    return path is not None and (_module_file(f"{module}.{attr}") is not None
                                 or attr in _module_names(path))


def _sources():
    for root in (PKG, "scripts", "kgbench"):
        yield from sorted((REPO / root).rglob("*.py"))
    yield REPO / "__ray_entry__.py"


def test_every_package_import_resolves():
    bad = []
    for path in _sources():
        tree = ast.parse(path.read_text())
        where = path.relative_to(REPO)
        modules = {}  # local alias -> package module it names
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and (node.module or "").split(".")[0] == PKG:
                for alias in node.names:
                    if not _has(node.module, alias.name):
                        bad.append(f"{where}:{node.lineno} "
                                   f"{node.module}.{alias.name}")
                    elif _module_file(f"{node.module}.{alias.name}"):
                        modules[alias.asname or alias.name] = \
                            f"{node.module}.{alias.name}"
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] != PKG:
                        continue
                    if _module_file(alias.name) is None:
                        bad.append(f"{where}:{node.lineno} {alias.name}")
                    elif alias.asname:
                        modules[alias.asname] = alias.name
        # attributes read off an imported package module must exist too
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in modules \
                    and not _has(modules[node.value.id], node.attr):
                bad.append(f"{where}:{node.lineno} "
                           f"{modules[node.value.id]}.{node.attr}")
    assert not bad, "dangling knowledge_graph_ray imports: " + "; ".join(bad)
