"""Static checks on the package surface (no Ray).

The correctness snapshot reads only the head of the query registry, so
every oracled query must sit there.  And kept code imports lazily inside
functions, so importing each module does not prove that every
``knowledge_graph_ray`` import still resolves: an AST walk does.  The
same walk checks that the package holds no module its entry points
never import.
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


# The modules a user or script starts from; everything else in the
# package must be imported, directly or lazily, from one of them.
ENTRY_POINTS = (
    PKG,
    f"{PKG}.pipelines.build",
    f"{PKG}.pipelines.search",
    f"{PKG}.pipelines.prompt_tune",
    f"{PKG}.pipelines.queries",
    f"{PKG}.sources.io",
    f"{PKG}.state.checkpoint",
    f"{PKG}.oracle",
    f"{PKG}.corpus",
    f"{PKG}.registry",
)
# Outside the KG engine and not yet cut: the first three are still
# tested alongside kept operators, the other four have whole test files
# of their own.  Each leaves this set when it is cut with its tests.
UNREACHABLE_ALLOWED = {
    f"{PKG}.stages.dedup",
    f"{PKG}.stages.sketches",
    f"{PKG}.state.diff",
    f"{PKG}.stages.graphops",
    f"{PKG}.stages.sampling",
    f"{PKG}.stages.packing",
    f"{PKG}.stages.decontaminate",
}


def _imported_modules(module: str) -> set[str]:
    """Package modules that importing ``module`` loads: its parent
    package and every package module it imports anywhere in its body
    (lazy imports inside functions included), with their packages."""
    found = {module.rsplit(".", 1)[0]}
    for node in ast.walk(ast.parse(_module_file(module).read_text())):
        names = []
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + [f"{node.module}.{a.name}"
                                     for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        for name in names:
            parts = name.split(".")
            found.update(".".join(parts[:i]) for i in range(1, len(parts) + 1)
                         if parts[0] == PKG)
    return {m for m in found if _module_file(m) is not None}


def test_every_package_module_is_reachable_from_an_entry_point():
    reached, todo = set(), list(ENTRY_POINTS)
    while todo:
        module = todo.pop()
        if module not in reached:
            reached.add(module)
            todo.extend(_imported_modules(module) - reached)
    modules = set()
    for path in _sources():
        parts = path.relative_to(REPO).with_suffix("").parts
        if parts[0] == PKG:
            modules.add(".".join(parts[:-1] if parts[-1] == "__init__"
                                 else parts))
    assert modules - reached == UNREACHABLE_ALLOWED, \
        sorted(modules - reached)


def test_no_stage_picks_its_own_regime():
    """``build_knowledge_graph`` picks each graph-tail stage's driver
    kernel or Dataset path (``pipelines/build._tail``): no stage module
    calls ``driver_tables`` to decide for itself."""
    calls = []
    for path in sorted((REPO / PKG / "stages").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.attr if isinstance(fn, ast.Attribute) else \
                    getattr(fn, "id", None)
                if name == "driver_tables":
                    calls.append(f"{path.relative_to(REPO)}:{node.lineno}")
    assert calls == []
