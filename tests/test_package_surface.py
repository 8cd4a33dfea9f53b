"""The package keeps only what a route, the CLI or a script runs, and the
stepping oracles share no numerics with the kernel routes.

Every module-level function of `src/fraccauchy` and every public method of
its classes must be reached from the package's module-level code (route
tables, entry points, class bodies), from a private or special method, or
from `scripts/`, through a chain of references that never passes through
unreached code.  A helper that only the tests call belongs in the tests.
Names in `__all__` lists and imports are strings and aliases, not
references, so re-exporting a helper does not keep it.

References match by name.  A method is reached only through an attribute
access of its name (`obj.name`): a bare name, such as a local variable
that shares it, reaches module-level functions alone.  Where classes of
different hierarchies share a method name, a reference `obj.name` counts
for a class only in a module that names a class of its hierarchy, and
`self.name` only for the class it is written in.

The oracles cross-check the kernel routes only while the two compute
nothing in common, so `oracles.py` may import from the package only what
`ORACLE_IMPORTS` lists, and no other module but the package's `__init__`
may import from `oracles.py`, except `solver.py`, which takes the two oracle
routes of its `ROUTES`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fraccauchy"
SCRIPTS = ROOT / "scripts"

# public names nothing calls yet, each kept until its ROADMAP item decides
ALLOWED = {}

# what `oracles.py` may import from the package: whole modules, or one name
# of a module ("kernels.symbol_values" evaluates the symbols and inverts
# nothing)
ORACLE_IMPORTS = {
    "errors",
    "grids",
    "operators",
    "problems",
    "special",
    "symbols",
    "kernels.symbol_values",
}
# what `solver.py` may import from `oracles.py`
ORACLE_ROUTES = {"oracles.oracle_caputo", "oracles.oracle_rl"}


def _parse(paths):
    return {p: ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in paths}


def _families(trees):
    """Class name -> the set of class names of its hierarchy in the package."""
    bases = {}
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [
                    b.id if isinstance(b, ast.Name) else getattr(b, "attr", None)
                    for b in node.bases
                ]
    family = {name: {name} for name in bases}
    for name, parents in bases.items():
        for parent in parents:
            if parent in family and family[parent] is not family[name]:
                merged = family[parent] | family[name]
                for member in merged:
                    family[member] = merged
    return {name: frozenset(members) for name, members in family.items()}


def _definitions(trees):
    """(module, class or None, name) -> its ast node, for every module-level
    function and every public method of a module-level class."""
    defs = {}
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[(path.stem, None, node.name)] = node
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        if not item.name.startswith("_"):
                            defs[(path.stem, node.name, item.name)] = item
    return defs


class _References(ast.NodeVisitor):
    """Names and attributes a module uses, each with the checked definition
    it sits in (None for module-level code, private and special methods),
    for `self.x` and `Class.x` the class it is qualified by, and whether it
    is an attribute access."""

    def __init__(self, module, defs, classes):
        self.module, self.defs, self.classes = module, defs, classes
        self.context, self.cls = None, None
        self.found = []  # (name, qualifier class or None, context, attribute)

    def visit_ClassDef(self, node):
        outer, self.cls = self.cls, node.name
        self.generic_visit(node)
        self.cls = outer

    def visit_FunctionDef(self, node):
        outer = self.context
        key = (self.module, self.cls, node.name)
        if outer is None and self.defs.get(key) is node:
            self.context = key
        self.generic_visit(node)
        self.context = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Name(self, node):
        if not isinstance(node.ctx, ast.Store):
            self.found.append((node.id, None, self.context, False))

    def visit_Attribute(self, node):
        qualifier = None
        if isinstance(node.value, ast.Name):
            if node.value.id in ("self", "cls") and self.cls is not None:
                qualifier = self.cls
            elif node.value.id in self.classes:
                qualifier = node.value.id
        self.found.append((node.attr, qualifier, self.context, True))
        self.generic_visit(node)


def _mentioned_classes(tree, classes):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
        elif isinstance(node, ast.ClassDef):
            names.add(node.name)
    return names & set(classes)


def unreached_definitions():
    """(module, class, name) of every checked definition no reached code uses."""
    src = _parse(sorted(SRC.glob("*.py")))
    scripts = _parse(sorted(SCRIPTS.glob("*.py")))
    defs = _definitions(src)
    families = _families(src)
    # which families define each method name, to tell shared names apart
    owners = {}
    for module, cls, name in defs:
        if cls is not None:
            owners.setdefault(name, set()).add(families[cls])

    def targets(name, qualifier, mentioned, attribute):
        out = []
        for key in defs:
            _, cls, def_name = key
            if def_name != name:
                continue
            if cls is None:
                out.append(key)
            elif not attribute:
                continue
            elif qualifier is not None:
                if qualifier in families and cls in families[qualifier]:
                    out.append(key)
            elif len(owners[name]) == 1 or families[cls] & mentioned:
                out.append(key)
        return out

    edges = []  # (context, target)
    for trees, checked in ((src, True), (scripts, False)):
        for path, tree in trees.items():
            visitor = _References(path.stem if checked else None, defs, families)
            visitor.visit(tree)
            mentioned = _mentioned_classes(tree, families)
            for name, qualifier, context, attribute in visitor.found:
                for target in targets(name, qualifier, mentioned, attribute):
                    if target != context:
                        edges.append((context, target))
    reached = set()
    frontier = [target for context, target in edges if context is None]
    while frontier:
        key = frontier.pop()
        if key not in reached:
            reached.add(key)
            frontier.extend(t for c, t in edges if c == key)
    return sorted(set(defs) - reached, key=lambda k: (k[0], k[1] or "", k[2]))


def test_every_package_function_is_reached():
    unreached = [k for k in unreached_definitions() if k[2] not in ALLOWED]
    listed = [f"{m}.{c + '.' if c else ''}{n}" for m, c, n in unreached]
    assert not listed, f"move test-only helpers into tests/: {listed}"


def test_allowlist_is_exact():
    # each allowed name exists and is still unreached; once something calls
    # it, or it is gone, its entry must go too
    unreached = {n for _, _, n in unreached_definitions()}
    assert set(ALLOWED) <= unreached, set(ALLOWED) - unreached


def _package_imports(tree):
    """Every import of a package module anywhere in a module, as "module"
    for a whole module and "module.name" for one name from it."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "fraccauchy":
                    found.add(rest)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                head, _, module = module.partition(".")
                if head != "fraccauchy":
                    continue
            for alias in node.names:
                found.add(f"{module}.{alias.name}" if module else alias.name)
    return found


def test_oracles_share_no_kernel_numerics():
    imports = {p.stem: _package_imports(t) for p, t in _parse(sorted(SRC.glob("*.py"))).items()}
    wrong = sorted(
        name for name in imports["oracles"]
        if name.split(".")[0] not in ORACLE_IMPORTS and name not in ORACLE_IMPORTS
    )
    assert not wrong, f"oracles.py imports kernel-route code: {wrong}"
    for module, names in imports.items():
        if module in ("__init__", "oracles"):
            continue
        allowed = ORACLE_ROUTES if module == "solver" else set()
        wrong = sorted(n for n in names if n.split(".")[0] == "oracles" and n not in allowed)
        assert not wrong, f"{module}.py imports oracle internals: {wrong}"
