"""Runtime checks in the package raise typed exceptions; an `assert`
would vanish under `python -O`."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "quivhom"
TESTS = pathlib.Path(__file__).resolve().parent
MODULES = sorted(path.name for path in SRC.glob("*.py"))


def test_every_module_is_checked():
    assert "modules.py" in MODULES and "stable.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_no_assert_statements(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"assert statements in {module} at lines {lines}"


def _top_level_imports(tree: ast.Module) -> dict[str, int]:
    """Name bound -> line, for each top-level import but __future__'s."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    return bound


# the package modules but __init__ (which re-exports), named by file, and
# the test files, named tests/<file>
IMPORTERS = {m: SRC / m for m in MODULES if m != "__init__.py"} | {f"tests/{t.name}": t for t in sorted(TESTS.glob("*.py"))}


@pytest.mark.parametrize("module", IMPORTERS)
def test_every_top_level_import_is_used(module):
    tree = ast.parse(IMPORTERS[module].read_text(), filename=module)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _top_level_imports(tree).items() if name not in used}
    assert not unused, f"unused imports in {module}: {unused}"


def _name_counts(node: ast.AST) -> dict[str, int]:
    """How often each name is read under node: bare names, attributes and
    the names brought in by `from ... import`."""
    counts: dict[str, int] = {}
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            name = sub.id
        elif isinstance(sub, ast.Attribute):
            name = sub.attr
        elif isinstance(sub, ast.alias):
            name = sub.name
        else:
            continue
        counts[name] = counts.get(name, 0) + 1
    return counts


def test_every_private_helper_is_referenced():
    trees = {m: ast.parse((SRC / m).read_text(), filename=m) for m in MODULES}
    total: dict[str, int] = {}
    for tree in trees.values():
        for name, k in _name_counts(tree).items():
            total[name] = total.get(name, 0) + k
    orphans = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            # references from inside its own body (recursion) do not count
            if total.get(node.name, 0) == _name_counts(node).get(node.name, 0):
                orphans.append(f"{module}:{node.lineno} {node.name}")
    assert not orphans, f"private helpers referenced nowhere else in the package: {orphans}"


def _uses(node: ast.AST, bare: bool) -> dict[str, int]:
    """How often each name is read under node as an attribute of anything
    but numpy (np.kron is not exactlin's kron) and, if bare, as a bare name."""
    counts: dict[str, int] = {}
    for sub in ast.walk(node):
        if bare and isinstance(sub, ast.Name):
            name = sub.id
        elif isinstance(sub, ast.Attribute) and not (isinstance(sub.value, ast.Name) and sub.value.id == "np"):
            name = sub.attr
        else:
            continue
        counts[name] = counts.get(name, 0) + 1
    return counts


def test_every_exactlin_function_and_matrix_method_is_used():
    """Every public function of exactlin is read somewhere in the package or
    the tests, outside its own body, and every public method of Matrix is
    read there as an attribute: a local variable of the same name is not a
    use of the method."""
    trees = [ast.parse(path.read_text(), filename=path.name) for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))]
    total: dict[bool, dict[str, int]] = {True: {}, False: {}}
    for bare, counts in total.items():
        for tree in trees:
            for name, k in _uses(tree, bare).items():
                counts[name] = counts.get(name, 0) + k
    tree = ast.parse((SRC / "exactlin.py").read_text(), filename="exactlin.py")
    defs = [(node, True) for node in tree.body if isinstance(node, ast.FunctionDef)]
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "Matrix":
            defs += [(f, False) for f in node.body if isinstance(f, ast.FunctionDef)]
    unused = [
        f"exactlin.py:{f.lineno} {f.name}"
        for f, bare in defs
        if not f.name.startswith("_") and total[bare].get(f.name, 0) == _uses(f, bare).get(f.name, 0)
    ]
    assert not unused, f"exactlin functions and Matrix methods used nowhere: {unused}"


def _top_level_relative_imports(module: str) -> set[str]:
    """The package modules x that module imports at top level (`from .x import`)."""
    tree = ast.parse((SRC / f"{module}.py").read_text(), filename=module)
    return {node.module for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module}


@pytest.mark.parametrize("module", MODULES)
def test_function_level_imports_only_break_cycles(module):
    """An import inside a function is allowed only as `from .x import`, and
    only when x imports this module at top level (so hoisting it would
    make an import cycle).  Every other import sits at the top, where the
    unused-import guard sees it."""
    tree = ast.parse((SRC / module).read_text(), filename=module)
    top = {id(node) for node in tree.body}
    name = module[: -len(".py")]
    bad = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or id(node) in top:
            continue
        cycle = (
            isinstance(node, ast.ImportFrom)
            and node.level == 1
            and node.module is not None
            and name in _top_level_relative_imports(node.module)
        )
        if not cycle:
            bad.append(node.lineno)
    assert not bad, f"function-level imports in {module} that break no import cycle, at lines {bad}"


TRACING = SRC.parents[1] / "perfbench" / "tracing.py"


def _traced_entry_points() -> list[tuple[str, str]]:
    """(layer, entry point) of every call the traced benchmark run wraps:
    the SPANS table and the list `_counted` returns, read from the source
    of perfbench/tracing.py without importing it."""
    tree = ast.parse(TRACING.read_text(), filename=TRACING.name)
    out = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SPANS" for t in node.targets):
            out += [(layer, entry) for layer, entries in ast.literal_eval(node.value).items() for entry in entries]
        if isinstance(node, ast.FunctionDef) and node.name == "_counted":
            ret = next(sub for sub in ast.walk(node) if isinstance(sub, ast.Return))
            out += [(elt.elts[0].value, elt.elts[1].value) for elt in ret.value.elts]
    return out


def test_every_traced_entry_point_exists():
    """A rename in the package must fail here, not break the traced run."""
    entries = _traced_entry_points()
    assert len(entries) > 20
    missing = []
    for layer, entry in entries:
        mod = importlib.import_module(f"quivhom.{layer}")
        if "." in entry:
            cls_name, meth = entry.split(".")
            ok = meth in vars(getattr(mod, cls_name, object))
        else:
            ok = callable(getattr(mod, entry, None))
        if not ok:
            missing.append(f"{layer}.{entry}")
    assert not missing, f"entry points patched by perfbench/tracing.py but missing from the package: {missing}"


def test_the_benchmark_selfcheck_passes():
    """The traced run reads package caches by key and wraps entry points
    by name; its self-check runs every workload on tiny inputs, traced and
    untraced, and requires the same answers, which names alone cannot show."""
    root = SRC.parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "selfcheck.py")], cwd=root, env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout + done.stderr


def _solves_on_vertex_matrices(tree: ast.Module) -> list[tuple[str, int]]:
    """(enclosing top-level function, line) of each `solve` call that has a
    `.mats[...]` argument."""
    out = []
    for top in tree.body:
        for node in ast.walk(top):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "solve"):
                continue
            subs = [s for arg in node.args for s in ast.walk(arg) if isinstance(s, ast.Subscript)]
            if any(isinstance(s.value, ast.Attribute) and s.value.attr == "mats" for s in subs):
                out.append((getattr(top, "name", "<module>"), node.lineno))
    return out


def test_maps_are_factored_only_in_modules():
    """Factoring a map through a mono or an epi vertex by vertex is
    `modules.lift` / `modules.descend`; no other module solves on vertex
    matrices itself.  `functors.lift_to_resolutions` is the one exception:
    it lifts only the generator columns."""
    found = []
    for module in MODULES:
        if module == "modules.py":
            continue
        for func, line in _solves_on_vertex_matrices(ast.parse((SRC / module).read_text(), filename=module)):
            if (module, func) != ("functors.py", "lift_to_resolutions"):
                found.append(f"{module}:{line} in {func}")
    assert not found, f"per-vertex solves outside modules.py (use lift or descend): {found}"
    functors = ast.parse((SRC / "functors.py").read_text(), filename="functors.py")
    assert [func for func, _ in _solves_on_vertex_matrices(functors)] == ["lift_to_resolutions"]


def _call_scopes(module: str, name: str) -> list[str]:
    """The top-level function or `Class.method` around each call of name
    (bare or as an attribute) in module, once per call."""
    tree = ast.parse((SRC / module).read_text(), filename=module)
    scopes = []
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            scopes += [(f"{top.name}.{node.name}", node) for node in top.body if isinstance(node, ast.FunctionDef)]
        else:
            scopes.append((getattr(top, "name", "<module>"), top))
    return [
        scope_name
        for scope_name, scope in scopes
        for node in ast.walk(scope)
        if isinstance(node, ast.Call) and name in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
    ]


def test_cosyzygies_and_stable_inverses_are_not_searched_for():
    """A cosyzygy is the cokernel of the minimal left approximation, a
    stable inverse comes from two solves, Ext is read off boundary ranks
    and a transported sequence off one total cone: gorenstein and stable
    draw nothing at random, homological only in its one splitter and its
    one isomorphism search (and in `_split_idempotent`, which draws from
    the splitter's generator), and functors only to seed the perturbation
    of functor data, whose automorphisms `find_strict_iso` draws."""
    draws = ("default_rng", "integers", "random", "choice", "permutation", "shuffle")
    found = {module: sorted({scope for name in draws for scope in _call_scopes(module, name)}) for module in ("gorenstein.py", "stable.py", "homological.py", "functors.py")}
    assert found == {
        "gorenstein.py": [],
        "stable.py": [],
        "homological.py": ["_split_idempotent", "find_strict_iso", "split_complex"],
        "functors.py": ["perturb_functor_data"],
    }, found


def test_strict_maps_are_read_in_homological_alone():
    """Z^0, the strict chain maps, is read by the one splitter, the one
    locality test and the one isomorphism search: `functors` takes its
    automorphisms from `find_strict_iso`, not from `_strict_maps`."""
    found = [m for m in MODULES if _name_counts(ast.parse((SRC / m).read_text(), filename=m)).get("_strict_maps")]
    assert found == ["homological.py"], found


def test_one_splitter():
    """Modules and complexes of projectives are split by one loop:
    `_split_idempotent` is called from `homological.split_complex` alone."""
    found = [f"{module} {scope}" for module in MODULES for scope in _call_scopes(module, "_split_idempotent")]
    assert found == ["homological.py split_complex"], found


def test_one_grouping_up_to_isomorphism():
    """Objects are grouped up to isomorphism by `homological.group_isomorphic`
    alone: besides it, `find_strict_iso` is called only by `find_iso` (one
    pair of modules) and `functors.strict_chain_automorphism` (one complex
    with itself).  Only the pieces of `decompose` and the summands of
    `endomorphism_presentation` are grouped (the former in `_decompose`,
    the memo behind `decompose`), so no enumeration of
    indecomposables keeps its classes apart by a failed search."""
    found = sorted(f"{module} {scope}" for module in MODULES for scope in _call_scopes(module, "find_strict_iso"))
    assert found == ["functors.py strict_chain_automorphism", "homological.py find_iso", "homological.py group_isomorphic"], found
    grouped = sorted(f"{module} {scope}" for module in MODULES for scope in _call_scopes(module, "group_isomorphic"))
    assert grouped == ["functors.py endomorphism_presentation", "homological.py _decompose"], grouped


def test_one_resolution_engine():
    """Every projective resolution in the package is built by one class,
    `complexes._Resolution`: `kernel_cover` is called from its `extend_to`
    alone, and no loop in homological takes a cover or a kernel, so
    `MinimalResolution` stays a view with no step of its own."""
    found = {f"{module} {scope}" for module in MODULES for scope in _call_scopes(module, "kernel_cover")}
    assert found == {"complexes.py _Resolution.extend_to"}, found
    tree = ast.parse((SRC / "homological.py").read_text(), filename="homological.py")
    steps = {"kernel_cover", "projective_cover", "kernel"}
    loops = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.For, ast.While, ast.ListComp, ast.GeneratorExp, ast.DictComp, ast.SetComp))
        and any(isinstance(sub, ast.Call) and steps & {getattr(sub.func, "attr", None), getattr(sub.func, "id", None)} for sub in ast.walk(node))
    ]
    assert not loops, f"resolution loops in homological.py at lines {loops}"


def _definitions(tree: ast.Module) -> dict[str, list[ast.AST]]:
    """Name -> nodes: each top-level function and class, and each method
    under its own name."""
    defs: dict[str, list[ast.AST]] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs.setdefault(node.name, []).append(node)
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    defs.setdefault(sub.name, []).append(sub)
    return defs


@pytest.mark.parametrize("entry", ["hom_d_dim", "localization_compare"])
def test_derived_hom_reads_the_unminimized_construction(entry):
    """Derived Hom is Hom_K out of the resolution construction itself, so
    nothing that `complexes.hom_d_dim` or `localization_compare` reaches in
    complexes.py (following every name read that a definition there
    carries) reads `projective_resolution`, `minimize` or `to_chain_map`:
    the per-window minimized rebuild cannot come back unnoticed."""
    defs = _definitions(ast.parse((SRC / "complexes.py").read_text(), filename="complexes.py"))
    reached, todo = set(), [entry]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [used for node in defs[name] for used in _name_counts(node) if used in defs]
    forbidden = {"projective_resolution", "minimize", "to_chain_map"}
    bad = sorted({name for name in reached for node in defs[name] if forbidden & set(_name_counts(node))})
    assert not bad, f"{entry} reaches {bad}, which minimize or convert a resolution"
    assert "truncation" in reached


def test_one_shift():
    """A complex is shifted by `complexes.shift` alone; a complex of
    projectives is shifted as its `Complex` and read back by `recognize`,
    so no second shift (such as a `ProjComplex.shift` method) comes back."""
    found = []
    for module in MODULES:
        tree = ast.parse((SRC / module).read_text(), filename=module)
        found += [(module, node in tree.body) for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "shift"]
    assert found == [("complexes.py", True)], found


def _scoped(tree: ast.AST):
    """(dotted scope of class and function names, node) for each node under tree."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            yield ".".join(scope), child
            yield from visit(child, scope + [child.name] if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else scope)

    return visit(tree, [])


def _scopes(tree: ast.AST, hit) -> list[str]:
    """The dotted scope (class and function names) of each node that hit accepts."""
    return [scope for scope, node in _scoped(tree) if hit(node)]


def _callers(tree: ast.AST, name: str) -> list[str]:
    """The dotted scope of each call of name."""
    return _scopes(tree, lambda n: isinstance(n, ast.Call) and name in (getattr(n.func, "id", None), getattr(n.func, "attr", None)))


def test_one_block_assembly():
    """Complexes are assembled from blocks in `complexes` alone: `cone`,
    `total_cone` and `direct_sum_complex` share `_block_complex`, and
    outside `complexes` only the cone identification
    `stable.TruncationTriangle.mu` calls `_block_hom`.  No element-matrix
    direct sum of complexes (`direct_sum_proj`) comes back."""
    calls, sums = [], []
    for module in MODULES:
        tree = ast.parse((SRC / module).read_text(), filename=module)
        calls += [(module, scope) for scope in _callers(tree, "_block_hom") if module != "complexes.py"]
        sums += [module for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "direct_sum_proj"]
    assert calls == [("stable.py", "TruncationTriangle.mu")], calls
    assert not sums, sums
    tree = ast.parse((SRC / "complexes.py").read_text(), filename="complexes.py")
    assert sorted(_callers(tree, "_block_complex")) == ["cone", "direct_sum_complex", "total_cone"]


def test_eps_loops_are_named_in_algebra_alone():
    """The loops of a dual-numbers extension are named once, by
    `BoundQuiverAlgebra.dual_numbers_extension`; every other module reads
    them off the extension's `loops`.  So no string constant or f-string
    outside algebra.py starts with "eps_"."""
    found = []
    for module in MODULES:
        if module != "algebra.py":
            tree = ast.parse((SRC / module).read_text(), filename=module)
            found += [
                (module, node.lineno)
                for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.startswith("eps_")
            ]
    assert not found, f"eps loop names spelled at {found}"


def test_eps_modules_are_compressions():
    """Outside algebra.py, the loops of a dual-numbers extension are read by
    `functors.eps_extension` (the loops' images) and `complexes.compress`
    (eps as the differential) alone, so no eps-module is built by hand: the
    corpus's modules are compressions of complexes."""
    found = set()
    for module in MODULES:
        if module != "algebra.py":
            tree = ast.parse((SRC / module).read_text(), filename=module)
            found |= {f"{module} {scope}" for scope in _scopes(tree, lambda n: isinstance(n, ast.Attribute) and n.attr == "loops")}
    assert found == {"complexes.py compress", "functors.py eps_extension"}, found


# the entry points that resolve a module down to a window, and the
# position of that window among their arguments
WINDOWED = {"apply_to_module": 2, "apply_to_map": 2, "lift_to_resolutions": 1}


def _windows(tree: ast.AST):
    """(dotted scope, parameters of the innermost function, window
    argument or None) for each call of a `WINDOWED` entry point."""

    def visit(node, scope, params):
        for child in ast.iter_child_nodes(node):
            func = getattr(child, "func", None)
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if isinstance(child, ast.Call) and name in WINDOWED:
                args = child.args[WINDOWED[name]:WINDOWED[name] + 1] + [k.value for k in child.keywords if k.arg == "window_lo"]
                yield ".".join(scope), params, args[0] if args else None
            if isinstance(child, ast.FunctionDef):
                yield from visit(child, scope + [child.name], {a.arg for a in child.args.args + child.args.kwonlyargs})
            else:
                yield from visit(child, scope + [child.name] if isinstance(child, ast.ClassDef) else scope, params)

    return visit(tree, [], set())


def test_one_image_window():
    """Every resolution window in the package is `FunctorData.window(t)`,
    or a window its caller was given: a call of `apply_to_module`,
    `apply_to_map` or `lift_to_resolutions` passes `<functor>.window(...)`
    or its own window parameter, so no second margin (such as a fixed
    -depth - 2, or a stored window attribute) comes back.  `cli.py` passes
    the user's raw `--window`."""
    found, bad = [], []
    for module in MODULES:
        if module == "cli.py":
            continue
        tree = ast.parse((SRC / module).read_text(), filename=module)
        for scope, params, window in _windows(tree):
            found.append(f"{module} {scope}")
            asked = isinstance(window, ast.Call) and getattr(window.func, "attr", None) == "window"
            if not (asked or (isinstance(window, ast.Name) and window.id in params)):
                bad.append((module, scope, window and ast.unparse(window)))
    assert "functors.py is_non_negative" in found and "stable.py TruncationTriangle.__init__" in found, found
    assert not bad, bad


def test_the_gp_detector_reads_no_presentation():
    """`is_gorenstein_projective` applies the restriction rule to every
    dual-numbers extension alike, certified by the base's Gorenstein
    dimension, so it reads neither `.relations` nor `.quiver`: no special
    case for one presentation of the base comes back."""
    tree = ast.parse((SRC / "gorenstein.py").read_text(), filename="gorenstein.py")
    found = _scopes(tree, lambda n: isinstance(n, ast.Attribute) and n.attr in ("relations", "quiver"))
    assert found and not [s for s in found if s.split(".")[0] == "is_gorenstein_projective"], found


# the scopes that write into a `_cache` by hand
CACHE_WRITERS = {
    "algebra.py cached.memo",  # the one memo decorator
    "modules.py _proj_sum",  # the "proj_sum" tag of a shared sum of projectives
    "algebra.py BoundQuiverAlgebra.opposite",  # the opposite's opposite is the algebra
    "projcplx.py ProjComplex.to_complex",  # a ProjComplex and its Complex find each other
    "projcplx.py recognize",
}


def _written(node: ast.AST) -> ast.AST | None:
    """The container that node writes into: X of a store `X[k] = ...` or
    of a call `X.setdefault(...)`."""
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
        return node.value
    if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "setdefault":
        return node.func.value
    return None


def test_one_memo_store():
    """Every value the package computes once per object lives in that
    object's `_cache`, declared by `algebra.cached`, and a module-level memo
    is a `functools.cache`.  So the private attributes and module-level
    names that are written by key are `_cache` and the two dicts that
    perfbench/tracing.py reads by name (`_mul_cache`, `_apply_cache`); no
    private attribute is set after `__init__` (a lazy slot), no container
    is filled under a test of its own key or of None, and `._cache[...]` is
    written by hand (or aliased) only in CACHE_WRITERS."""
    stores, lazy, checked, writers = set(), set(), set(), set()
    for module in MODULES:
        tree = ast.parse((SRC / module).read_text(), filename=module)
        top = {t.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign)) for t in ast.walk(node) if isinstance(t, ast.Name)}
        for scope, node in _scoped(tree):
            box = _written(node)
            if isinstance(box, ast.Attribute) and box.attr.startswith("_") or isinstance(box, ast.Name) and box.id in top:
                stores.add(getattr(box, "attr", None) or box.id)
                if getattr(box, "attr", None) == "_cache":
                    writers.add(f"{module} {scope}")
            if isinstance(node, ast.Assign) and getattr(node.value, "attr", None) == "_cache":
                writers.add(f"{module} {scope}")  # an alias of a `_cache`, written through
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and not scope.endswith("__init__"):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                lazy |= {f"{module} {scope} {t.attr}" for target in targets for t in ast.walk(target) if isinstance(t, ast.Attribute) and isinstance(t.ctx, ast.Store) and t.attr.startswith("_")}
            if isinstance(node, ast.If) and isinstance(node.test, ast.Compare) and isinstance(node.test.ops[0], (ast.NotIn, ast.Is)):
                tested = node.test.comparators[0] if isinstance(node.test.ops[0], ast.NotIn) else node.test.left
                filled = [_written(sub) for sub in ast.walk(node)] + [t for sub in ast.walk(node) if isinstance(sub, ast.Assign) for t in sub.targets]
                if isinstance(tested, ast.Attribute) and any(isinstance(box, ast.Attribute) and ast.dump(box).replace("Store", "Load") == ast.dump(tested) for box in filled):
                    checked.add(f"{module} {scope}")
    assert stores == {"_cache", "_mul_cache", "_apply_cache"}, stores
    assert not lazy, f"private attributes set after __init__: {sorted(lazy)}"
    assert not checked, f"containers filled under a test of their own key: {sorted(checked)}"
    assert writers == CACHE_WRITERS, writers
