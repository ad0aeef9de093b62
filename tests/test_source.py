"""Static checks on the package source, with the standard library's ast."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "torsionfree"


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that the module never reads."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom math import gcd, lcm\nlcm(1, 2)\n") == ["os", "gcd"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _references(tree: ast.AST, skip: ast.AST) -> set[str]:
    """Names read as ast.Name ids or ast.Attribute attrs, outside the subtree skip."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def dead_private_helpers(sources: dict[str, str], module: str) -> list[str]:
    """Top-level _-prefixed functions and classes of module that no source references."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    dead = []
    for node in trees[module].body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_") or node.name.startswith("__"):
            continue
        if not any(node.name in _references(tree, node) for tree in trees.values()):
            dead.append(node.name)
    return dead


def test_detects_a_dead_private_helper():
    sources = {
        "a": "def _used():\n    pass\n\ndef _dead():\n    return _dead()\n\nclass _Gone:\n    pass\n",
        "b": "from a import _used\n_used()\n",
    }
    assert dead_private_helpers(sources, "a") == ["_dead", "_Gone"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_dead_private_helpers(path):
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert dead_private_helpers(sources, path.name) == []


FACTORING = {"factorize", "primes_dividing", "divisors"}
# groups factors in active_primes (read by the oracle bound) and _index_primes
MAY_FACTOR = {"numutil.py", "oracle.py", "groups.py"}


def names_read(source: str, names: set[str]) -> set[str]:
    """Which of names the source imports, or reads as a name or an attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names if alias.name in names)
        elif isinstance(node, ast.Name) and node.id in names:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in names:
            found.add(node.attr)
    return found


def test_detects_factoring():
    source = "from .numutil import divisors, is_prime\nfrom . import numutil\nnumutil.factorize(6)\n"
    assert names_read(source, FACTORING) == {"divisors", "factorize"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_known_modules_factor(path):
    # everything else must answer without factoring, so a large prime cannot stall it
    if path.name not in MAY_FACTOR:
        assert names_read(path.read_text(encoding="utf-8"), FACTORING) == set()


# lattice coordinates come from linalg.CoordinateMap; the Fraction forward
# substitution serves linalg.solve_in_rows and the oracle's independent check
SUBSTITUTION = {"echelon_coordinates"}
MAY_SUBSTITUTE = {"linalg.py", "oracle.py"}


def test_detects_substitution():
    source = "from .linalg import echelon_coordinates\nlinalg.echelon_coordinates(r, p, x)\n"
    assert names_read(source, SUBSTITUTION) == SUBSTITUTION
    assert names_read("coords = lattice.coordinates(x)\n", SUBSTITUTION) == set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_known_modules_substitute(path):
    read = names_read(path.read_text(encoding="utf-8"), SUBSTITUTION)
    assert read == (SUBSTITUTION if path.name in MAY_SUBSTITUTE else set())


def constructor_calls(source: str, cls: str) -> int:
    """How many calls the source makes to cls itself, as cls(...) or mod.cls(...)."""
    return sum(
        1
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Name) and node.func.id == cls
            or isinstance(node.func, ast.Attribute) and node.func.attr == cls
        )
    )


def test_detects_lattice_constructor_calls():
    source = (
        "RationalLattice(2, (), 1)\n"
        "linalg.RationalLattice(2, (), 1)\n"
        "RationalLattice.from_integer_forms((), 2)\n"
    )
    assert constructor_calls(source, "RationalLattice") == 2


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_linalg_constructs_lattices(path):
    # every lattice comes reduced from RationalLattice.from_integer_forms,
    # so equal lattices stay equal as objects
    if path.name != "linalg.py":
        assert constructor_calls(path.read_text(encoding="utf-8"), "RationalLattice") == 0


def private_members(source: str, cls: str) -> set[str]:
    """The _-prefixed, non-dunder members of class cls: the names bound in its
    body and the names it sets with object.__setattr__."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.ClassDef) and node.name == cls):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(item.name)
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                names.add(item.target.id)
            elif isinstance(item, ast.Assign):
                names.update(t.id for t in item.targets if isinstance(t, ast.Name))
        for call in ast.walk(node):
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "__setattr__"
                and isinstance(call.func.value, ast.Name)
                and call.func.value.id == "object"
                and len(call.args) > 1
                and isinstance(call.args[1], ast.Constant)
            ):
                names.add(call.args[1].value)
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def test_detects_private_group_members():
    source = (
        "class GroupRep:\n"
        "    size: int\n"
        "    _limit = 3\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, '_cache', {})\n"
        "    def _helper(self):\n"
        "        pass\n"
        "    def local(self):\n"
        "        pass\n"
    )
    private = private_members(source, "GroupRep")
    assert private == {"_limit", "_cache", "_helper"}
    assert names_read("g.local()\nh._cache.get(1)\n", private) == {"_cache"}


# the per-prime data of a group is read through GroupRep.local and
# GroupRep.divisible_directions; its caches stay inside groups.py
GROUP_INTERNALS = private_members((SRC / "groups.py").read_text(encoding="utf-8"), "GroupRep")


def test_group_internals_are_found():
    assert {"_w_cache", "_local_cache", "_meet_cache", "_purify_cache", "_kind_cache"} <= GROUP_INTERNALS


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_groups_reads_group_internals(path):
    if path.name != "groups.py":
        assert names_read(path.read_text(encoding="utf-8"), GROUP_INTERNALS) == set()


def tracer_targets():
    """(module, attribute path) pairs that perfbench/tracer.py wraps with --trace 1."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("module, path", tracer_targets(), ids=lambda t: t)
def test_tracer_target_resolves(module, path):
    # the tracer reads methods from the class __dict__, so an inherited or
    # renamed attribute would break the traced benchmark run
    owner, _, name = path.rpartition(".")
    namespace = importlib.import_module(f"torsionfree.{module}")
    if owner:
        namespace = getattr(namespace, owner)
    assert callable(vars(namespace).get(name))
