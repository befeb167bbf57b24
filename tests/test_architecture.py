"""Architecture guards. The package's modules are parsed once; each guard is a
function of the parsed modules that returns what breaks its rule, keeps its
exemptions by name, and has a self-test that feeds it the forms it must catch.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import musrtomo
from test_caches import CACHED

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(musrtomo.__file__).parent


def parse(folder: Path) -> dict:
    return {path.name: ast.parse(path.read_text()) for path in sorted(folder.glob("*.py"))}


MODULES = parse(PACKAGE)


def nodes(modules: dict, kind):
    """(module name, node) of every ``kind`` node of the parsed modules."""
    return [(name, node) for name, tree in modules.items() for node in ast.walk(tree)
            if isinstance(node, kind)]


# state, unitary and dimension checks live once, in linalg

def input_checks_outside_linalg(modules) -> list:
    """(module, function) of every require_* or _require_* function defined
    outside linalg."""
    return [(name, fn.name) for name, fn in nodes(modules, ast.FunctionDef)
            if name != "linalg.py" and fn.name.lstrip("_").startswith("require_")]


def test_only_linalg_defines_input_checks():
    assert {"linalg.py", "tomography.py", "twospin.py", "cli.py"} <= set(MODULES)
    assert input_checks_outside_linalg(MODULES) == []
    old = {"twospin.py": ast.parse("def _require_unitary(u):\n    pass\n")}
    assert input_checks_outside_linalg(old) == [("twospin.py", "_require_unitary")]


# the bounds of a probability table live once, in linalg.require_probabilities

def probability_literals(modules) -> tuple[int, list]:
    """(number of __post_init__ methods, (module, line) of each float literal
    in a comparison of one) in tomography.py and twospin.py."""
    inits = [(name, fn) for name, fn in nodes(modules, ast.FunctionDef)
             if name in ("tomography.py", "twospin.py") and fn.name == "__post_init__"]
    return len(inits), [(name, node.lineno) for name, fn in inits for cmp in ast.walk(fn)
                        if isinstance(cmp, ast.Compare) for node in ast.walk(cmp)
                        if isinstance(node, ast.Constant) and isinstance(node.value, float)]


def test_probability_rules_live_in_linalg():
    inits, literals = probability_literals(MODULES)
    assert inits >= 2 and literals == []
    old = {"tomography.py": ast.parse(
        "class T:\n    def __post_init__(self):\n        if self.values.min() < -1e-12:\n"
        "            raise ValueError\n")}
    assert probability_literals(old) == (1, [("tomography.py", 3)])


# 2j+1 and 4j read tomography.spin_dim

def _times_2_or_4(expr) -> bool:
    """Whether ``expr`` multiplies anything by the literal 2 or 4."""
    return any(isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Mult)
               and any(isinstance(side, ast.Constant) and side.value in (2, 4)
                       for side in (sub.left, sub.right))
               for sub in ast.walk(expr))


def spin_arithmetic(modules, exempt=("_spin_dim", "three_j")) -> list:
    """(module, enclosing function) of every round(...), np.round(...),
    np.rint(...) or float(...).is_integer() of a product by 2 or 4, outside
    the ``exempt`` functions."""
    found = []

    def visit(name, node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if isinstance(node, ast.Call) and fn not in exempt:
            func = node.func
            called = getattr(func, "id", getattr(func, "attr", None))
            if called in ("round", "rint", "around") and node.args:
                found.extend([(name, fn)] * _times_2_or_4(node.args[0]))
            elif called == "is_integer" and isinstance(getattr(func, "value", None), ast.Call):
                found.extend([(name, fn)] * _times_2_or_4(func.value))
        for child in ast.iter_child_nodes(node):
            visit(name, child, fn)

    for name, tree in modules.items():
        visit(name, tree, None)
    return found


def test_spin_arithmetic_lives_in_spin_dim():
    """No module rounds 2j or 4j to a dimension or a degree, or tests 2j for
    an integer: 2j+1 and 4j read tomography.spin_dim (its cached body
    _spin_dim does the arithmetic). three_j's parity test
    round(2 * (j1 + j2 + j3)) is a selection rule and is exempt by name."""
    assert spin_arithmetic(MODULES) == []
    # the guard does see: both exemptions when they are lifted, and the old forms
    assert sorted(spin_arithmetic(MODULES, exempt=())) == [("tomography.py", "_spin_dim"),
                                                           ("tomography.py", "three_j")]
    old = ast.parse(
        "def f(j):\n    return int(round(2 * j + 1)), int(round(4 * j)), np.rint(j * 2)\n"
        "class HamiltonianSpec:\n    def __post_init__(self):\n"
        "        if isinstance(self.j_e, bool) or not (\n"
        "                2 * self.j_e >= 1 and float(2 * self.j_e).is_integer()):\n"
        "            raise ValueError\n")
    assert spin_arithmetic({"old.py": old}) == [("old.py", "f")] * 3 + [
        ("old.py", "__post_init__")]


# every file format is decided in cli

SCHEMA = re.compile(r"musrtomo/[^/\s]+/v\d")


def file_formats(modules) -> tuple[set, set]:
    """(modules that import json or csv, (module, literal) of each
    'musrtomo/<name>/v<n>' schema string)."""
    imports = {name for name, node in nodes(modules, (ast.Import, ast.ImportFrom))
               for module in ([a.name for a in node.names] if isinstance(node, ast.Import)
                              else [node.module or ""])
               if module.split(".")[0] in ("json", "csv")}
    schemas = {(name, node.value) for name, node in nodes(modules, ast.Constant)
               if isinstance(node.value, str) and SCHEMA.search(node.value)}
    return imports, schemas


def test_file_formats_live_in_cli():
    """No module but cli and materials (which reads material files) imports
    json or csv, and every schema literal sits in cli."""
    imports, schemas = file_formats(MODULES)
    assert imports == {"cli.py", "materials.py"}
    assert {schema for _, schema in schemas} == {
        f"musrtomo/{name}/v1" for name in ("evolve-trace", "histograms", "tomogram-estimate",
                                           "bell-trace")}
    assert {name for name, _ in schemas} == {"cli.py"}
    old = {"musr.py": ast.parse("import csv\nfrom json import dumps\n"
                                "SCHEMA = 'musrtomo/tomogram-estimate/v1'\n")}
    assert file_formats(old) == ({"musr.py"}, {("musr.py", "musrtomo/tomogram-estimate/v1")})


# every cache hands out read-only arrays (tests/test_caches.py) or is exempt

# caches of no array of their own: an int (_spin_dim), a grid whose arrays are
# _grid_arrays' (of_degree), the argument parser (build_parser), and a
# MuonSpinTable, which marks its own arrays read-only (spectral_table)
CACHE_EXEMPT = {"_spin_dim", "of_degree", "build_parser", "spectral_table"}


def cached_functions(modules) -> set:
    """Names of the functions and properties decorated with lru_cache,
    functools.cache or cached_property."""
    found = set()
    for _, node in nodes(modules, (ast.FunctionDef, ast.AsyncFunctionDef)):
        for dec in node.decorator_list:
            dec = dec.func if isinstance(dec, ast.Call) else dec
            if getattr(dec, "attr", getattr(dec, "id", None)) in (
                    "lru_cache", "cache", "cached_property"):
                found.add(node.name)
    return found


def test_every_cache_is_checked_or_exempt():
    """A new cache must join test_caches.CACHED or be named in CACHE_EXEMPT."""
    assert cached_functions(MODULES) == set(CACHED) | CACHE_EXEMPT
    new = ast.parse("@functools.lru_cache(maxsize=8)\ndef table(j):\n    pass\n"
                    "class G:\n    @cached_property\n    def weights(self):\n        pass\n")
    assert cached_functions({"new.py": new}) == {"table", "weights"}


# the public surface: __all__, each name with a caller or paper content

# public names that only tests call, with the topic of PAPER.md they serve
PAPER_CONTENT = {
    "tomogram": "probability representation of quantum spin states",
    "quantizer": "probability representation of quantum spin states",
    "gamma_distribution": "relation between experimental MuSR histograms and muon spin tomograms",
    "reduced_tomogram": "muon spin tomograms",
    "analytic_free_mu_reduced": "Time evolution of muonium",
    "bell_number_of_state": "tomographic analogues of Bell number",
    "positivity_coefficients": "positive partial transpose (PPT) criterion",
    "star_kernel": "positive partial transpose (PPT) criterion",
    "reconstruct_qubit_three_directions": "Reconstruction of the muon-electron spin state",
    "total_tomogram": "total spin tomography of composed system",
    "total_from_individual": "total spin tomography of composed system",
    "blockdiag_rotation": "total spin tomography of composed system",
}


def surface(modules) -> list:
    """Every name that __init__ imports from a module of the package, and
    'Class.method' for every public method (not property) of those classes."""
    names = [alias.name for _, node in nodes({"": modules["__init__.py"]}, ast.ImportFrom)
             for alias in node.names]
    classes = {node.name: node for _, node in nodes(modules, ast.ClassDef)}
    methods = [f"{cls}.{fn.name}" for cls in names if cls in classes
               for fn in classes[cls].body if isinstance(fn, ast.FunctionDef)
               and not fn.name.startswith("_")
               and not {getattr(d, "id", None) for d in fn.decorator_list}
               & {"property", "cached_property"}]
    return names + methods


def callers(trees) -> set:
    """Every name that the parsed trees load, read as an attribute or import,
    and 'Owner.attr' for every attribute read off a name or an attribute
    ``Owner`` (``Class.method`` and ``module.Class.method`` alike)."""
    found = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, (ast.Name, ast.alias)):
            found.add(getattr(node, "id", getattr(node, "name", None)))
        elif isinstance(node, ast.Attribute):
            owner = getattr(node.value, "id", getattr(node.value, "attr", None))
            found |= {node.attr, f"{owner}.{node.attr}"}
    return found


def uncalled(modules, others) -> list:
    """Public names with no caller in the package (but __init__) or ``others``.
    Names are matched by spelling, not by binding: a top-level name counts as
    called wherever that identifier is read, and a method wherever an
    attribute of that name is read, except that a method which more than one
    public class defines counts only where it is read as 'Class.method'."""
    used = callers([tree for name, tree in modules.items() if name != "__init__.py"]
                   + list(others))
    names = surface(modules)
    shared = Counter(name.split(".")[1] for name in names if "." in name)
    return [name for name in names if name not in used and (
        "." not in name or shared[name.split(".")[1]] > 1 or name.split(".")[1] not in used)]


CALLERS_OUTSIDE = [*parse(ROOT / "scripts").values(), *parse(ROOT / "perfbench").values()]


def test_all_declares_the_imported_names():
    assert musrtomo.__all__ == [name for name in surface(MODULES) if "." not in name]


def test_every_public_name_has_a_caller_or_is_paper_content():
    assert sorted(set(uncalled(MODULES, CALLERS_OUTSIDE)) - set(PAPER_CONTENT)) == []
    # each entry is public, still has no caller, and cites PAPER.md
    assert set(PAPER_CONTENT) <= set(uncalled(MODULES, CALLERS_OUTSIDE))
    paper = " ".join((ROOT / "PAPER.md").read_text().split())
    assert [topic for topic in PAPER_CONTENT.values() if topic not in paper] == []
    # the guard does see a test-only oracle that is exported
    old = {"__init__.py": ast.parse("from .reconstruction import MeasurementPlan, forward_model"),
           "reconstruction.py": ast.parse("class MeasurementPlan:\n    def rows(self):\n"
                                          "        pass\ndef forward_model(rho0, plan):\n"
                                          "    return MeasurementPlan\n")}
    assert uncalled(old, []) == ["forward_model", "MeasurementPlan.rows"]
    # a method that two public classes share is called only as 'Class.method'
    pair = {"__init__.py": ast.parse("from .tomography import A, B"),
            "tomography.py": ast.parse("class A:\n    def from_state(self):\n        pass\n"
                                       "class B:\n    def from_state(self):\n        pass\n"
                                       "def use(m):\n    return m.B.from_state(), A\n")}
    assert uncalled(pair, []) == ["A.from_state"]


def test_readme_api_list_matches_all():
    """README's 'Public API' section lists __all__ in order, each name under
    the module that defines it."""
    text = (ROOT / "README.md").read_text().split("## Public API", 1)[1].split("\n## ", 1)[0]
    listed = [(module, name) for module, names in re.findall(r"^- `(\w+)`: (.+?)(?=^- |\Z)",
                                                            text, re.M | re.S)
              for name in re.findall(r"`(\w+)`", names)]
    assert [name for _, name in listed] == musrtomo.__all__
    assert [name for module, name in listed
            if not hasattr(getattr(musrtomo, module), name)] == []
