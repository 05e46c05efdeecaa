"""Imports inside the package flow one way, from lower layers to higher."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sdnsim"

# Each module may import only modules listed before it.
LAYERS = ("core", "runlog", "contracts", "delay_estimation", "routing",
          "injections", "resilience", "replicate", "kernel", "scenario",
          "harness", "cli")

# The E1/E2 event model: defined in the injections module alone.
INJECTION_NAMES = {
    "LinkDownInjection", "LinkUpInjection", "PedChangeInjection",
    "Injection", "first_events", "MASTER_EVENT_POOL",
    "materialize_injections", "_sorted_times", "_components", "_severable",
    "_idle_matrix", "_expected_path_diary", "_measured_pairs"}


def _imported_modules(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, module) of every sdnsim module the source imports; the
    package's own __version__ is not a module and is left out."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:
                names = [a.name for a in node.names if a.name != "__version__"]
            elif node.level == 1:
                names = [node.module.split(".")[0]]
            elif node.module == "sdnsim":
                names = [a.name for a in node.names]
            elif node.module and node.module.startswith("sdnsim."):
                names = [node.module.split(".")[1]]
            else:
                continue
        elif isinstance(node, ast.Import):
            names = [a.name.split(".")[1] for a in node.names
                     if a.name.startswith("sdnsim.")]
        else:
            continue
        found.extend((node.lineno, name) for name in names)
    return found


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_imports_point_only_to_earlier_layers(module):
    path = PACKAGE / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    allowed = set(LAYERS[:LAYERS.index(module)])
    wrong = [(line, name) for line, name in _imported_modules(tree)
             if name not in allowed]
    assert wrong == [], f"{module} imports a later layer: {wrong}"


def _tree(module: str) -> ast.Module:
    path = PACKAGE / f"{module}.py"
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_replicate_reads_only_transport():
    """Fast-forward takes its kernel as an argument: it imports only the
    topology and record types."""
    imported = {name for _, name in _imported_modules(_tree("replicate"))}
    assert imported <= {"core", "runlog"}


def test_scenario_is_only_the_grammar():
    imported = {name for _, name in _imported_modules(_tree("scenario"))}
    assert imported.isdisjoint({"kernel", "delay_estimation", "routing"})


@pytest.mark.parametrize("module", ["kernel", "scenario"])
def test_injection_names_have_one_home(module):
    """The module defines none of the injection names and imports only
    those it uses itself, so it re-exports none."""
    tree = _tree(module)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    assert defined.isdisjoint(INJECTION_NAMES | {"_first_events"})
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module == "injections"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported <= INJECTION_NAMES
    assert imported <= used, f"unused, so re-exported: {imported - used}"


def test_harness_reads_the_packet_log_through_its_parts():
    """The packet log's layout is runlog's and the kernel's own: harness
    takes a PartLog's parts() and names none of its fields."""
    attributes = {node.attr for node in ast.walk(_tree("harness"))
                  if isinstance(node, ast.Attribute)}
    assert "parts" in attributes
    assert attributes.isdisjoint({"open", "closed", "simulated", "segments"})


def test_resilience_reads_the_kernel_through_named_services():
    """The controller reads no private kernel attribute (self.kernel._*):
    what it compares across cycles comes through named kernel services."""
    private = [(node.lineno, node.attr)
               for node in ast.walk(_tree("resilience"))
               if isinstance(node, ast.Attribute)
               and node.attr.startswith("_")
               and isinstance(node.value, ast.Attribute)
               and node.value.attr == "kernel"
               and isinstance(node.value.value, ast.Name)
               and node.value.value.id == "self"]
    assert private == []


def test_demos_import_only_the_package_and_the_standard_library():
    """The demos run where sdnsim is installed without its test extra, so
    none imports from tests/ (whose conftest imports pytest)."""
    foreign = []
    for demo in sorted((ROOT / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(demo.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = ["." * node.level + (node.module or "")]
            else:
                continue
            foreign.extend((demo.name, name) for name in names
                           if name.split(".")[0] != "sdnsim"
                           and name.split(".")[0]
                           not in sys.stdlib_module_names)
    assert foreign == []
