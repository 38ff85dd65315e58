"""The package's surface: its exports and the options its functions take."""
import ast
import importlib
import inspect
from pathlib import Path

import cavdet
from cavdet import optimize

PACKAGE = Path(cavdet.__file__).resolve().parent
ROOT = PACKAGE.parent.parent

# defaulted parameters of the functions in src/cavdet; options only tests
# set are removed, so this number only goes down
MAX_DEFAULTED_PARAMETERS = 9

# public names that only tests use: the paper's closed forms and scaling
# helpers, kept for a report that prints them as cross-checks.  A name
# leaves this set when a caller outside the tests appears or the name is
# deleted; no name joins it, so a test-only oracle lives in tests/oracles.py
TEST_ONLY_NAMES = {
    "fluorescence_reference",
    "geometric_cooperativity",
    "loss_fraction_to_rate",
    "m_homodyne",
    "m_weak_limit",
    "n_out_required",
    "round_trips_and_finesse",
    "snr_homodyne_strong_limit",
    "snr_homodyne_weak_limit",
    "snr_low_saturation",
    "snr_strong_limit",
    "snr_weak_limit",
}


def _definitions(path: Path) -> set[str]:
    """The names a module's top level defines: its classes, functions and assignments."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_all_is_every_public_name():
    # the first read of a public name binds them all; after it, the package
    # holds exactly the table's names, each the object its home module defines
    cavdet.MHZ
    public = {
        name
        for name, value in vars(cavdet).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert len(cavdet.__all__) == len(set(cavdet.__all__))
    assert set(cavdet.__all__) == public
    definitions = {p.stem: _definitions(p) for p in PACKAGE.glob("*.py")}
    for module, names in cavdet._HOMES.items():
        home = importlib.import_module(f"cavdet.{module}")
        for name in names:
            # defined in its home module and in no other
            assert [m for m, defined in definitions.items() if name in defined] == [module]
            assert vars(cavdet)[name] is vars(home)[name], f"cavdet.{name} is not {module}'s"


def _referenced_names(path: Path) -> set[str]:
    """Every name a module reads, imports or takes as an attribute; not its docstrings."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_public_names_have_a_caller_outside_the_tests():
    modules = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    for tree in ("scripts", "perfbench"):
        modules += [p for p in (ROOT / tree).rglob("*.py") if "tests" not in p.parts]
    referenced = set().union(*map(_referenced_names, modules))
    assert set(cavdet.__all__) - referenced <= TEST_ONLY_NAMES


def _defaulted_parameters(path: Path) -> int:
    count = 0
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
    return count


def test_defaulted_parameters_do_not_grow():
    assert sum(map(_defaulted_parameters, PACKAGE.glob("*.py"))) <= MAX_DEFAULTED_PARAMETERS


def _parameters(fn):
    return [(p.name, p.default) for p in inspect.signature(fn).parameters.values()]


def test_optimizer_signatures_are_pinned():
    # where a polish starts and when it stops, and the photon-number range
    # the pump optimizer scans, are the optimizer's own decisions, not options
    empty = inspect.Parameter.empty
    assert _parameters(optimize.golden_max) == [
        ("f", empty), ("lo", empty), ("hi", empty), ("rel_tol", empty)
    ]
    assert _parameters(optimize.best_pump) == [
        ("snr", empty), ("atom", empty), ("cavity", empty), ("tau", empty)
    ]
    assert _parameters(optimize.max_over_kappa_t) == [
        ("snr", empty), ("atom", empty), ("cavity", empty), ("tau", empty), ("bounds", None)
    ]
