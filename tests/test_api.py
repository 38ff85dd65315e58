"""The package's surface: its exports and the options its functions take."""
import ast
import inspect
from pathlib import Path

import cavdet

PACKAGE = Path(cavdet.__file__).resolve().parent

# defaulted parameters of the functions in src/cavdet; options only tests
# set are removed, so this number only goes down
MAX_DEFAULTED_PARAMETERS = 15


def test_all_is_every_public_name():
    # a class or function moved between modules cannot leave a stale export
    public = {
        name
        for name, value in vars(cavdet).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert len(cavdet.__all__) == len(set(cavdet.__all__))
    assert set(cavdet.__all__) == public


def _defaulted_parameters(path: Path) -> int:
    count = 0
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
    return count


def test_defaulted_parameters_do_not_grow():
    assert sum(map(_defaulted_parameters, PACKAGE.glob("*.py"))) <= MAX_DEFAULTED_PARAMETERS
