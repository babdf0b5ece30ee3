import ast
import contextlib
import importlib
import io
import re
from pathlib import Path

import pytest

from su2qfi.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
SOURCES = [*sorted((Path(__file__).resolve().parents[1] / "src" / "su2qfi").glob("*.py")),
           Path(__file__).resolve().parent / "reference_oracles.py"]
MODULES = ("su2qfi", "su2qfi.spin", "su2qfi.generator", "su2qfi.numerics", "su2qfi.cases")


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_readme_names_every_exported_name():
    text = README.read_text()
    su2qfi = importlib.import_module("su2qfi")
    assert [name for name in su2qfi.__all__ if name != "__version__" and not re.search(rf"\b{name}\b", text)] == []


def test_readme_lists_only_exported_names():
    # the converse: the list of other public names names nothing that the package does not export
    block = re.search(r"The other public names:\n\n((?:- .*\n(?:  .*\n)*)+)", README.read_text()).group(1)
    listed = re.findall(r"^- `(\w+)", block, re.M)
    assert len(listed) > 5
    assert [name for name in listed if name not in importlib.import_module("su2qfi").__all__] == []


def _parser_options(parser):
    """Every long option of ``parser`` and of its subcommands."""
    options = set()
    for action in parser._actions:
        options.update(name for name in action.option_strings if name.startswith("--"))
        if isinstance(action.choices, dict):   # the subcommands' parsers
            for sub in action.choices.values():
                options |= _parser_options(sub)
    return options


def test_readme_and_parser_name_the_same_options():
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", README.read_text())) - {"--no-build-isolation"}
    options = _parser_options(build_parser())
    assert sorted(options - named) == []
    assert sorted(named - options) == []


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {})
        assert out.getvalue()


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_every_imported_name_is_used_or_exported(path):
    tree = ast.parse(path.read_text())
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {element.value
                for node in ast.walk(tree)
                if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                for element in node.value.elts}
    assert sorted(imported - used - exported) == []
