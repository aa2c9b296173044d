"""The README documents the package's public API and command line."""

import importlib
import pkgutil
import re
import types
from pathlib import Path

import cdrecon
from cdrecon import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _sections() -> dict[str, str]:
    """README's level-2 sections by title."""
    parts = README.read_text(encoding="utf-8").split("\n## ")[1:]
    return {part.split("\n", 1)[0]: part.split("\n", 1)[1] for part in parts}


def _module_rows() -> dict[str, list[str]]:
    """The Library table: each row's module and the names in code spans in
    its other cells (a span such as `name.field` counts as `name`)."""
    rows = {}
    for line in _sections()["Library"].splitlines():
        if not line.startswith("| `cdrecon."):
            continue
        module, *cells = line.strip().strip("|").split("|")
        module = module.strip(" `")
        assert module not in rows, f"two rows for {module}"
        rows[module] = [re.match(r"\w*", span).group()
                        for span in re.findall(r"`([^`]+)`", " ".join(cells))]
    return rows


def _public_exports() -> dict[str, object]:
    return {name: value for name, value in vars(cdrecon).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)}


def test_the_library_table_has_one_row_per_module():
    modules = {f"cdrecon.{m.name}" for m in pkgutil.iter_modules(cdrecon.__path__)}
    assert set(_module_rows()) == modules


def test_every_name_in_a_modules_row_is_public_in_that_module():
    wrong = []
    for module_name, names in _module_rows().items():
        module = importlib.import_module(module_name)
        assert names, f"{module_name} row names nothing"
        wrong += [f"{module_name}: {name!r}" for name in names
                  if not name or name.startswith("_") or not hasattr(module, name)
                  or isinstance(getattr(module, name), types.ModuleType)]
    assert not wrong


def test_every_export_appears_in_its_modules_row():
    rows = _module_rows()
    exports = _public_exports()
    missing = [f"{value.__module__}: {name}" for name, value in exports.items()
               if name not in rows.get(value.__module__, ())]
    assert exports and not missing


def _code_outside_install() -> str:
    """The fenced blocks and code spans of every section but "Install and
    test", one piece per line."""
    pieces = []
    for title, text in _sections().items():
        if title == "Install and test":
            continue
        blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S)
        prose = re.sub(r"^```[^\n]*\n.*?^```", "", text, flags=re.M | re.S)
        pieces += [line for block in blocks for line in block.splitlines()]
        pieces += re.findall(r"`([^`\n]+)`", prose)
    return "\n".join(pieces)


def test_every_flag_and_command_readme_shows_exists():
    code = _code_outside_install()
    options = {"--help"} | {f"--{o.name}" for command in cli._COMMANDS.values()
                            for o in cli._COMMON + command.opts}
    flags = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", code))
    # a line or span that starts with `cdrecon <name>`; an upper-case word
    # such as COMMAND is a placeholder
    commands = set(re.findall(r"^\s*cdrecon ([a-z][\w-]*)", code, flags=re.M))
    assert flags and not flags - options
    assert commands and not commands - set(cli._COMMANDS)
