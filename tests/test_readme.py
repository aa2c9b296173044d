"""The README documents the package's public API."""

import re
import types
from pathlib import Path

import cdrecon

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_export_appears_in_the_library_section():
    # a name counts where it opens a code span (`name`, `name(...)`,
    # `name.field`) or follows the example's `cd.`
    library = README.read_text(encoding="utf-8").split("\n## Library\n")[1].split("\n## ")[0]
    exports = [name for name, value in vars(cdrecon).items()
               if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    missing = [name for name in exports
               if not re.search(rf"(`|\bcd\.){re.escape(name)}\b", library)]
    assert exports and not missing
