import ast
import re
from pathlib import Path

import dispgrid

PACKAGE = Path(dispgrid.__file__).parent


def test_no_module_imports_a_private_name_of_a_sibling():
    # a module's underscore names are its own: siblings reach it through public names
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                private += [
                    f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") and not alias.name.endswith("__")
                ]
    assert private == []


def test_readme_public_api_lists_every_public_name():
    # every backticked name in the README's Public API section, and nothing else
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    section = readme.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    listed = {span for span in re.findall(r"`([^`]+)`", section) if span.isidentifier()}
    assert listed == set(dispgrid.__all__) - {"__version__"}
