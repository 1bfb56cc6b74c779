"""cubesieve is pure standard library: every import in src/cubesieve names a
standard-library module or cubesieve itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cubesieve"


def test_package_imports_only_stdlib():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    offenders = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = ["cubesieve" if node.level else node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "cubesieve" and top not in sys.stdlib_module_names:
                    offenders.append(f"{path.name}:{node.lineno}: {name}")
    assert offenders == []
