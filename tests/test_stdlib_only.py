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


# the cubesieve modules each module may import; the entry points and the CLI
# harness may import any
_LAYERS = {
    "primes": set(),
    "arithsets": {"primes"},
    "zq": {"primes"},
    "sieve": {"primes", "arithsets"},
    "cube": {"primes", "arithsets"},
    "sunflower": set(),
}
_TOP = {"__init__", "__main__", "harness"}


def _package_imports(path: Path) -> set[str]:
    """The cubesieve modules that one source file imports."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out |= {alias.name.split(".")[1] for alias in node.names
                    if alias.name.startswith("cubesieve.")}
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module == "cubesieve"
                                                   or node.module.startswith("cubesieve.")):
            module = (node.module or "").removeprefix("cubesieve").lstrip(".")
            out |= {module.partition(".")[0]} if module else {a.name for a in node.names}
    return out


def test_package_import_layers():
    paths = sorted(SRC.glob("*.py"))
    assert {path.stem for path in paths} == set(_LAYERS) | _TOP
    edges = {path.stem: _package_imports(path) for path in paths}
    assert edges["cube"] == {"primes", "arithsets"}  # the walk sees relative imports
    extra = {stem: sorted(got - _LAYERS[stem]) for stem, got in edges.items()
             if stem in _LAYERS and got - _LAYERS[stem]}
    assert extra == {}


def _encodes_bitset(node: ast.AST) -> bool:
    """A call of int.from_bytes or of format(<x>, "b")."""
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    if isinstance(f, ast.Attribute) and f.attr == "from_bytes":
        return True
    return (isinstance(f, ast.Name) and f.id == "format" and len(node.args) == 2
            and isinstance(node.args[1], ast.Constant) and node.args[1].value == "b")


def test_bitset_codec_lives_in_primes():
    paths = sorted(SRC.glob("*.py"))
    assert _encodes_bitset(ast.parse('format(x, "b")', mode="eval").body)
    assert _encodes_bitset(ast.parse('int.from_bytes(b, "little")', mode="eval").body)
    offenders = [f"{path.name}:{node.lineno}" for path in paths if path.stem != "primes"
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if _encodes_bitset(node)]
    assert offenders == []
    assert any(_encodes_bitset(node)
               for node in ast.walk(ast.parse((SRC / "primes.py").read_text(encoding="utf-8"))))
