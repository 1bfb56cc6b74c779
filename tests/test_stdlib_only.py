"""cubesieve is pure standard library: every import in src/cubesieve names a
standard-library module or cubesieve itself. Its layers import downwards
only, one module owns the bitset codec, and every definition and every
record field has a program reader."""

import ast
import sys
from collections import Counter
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
    "sieve": {"primes"},
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


PERFBENCH = SRC.parent.parent / "perfbench"
# names a program reads without naming them: argparse calls each parser's error
_CALLED_FROM_OUTSIDE = {"harness._Parser.error"}


def _reads(tree: ast.AST):
    """Each name the tree reads: a Name, an Attribute, an import alias, or a
    string constant (the tracer patches functions by attribute name)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_definition_has_a_program_caller():
    # a def or class that only tests read is surface no program path needs
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))}
    read = Counter(name for tree in trees.values() for name in _reads(tree))
    unread = []
    for path, tree in trees.items():
        if path.parent != SRC:
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [(f"{path.stem}.{node.name}", node)]
            if isinstance(node, ast.ClassDef):
                defs += [(f"{path.stem}.{node.name}.{m.name}", m) for m in node.body
                         if isinstance(m, ast.FunctionDef)
                         and not (m.name.startswith("__") and m.name.endswith("__"))]
            # a read inside its own definition (a recursive call) does not count
            unread += [label for label, d in defs
                       if read[d.name] == Counter(_reads(d))[d.name]
                       and label not in _CALLED_FROM_OUTSIDE]
    assert not unread, f"read by no program path: {', '.join(unread)}"


# fields a program reads without naming them: verify's cube-ground-truth
# failure detail prints the rows through their dataclass repr
_READ_BY_REPR = {"cube.ResidueCheckRow.residues"}


def _field_reads(tree: ast.AST):
    """Each field name the tree reads: a loaded attribute, except one off the
    argparse namespace `args` (flags share names with fields), or the
    string-constant name given to getattr. Keyword arguments do not count."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and not (isinstance(node.value, ast.Name) and node.value.id == "args")):
            yield node.attr
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)):
            yield node.args[1].value


def _unread_fields(modules: dict[str, ast.AST], readers) -> list[str]:
    """`module.Class.field` for each annotated class field in `modules` whose
    name no tree in `readers` reads."""
    read = {name for tree in readers for name in _field_reads(tree)}
    return [f"{stem}.{cls.name}.{f.target.id}" for stem, tree in modules.items()
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for f in cls.body if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)
            and f.target.id not in read]


def test_unread_fields_detector():
    record = ast.parse("class R:\n    x: int\n")
    assert _unread_fields({"m": record}, [record]) == ["m.R.x"]
    assert _unread_fields({"m": record}, [record, ast.parse("r.x")]) == []
    assert _unread_fields({"m": record}, [record, ast.parse("args.x")]) == ["m.R.x"]
    assert _unread_fields({"m": record}, [record, ast.parse("R(x=1)")]) == ["m.R.x"]


def test_every_field_has_a_program_reader():
    # a record field no program reads only echoes an input back
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(SRC.glob("*.py"))}
    readers = [*modules.values(), *(ast.parse(path.read_text(encoding="utf-8"))
                                    for path in sorted(PERFBENCH.glob("*.py")))]
    unread = [label for label in _unread_fields(modules, readers) if label not in _READ_BY_REPR]
    assert not unread, f"read by no program path: {', '.join(unread)}"
