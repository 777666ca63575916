"""The installed package holds only code that the command line, the
benchmark or the scripts run.

An AST scan collects every function and class defined in ``src/``.  A
name counts as read when it appears as a ``Name``, an ``Attribute`` or an
import alias in ``src/``, ``bench/`` or ``scripts/``, outside its own
definition; a word inside a string constant in ``bench/`` counts too,
because ``bench/tracing.py`` names its targets as strings.  A read from
inside a definition that is itself unread does not count, so the scan
iterates to a fixed point.  References that tests compare the package
against belong in ``tests/reference.py``."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# kept although nothing outside tests/ reads it, each with its reason;
# dunder methods are called by Python itself and are kept as well
ALLOWED = {
    "basis_prefix": "acceptance criterion 5, the filtration B_i",
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _scan(tree, defs, reads, prefix="", words=False):
    """Record the definitions of a module as (qualified name, name,
    parent index) in defs and its reads as (name, enclosing definition
    index or None) in reads; a read of a name inside a definition of
    that name is left out."""
    def visit(node, owner, names):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEFS):
                qual = (prefix if owner is None
                        else defs[owner][0] + ".") + child.name
                defs.append((qual, child.name, owner))
                visit(child, len(defs) - 1, names | {child.name})
                continue
            if isinstance(child, ast.Name):
                found = [child.id]
            elif isinstance(child, ast.Attribute):
                found = [child.attr]
            elif isinstance(child, ast.alias):
                found = [child.name.rsplit(".", 1)[-1]]
            elif (words and isinstance(child, ast.Constant)
                  and isinstance(child.value, str)):
                found = _WORD.findall(child.value)
            else:
                found = []
            reads.extend((n, owner) for n in found if n not in names)
            visit(child, owner, names)
    visit(tree, None, frozenset())


def _kept(name):
    return (name.startswith("__") and name.endswith("__")) \
        or name in ALLOWED


def unread_definitions(root=ROOT):
    """The definitions in src/ that nothing outside tests/ reads, as
    ``module:qualified.name``; those inside one are left out."""
    src = root / "src"
    defs, reads = [], []
    for path in sorted(src.rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        _scan(ast.parse(path.read_text()), defs, reads, module + ":")
    outside = []
    for sub, words in (("bench", True), ("scripts", False)):
        for path in sorted((root / sub).rglob("*.py")):
            _scan(ast.parse(path.read_text()), [], outside, words=words)
    # bench/ and scripts/ define nothing of the package: all their reads
    # count, from wherever they stand
    live_reads = {n for n, _owner in outside}
    live = [False] * len(defs)
    changed = True
    while changed:
        changed = False
        for i, (_qual, name, parent) in enumerate(defs):
            if not live[i] and (parent is None or live[parent]) \
                    and (_kept(name) or name in live_reads):
                live[i] = changed = True
        live_reads |= {n for n, owner in reads
                       if owner is None or live[owner]}
    return sorted(qual for (qual, _n, parent), ok in zip(defs, live)
                  if not ok and (parent is None or live[parent]))


def test_package_defines_nothing_only_tests_read():
    assert unread_definitions() == []


def test_scan_follows_reads_to_a_fixed_point(tmp_path):
    """A read from inside an unread definition does not count, and a
    recursive call is no read of the function it sits in."""
    (tmp_path / "src").mkdir()
    (tmp_path / "bench").mkdir()
    (tmp_path / "scripts").mkdir()
    (tmp_path / "src" / "m.py").write_text(
        "def used():\n    return helper()\n\n"
        "def helper():\n    return 1\n\n"
        "def dead():\n    return inner()\n\n"
        "def inner():\n    return inner()\n\n"
        "class C:\n    def traced(self):\n        pass\n\n"
        "    def __repr__(self):\n        return ''\n")
    (tmp_path / "bench" / "b.py").write_text(
        "import m\nm.used()\nTARGET = 'm:C.traced'\n")
    assert unread_definitions(tmp_path) == ["m:dead", "m:inner"]
