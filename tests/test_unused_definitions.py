"""Every ``src/`` definition, constant and import is used by program code.

*Program code* is every ``.py`` file under ``src/``, ``tools/``,
``examples/`` and ``benchmarks/`` except ``test_*.py``; everything else
is test code.  A *definition* is a module-level ``def`` or ``class`` in
``src/``, a method of a module-level class, or a module-level constant
(a name a module-level assignment binds); dunder names are left out.  A
definition is *used* when program code outside its own body (or
assignment) names it: as an ``ast.Name``, as an ``ast.Attribute``'s
attribute, or as an identifier-shaped string outside ``__all__``
(``repro.faults.inject`` reaches the ``link_fault`` and
``fault_mark_corrupt`` hooks through ``getattr``).  Imports and
``__all__`` entries are not uses.

An import in a ``src/`` module is *used* when the module names what it
binds as an ``ast.Name``, or re-exports it: lists it in ``__all__``, or
another program file imports it from that module (``from M import N``;
``benchmarks/e2e/workloads.py`` takes ``apply_overrides`` from
``repro.scenarios.config``).

Code that only tests reach is deleted, or moved into ``tests/`` when a
test needs it to reach other behaviour (as ``tests/dram/dram_reference.py``
holds the DRAM scheduler's reference forms).  :data:`ALLOWED` lists the
few kept as deliberate API, each with its reason.  The scan matches
names, not bindings: dead code whose name is also used for something
else goes unseen.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROGRAM_DIRS = ("src", "tools", "examples", "benchmarks")

#: Definitions that only tests use, kept on purpose.
ALLOWED = {
    "repro.crypto.aes.AES128.encrypt_block":
        "how the FIPS-197 known answers reach the cipher keystream runs",
    "repro.obs.leakage.check_fixed_rate":
        "the secure link's timing-leakage audit, a north-star pin",
    "repro.oram.layout.OramLayout.packed_index":
        "the per-block reference of the placement property test",
    "repro.oram.path_oram.PathOram.dummy_access":
        "Fig. 3's dummy access, mixed into the protocol properties",
    "repro.sim.engine.Engine.events_synthesized":
        "engine API the census suites read",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_ASSIGNS = (ast.Assign, ast.AnnAssign)


def _program_files(root):
    for top in PROGRAM_DIRS:
        for dirpath, dirnames, files in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(files):
                if name.endswith(".py") and not name.startswith("test_"):
                    yield os.path.join(dirpath, name)


def _definitions(module, tree):
    """``(qualified name, bare name, node)`` of each definition; a
    constant's node is its assignment, and dunder names (``__all__``)
    are no constants."""
    for node in tree.body:
        if isinstance(node, _DEFS):
            yield f"{module}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for child in node.body:
                    if isinstance(child, _DEFS):
                        yield (f"{module}.{node.name}.{child.name}",
                               child.name, child)
        elif isinstance(node, _ASSIGNS):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for name in ast.walk(target):
                    if (isinstance(name, ast.Name)
                            and not name.id.startswith("__")):
                        yield f"{module}.{name.id}", name.id, node


def _imports(tree):
    """``(bound name, module imported from or None)`` of each import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], None
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            for alias in node.names:
                yield alias.asname or alias.name, node.module


def _all_names(tree):
    """The strings a module-level ``__all__`` assignment lists."""
    return {node.value
            for stmt in tree.body if isinstance(stmt, _ASSIGNS)
            for target in (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target])
            if isinstance(target, ast.Name) and target.id == "__all__"
            for node in ast.walk(stmt.value)
            if isinstance(node, ast.Constant)}


def _uses(tree):
    """``(name, line)`` of each use in one program file."""
    in_all = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            if any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets):
                in_all.update(map(id, ast.walk(node.value)))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in in_all):
            yield node.value, node.lineno


def scan(root):
    """``(defined, unused)``: the qualified names of every ``src/``
    definition under ``root``, and the sorted list of those no program
    code uses, with each unused import as ``"<module>: import <name>"``."""
    definitions, uses, imported, unnamed = [], {}, set(), set()
    for path in _program_files(root):
        with open(path) as fp:
            tree = ast.parse(fp.read(), path)
        bindings = list(_imports(tree))
        imported.update((source, name) for name, source in bindings)
        rel = os.path.relpath(path, os.path.join(root, "src"))
        if not rel.startswith(os.pardir):
            module = rel[:-len(".py")].replace(os.sep, ".")
            if module.endswith(".__init__"):
                module = module[:-len(".__init__")]
            definitions += [(qual, name, path, node) for qual, name, node
                            in _definitions(module, tree)]
            named = {node.id for node in ast.walk(tree)
                     if isinstance(node, ast.Name)} | _all_names(tree)
            unnamed.update((module, name) for name, _source in bindings
                           if name not in named)
        for name, line in _uses(tree):
            uses.setdefault(name, []).append((path, line))
    unused = {f"{module}: import {name}" for module, name in unnamed
              if (module, name) not in imported}
    for qual, name, path, node in definitions:
        if name.startswith("__") and name.endswith("__"):
            continue
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", ())])
        if all(where == path and first <= line <= node.end_lineno
               for where, line in uses.get(name, ())):
            unused.add(qual)
    return {qual for qual, _name, _path, _node in definitions}, sorted(unused)


def test_every_src_definition_is_used_by_program_code():
    defined, unused = scan(ROOT)
    stale = [f"{name}: allowlisted, but "
             f"{'used' if name in defined else 'not defined'}"
             for name in sorted(ALLOWED) if name not in unused]
    assert [name for name in unused if name not in ALLOWED] + stale == []


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def test_scan_flags_test_only_and_unreferenced_code(tmp_path):
    _write(tmp_path / "src" / "pkg" / "__init__.py",
           "from pkg.mod import orphan\n__all__ = ['orphan']\n")
    _write(tmp_path / "src" / "pkg" / "mod.py", (
        "def used():\n    pass\n\n"
        "def only_tested():\n    pass\n\n"
        "def orphan():\n    pass\n\n"
        "def recursive(n):\n    return recursive(n - 1)\n\n"
        "class Frame:\n"
        "    def link_fault(self, kind):\n        return True\n\n"
        "    def __repr__(self):\n        return 'Frame'\n"
    ))
    _write(tmp_path / "tools" / "run.py", (
        "from pkg.mod import Frame, used\n"
        "used()\n"
        "hook = getattr(Frame(), 'link_fault', None)\n"
    ))
    _write(tmp_path / "tests" / "test_mod.py",
           "from pkg.mod import only_tested\nonly_tested()\n")
    _write(tmp_path / "benchmarks" / "test_bench.py",
           "from pkg.mod import recursive\nrecursive(3)\n")
    defined, unused = scan(tmp_path)
    assert defined == {"pkg.mod.used", "pkg.mod.only_tested",
                       "pkg.mod.orphan", "pkg.mod.recursive",
                       "pkg.mod.Frame", "pkg.mod.Frame.link_fault",
                       "pkg.mod.Frame.__repr__"}
    assert unused == ["pkg.mod.only_tested", "pkg.mod.orphan",
                      "pkg.mod.recursive"]


def test_scan_flags_unused_constants_and_imports(tmp_path):
    _write(tmp_path / "src" / "pkg" / "__init__.py", (
        "from pkg.mod import LIMIT, used\n"
        "__all__ = ['LIMIT']\n"
    ))
    _write(tmp_path / "src" / "pkg" / "mod.py", (
        "import os.path\n"
        "import json as codec\n"
        "from typing import Dict, List, Optional\n\n"
        "LIMIT: int = 4\n"
        "ONLY_SELF = ONLY_SELF_TOO = 1\n"
        "SHARED, UNUSED = 1, 2\n"
        "only_tested = {'a': 1}\n\n"
        "def used() -> Dict[str, int]:\n"
        "    from pkg.other import helper\n"
        "    return {os.path.sep: SHARED}\n"
    ))
    _write(tmp_path / "src" / "pkg" / "other.py", (
        "from pkg.mod import used, List\n\n"
        "def helper():\n    return used()\n"
    ))
    _write(tmp_path / "tools" / "run.py", (
        "from pkg import LIMIT, used\n"
        "from pkg.other import helper\n"
        "helper(), used(LIMIT)\n"
    ))
    _write(tmp_path / "tests" / "test_mod.py", (
        "from pkg.mod import only_tested, codec\nonly_tested, codec\n"
    ))
    defined, unused = scan(tmp_path)
    assert defined == {"pkg.mod.LIMIT", "pkg.mod.ONLY_SELF",
                       "pkg.mod.ONLY_SELF_TOO", "pkg.mod.SHARED",
                       "pkg.mod.UNUSED", "pkg.mod.only_tested",
                       "pkg.mod.used", "pkg.other.helper"}
    # A constant named only in its own assignment, or only by tests, is
    # unused; an import is unused unless its module names it, lists it
    # in __all__ (LIMIT in pkg) or another program file imports it from
    # there (List from pkg.mod, used from pkg).
    assert unused == [
        "pkg.mod.ONLY_SELF", "pkg.mod.ONLY_SELF_TOO", "pkg.mod.UNUSED",
        "pkg.mod.only_tested",
        "pkg.mod: import Optional", "pkg.mod: import codec",
        "pkg.mod: import helper",
        "pkg.other: import List",
    ]
