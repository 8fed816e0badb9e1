"""Reachable surface only: every public name in ``src/repro`` has a caller.

A public top-level ``def`` or ``class`` in a non-``__init__`` module, and
each public method or property of a top-level class, is *reached* when
some file under ``src/``, ``benchmarks/``, ``examples/`` or ``scripts/``
refers to its name in code, outside the def's own body.  A code
reference is a ``Name``, a ``from ... import`` or an ``Attribute``; an
attribute read through a module imported from outside ``repro``
(``np.fft.fft``, ``math.sqrt``) is none, and one on anything but an
imported name (``self.apply``, ``layer.weight``) reaches only methods and
properties.  A package ``__init__``'s re-exports and ``__all__`` strings
do not count, and neither do docstrings: a name that only its own tests
call is not part of what the program does.  CONTRIBUTING's "Reachable surface" section says
how to add to the allowlist.

The same file holds the project's prose to lines of at most 400
characters, and fails on a ``benchmarks/bench_*.py`` that nothing runs:
each is a script of ``scripts/check_bench.py``'s ``MANIFEST`` or lies
under a path that ``ci.yml``'s ``paper`` suite passes to pytest.
"""

import ast
import importlib.util
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
SEARCHED = ("src", "benchmarks", "examples", "scripts")
DOCS = ("CHANGES.md", "CONTRIBUTING.md", "README.md", "ROADMAP.md")
MAX_DOC_LINE = 400

# Name (``Class.name`` for a method) -> the one-line reason it stays
# although no code runs it.  Each
# reason is one of the keep list's: a type that enforces a condition, a
# hook that lets a test substitute a fake, or an oracle tests compare
# against.  ``*_reference`` oracles are allowed by their suffix.
ALLOWED = {
    "Engine": "type: the Protocol test_api.py checks both engines against",
    "set_registry": "hook: lets a test install a fake telemetry registry",
    "use_telemetry": "hook: scopes telemetry on or off around one test",
    "validate_program": "oracle: the stream invariants tests check every "
                        "compiled program against",
    "AdaptableButterflyUnit.butterfly_op": "oracle: one butterfly pair-op, "
                                           "which test_properties replays "
                                           "every engine tile through",
    "AdaptableButterflyUnit.fft_op": "oracle: one FFT pair-op, which "
                                     "test_properties replays every engine "
                                     "tile through",
    "stage_vjp": "oracle: the per-stage VJP that the fused kernels' tests "
                 "compare against",
}

_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _public_defs(trees):
    """``{(name, is_member): {path: [(first, last, label)]}}`` of each
    public top-level def or class (labelled ``name``) and each public
    method or property of a top-level class (labelled ``Class.name``)."""
    defs = {}
    for path, tree in trees.items():
        if path.name == "__init__.py":
            continue
        for node in tree.body:
            if not isinstance(node, (*_DEFS, ast.ClassDef)):
                continue
            members = [(node, node.name, False)]
            if isinstance(node, ast.ClassDef):
                members += [(member, f"{node.name}.{member.name}", True)
                            for member in node.body
                            if isinstance(member, _DEFS)]
            for member, label, is_member in members:
                if not member.name.startswith("_"):
                    defs.setdefault((member.name, is_member), {}).setdefault(
                        path, []).append(
                            (member.lineno, member.end_lineno, label))
    return defs


def _imports(tree):
    """``{bound name: whether it was imported from repro}`` of every
    import in ``tree`` (a relative import is repro's)."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                repro = alias.name.split(".")[0] == "repro"
                bound[name] = bound.get(name, False) or repro
        elif isinstance(node, ast.ImportFrom):
            repro = node.level > 0 or (node.module or "").split(".")[0] == "repro"
            for alias in node.names:
                name = alias.asname or alias.name
                bound[name] = bound.get(name, False) or repro
    return bound


def _root(node):
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _references(tree, is_init):
    """Yield ``(name, line, members_only)`` for every code reference in
    ``tree``.  An attribute read through a non-repro import (``np.fft.fft``)
    is no reference; one on anything but an imported name (``self.x``,
    ``f().x``) reaches methods and properties only."""
    imports = _imports(tree)
    for node in ast.walk(tree):
        kind = type(node)
        if kind is ast.Name:
            yield node.id, node.lineno, False
        elif kind is ast.Attribute:
            repro = imports.get(_root(node.value))
            if repro is not False:
                yield node.attr, node.lineno, repro is None
        elif kind is ast.ImportFrom and not is_init:
            for alias in node.names:
                yield alias.name, node.lineno, False


def unreached_names(root=ROOT, allowed=ALLOWED):
    """``module:label`` for each public def, class, method or property no
    code refers to, and ``allowlist:label`` for each entry that is
    undefined or reached."""
    package = root / "src" / "repro"
    trees = {path: ast.parse(path.read_text())
             for path in sorted(package.rglob("*.py"))}
    defs = _public_defs(trees)
    pending = set(defs)
    for top in SEARCHED:
        for path in sorted((root / top).rglob("*.py")):
            text = path.read_text()
            # Parsing dominates the cost: skip files naming nothing pending.
            if {name for name, _ in pending}.isdisjoint(
                    _IDENTIFIER.findall(text)):
                continue
            tree = trees.get(path) or ast.parse(text)
            for name, line, members_only in _references(
                    tree, path.name == "__init__.py"):
                for key in ((name, True),) if members_only else (
                        (name, False), (name, True)):
                    if key in pending and not any(
                            first <= line <= last
                            for first, last, _ in defs[key].get(path, ())):
                        pending.discard(key)
    unreached = [(path, label)
                 for key in pending if not key[0].endswith("_reference")
                 for path, entries in defs[key].items()
                 for _, _, label in entries]
    flagged = [f"{path.relative_to(package)}:{label}"
               for path, label in unreached if label not in allowed]
    labels = {label for _, label in unreached}
    stale = [f"allowlist:{label}" for label in allowed if label not in labels]
    return sorted(flagged + stale)


def long_prose_lines(root=ROOT):
    """``file:line`` for each line of the root docs over the limit."""
    return [
        f"{name}:{number}"
        for name in DOCS
        for number, line in enumerate(
            (root / name).read_text().splitlines(), 1)
        if len(line) > MAX_DOC_LINE]


def _manifest_scripts(root):
    path = root / "scripts" / "check_bench.py"
    spec = importlib.util.spec_from_file_location("_check_bench", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return {bench.script for bench in module.MANIFEST}


def _paper_suite_benches(root):
    """Names of the benches matched by the ``paper`` suite's paths."""
    ci = (root / ".github" / "workflows" / "ci.yml").read_text()
    suite = re.search(r"- suite: paper\n(.*?)(?=\n *- suite: |\n *steps:|\Z)",
                      ci, re.S)
    patterns = re.findall(r"benchmarks/\S+", suite.group(1)) if suite else []
    return {path.name for pattern in patterns for path in root.glob(pattern)}


def unrun_benches(root=ROOT):
    """``bench_*.py`` files that neither ``check_bench`` nor CI's ``paper``
    suite runs."""
    run = _manifest_scripts(root) | _paper_suite_benches(root)
    return sorted(path.name for path in (root / "benchmarks").glob("bench_*.py")
                  if path.name not in run)


def test_every_public_name_is_reached():
    assert unreached_names() == []


def test_prose_lines_are_short():
    assert long_prose_lines() == []


def test_every_bench_is_run():
    assert unrun_benches() == []


# --- The scanner itself, on small trees laid out like this repository. ---

DEF = "def target():\n    return 1\n"


def _tree(root, files):
    """Write ``{relative path: source}`` under ``root`` as a repository."""
    files = {"src/repro/__init__.py": "", **files}
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return root


def _scan(tmp_path, files, allowed=()):
    return unreached_names(_tree(tmp_path, files), dict.fromkeys(allowed, ""))


class TestScanner:
    def test_unused_def_is_flagged(self, tmp_path):
        assert _scan(tmp_path, {"src/repro/mod.py": DEF}) == ["mod.py:target"]

    def test_call_from_another_module_reaches(self, tmp_path):
        assert _scan(tmp_path, {
            "src/repro/mod.py": DEF,
            "src/repro/user.py": "from .mod import target\n\n"
                                 "def run():\n    return target()\n",
            "examples/demo.py": "from repro.user import run\nrun()\n",
        }) == []

    def test_reference_inside_own_body_does_not_reach(self, tmp_path):
        recursive = "def target(n):\n    return target(n - 1) if n else 0\n"
        assert _scan(tmp_path, {"src/repro/mod.py": recursive}) == [
            "mod.py:target"]

    def test_call_below_the_def_in_its_own_module_reaches(self, tmp_path):
        assert _scan(tmp_path, {
            "src/repro/mod.py": DEF + "\nVALUE = target()\n"}) == []

    def test_docstring_mention_does_not_reach(self, tmp_path):
        assert _scan(tmp_path, {
            "src/repro/mod.py": DEF,
            "src/repro/other.py": '"""Unlike ``target``, this ..."""\n',
        }) == ["mod.py:target"]

    def test_all_string_does_not_reach(self, tmp_path):
        assert _scan(tmp_path, {
            "src/repro/mod.py": DEF + '\n__all__ = ["target"]\n',
        }) == ["mod.py:target"]

    def test_package_reexport_does_not_reach(self, tmp_path):
        assert _scan(tmp_path, {
            "src/repro/__init__.py": "from .mod import target\n",
            "src/repro/mod.py": DEF,
        }) == ["mod.py:target"]

    def test_code_in_a_package_init_reaches(self, tmp_path):
        """Like ``kernels/__init__.py``'s ``butterfly_apply`` calling
        ``grouped_forward``: the init's own code is a caller."""
        assert _scan(tmp_path, {
            "src/repro/__init__.py": "from .mod import target\n\n"
                                     "def apply():\n    return target()\n",
            "src/repro/mod.py": DEF,
        }) == []

    def test_attribute_reference_reaches(self, tmp_path):
        assert _scan(tmp_path, {
            "src/repro/mod.py": DEF,
            "scripts/tool.py": "from repro import mod\nmod.target()\n",
        }) == []

    @pytest.mark.parametrize("source", [
        "import numpy as np\nnp.fft.target()\n",
        "import math\nmath.target(2.0)\n",
        "from os import path\npath.target()\n",
    ], ids=["aliased", "plain", "from-import"])
    def test_attribute_through_a_foreign_import_does_not_reach(
            self, tmp_path, source):
        """``np.fft.fft`` is numpy's ``fft``, not a same-named def here."""
        assert _scan(tmp_path, {
            "src/repro/mod.py": DEF,
            "scripts/tool.py": source,
        }) == ["mod.py:target"]

    def test_attribute_through_a_foreign_import_reaches_no_method(
            self, tmp_path):
        assert _scan(tmp_path, {
            "src/repro/mod.py": self.BOX + "\nBOX = Box()\n",
            "scripts/tool.py": "import math\nmath.target(2.0)\n",
        }) == ["mod.py:Box.target"]

    def test_attribute_on_a_value_reaches_methods_only(self, tmp_path):
        """``box.target()`` may call ``Box.target``; it never calls the
        top-level ``target`` def, whatever ``box`` is."""
        assert _scan(tmp_path, {
            "src/repro/mod.py": DEF + "\n\n" + self.BOX + "\nBOX = Box()\n",
            "examples/demo.py": "def run(box):\n    return box.target()\n",
        }) == ["mod.py:target"]

    def test_attribute_on_a_relative_import_reaches(self, tmp_path):
        assert _scan(tmp_path, {
            "src/repro/mod.py": DEF,
            "src/repro/user.py": "from . import mod\n\nVALUE = mod.target()\n",
        }) == []

    def test_from_import_outside_an_init_reaches(self, tmp_path):
        assert _scan(tmp_path, {
            "src/repro/mod.py": DEF,
            "benchmarks/bench.py": "from repro.mod import target\n",
        }) == []

    @pytest.mark.parametrize("top", ["src", "benchmarks", "examples",
                                     "scripts"])
    def test_each_searched_tree_counts(self, tmp_path, top):
        assert _scan(tmp_path, {
            "src/repro/mod.py": DEF,
            f"{top}/caller.py": "import repro.mod\nrepro.mod.target()\n",
        }) == []

    def test_a_reference_from_tests_does_not_reach(self, tmp_path):
        assert _scan(tmp_path, {
            "src/repro/mod.py": DEF,
            "tests/test_mod.py": "from repro.mod import target\n"
                                 "assert target() == 1\n",
        }) == ["mod.py:target"]

    @pytest.mark.parametrize("source", [
        "class Target:\n    pass\n",
        "async def target():\n    return 1\n",
    ], ids=["class", "async-def"])
    def test_classes_and_async_defs_are_scanned(self, tmp_path, source):
        assert len(_scan(tmp_path, {"src/repro/mod.py": source})) == 1

    def test_private_and_nested_names_are_not_scanned(self, tmp_path):
        assert _scan(tmp_path, {
            "src/repro/mod.py": "def _helper():\n    pass\n\n"
                                "class Box:\n    def _hidden(self):\n"
                                "        pass\n\n"
                                "    def method(self):\n"
                                "        def inner():\n            pass\n"
                                "        return inner\n\n"
                                "BOX = Box().method()\n",
        }) == []

    BOX = "class Box:\n    def target(self):\n        return 1\n"

    def test_unused_method_is_flagged(self, tmp_path):
        assert _scan(tmp_path, {
            "src/repro/mod.py": self.BOX + "\nBOX = Box()\n",
        }) == ["mod.py:Box.target"]

    def test_called_method_is_reached(self, tmp_path):
        assert _scan(tmp_path, {
            "src/repro/mod.py": self.BOX,
            "examples/demo.py": "from repro.mod import Box\nBox().target()\n",
        }) == []

    def test_property_read_is_reached(self, tmp_path):
        assert _scan(tmp_path, {
            "src/repro/mod.py": "class Box:\n    @property\n"
                                "    def target(self):\n        return 1\n",
            "scripts/tool.py": "from repro.mod import Box\n"
                               "print(Box().target)\n",
        }) == []

    def test_call_inside_the_methods_own_body_does_not_reach(self, tmp_path):
        recursive = ("class Box:\n    def target(self, n):\n"
                     "        return self.target(n - 1) if n else 0\n\n"
                     "BOX = Box()\n")
        assert _scan(tmp_path, {"src/repro/mod.py": recursive}) == [
            "mod.py:Box.target"]

    def test_method_called_only_from_tests_is_flagged(self, tmp_path):
        assert _scan(tmp_path, {
            "src/repro/mod.py": self.BOX + "\nBOX = Box()\n",
            "tests/test_mod.py": "from repro.mod import Box\n"
                                 "Box().target()\n",
        }) == ["mod.py:Box.target"]

    def test_allowlisted_method_passes(self, tmp_path):
        assert _scan(tmp_path, {
            "src/repro/mod.py": self.BOX + "\nBOX = Box()\n",
        }, allowed=["Box.target"]) == []

    def test_reached_allowlisted_method_is_stale(self, tmp_path):
        assert _scan(tmp_path, {
            "src/repro/mod.py": self.BOX,
            "examples/demo.py": "from repro.mod import Box\nBox().target()\n",
        }, allowed=["Box.target"]) == ["allowlist:Box.target"]

    def test_init_modules_define_no_surface(self, tmp_path):
        assert _scan(tmp_path, {"src/repro/__init__.py": DEF}) == []

    def test_same_name_in_two_modules_is_flagged_in_both(self, tmp_path):
        assert _scan(tmp_path, {
            "src/repro/a.py": DEF,
            "src/repro/sub/__init__.py": "",
            "src/repro/sub/b.py": DEF,
        }) == ["a.py:target", "sub/b.py:target"]

    def test_reference_oracles_are_allowed_by_suffix(self, tmp_path):
        assert _scan(tmp_path, {
            "src/repro/mod.py": "def dense_reference(x):\n    return x\n",
        }) == []

    def test_allowlisted_name_passes(self, tmp_path):
        assert _scan(tmp_path, {"src/repro/mod.py": DEF},
                     allowed=["target"]) == []

    def test_reached_allowlist_entry_is_stale(self, tmp_path):
        assert _scan(tmp_path, {
            "src/repro/mod.py": DEF + "\nVALUE = target()\n",
        }, allowed=["target"]) == ["allowlist:target"]

    def test_undefined_allowlist_entry_is_stale(self, tmp_path):
        assert _scan(tmp_path, {"src/repro/mod.py": DEF + "\ntarget()\n"},
                     allowed=["gone"]) == ["allowlist:gone"]

    def test_every_allowlist_reason_names_its_keep_rule(self):
        assert all(reason.split(":")[0] in ("type", "hook", "oracle")
                   for reason in ALLOWED.values())

    def test_kernels_init_calls_grouped_forward(self):
        path = PACKAGE / "kernels" / "__init__.py"
        names = {name for name, _, _ in _references(
            ast.parse(path.read_text()), is_init=True)}
        assert "grouped_forward" in names


class TestProseScan:
    @pytest.mark.parametrize("width, flagged", [
        (MAX_DOC_LINE, []),
        (MAX_DOC_LINE + 1, ["README.md:2"]),
    ], ids=["at-limit", "over-limit"])
    def test_line_width(self, tmp_path, width, flagged):
        for name in DOCS:
            (tmp_path / name).write_text("# Title\n")
        (tmp_path / "README.md").write_text("# Title\n" + "x" * width + "\n")
        assert long_prose_lines(tmp_path) == flagged


class TestBenchScan:
    CHECK_BENCH = ("from collections import namedtuple\n"
                   'Bench = namedtuple("Bench", "name script")\n'
                   'MANIFEST = (Bench("load", "bench_load.py"),)\n')
    CI = ("jobs:\n  test:\n    strategy:\n      matrix:\n        include:\n"
          "          - suite: paper\n            run: |\n"
          "              python -m pytest -q \\\n"
          "                benchmarks/bench_fig*.py\n"
          "          - suite: core\n"
          "            run: python -m pytest benchmarks/bench_other.py\n"
          "    steps:\n      - run: python benchmarks/bench_other.py\n")

    def _unrun(self, tmp_path, names, ci=CI):
        return unrun_benches(_tree(tmp_path, {
            "scripts/check_bench.py": self.CHECK_BENCH,
            ".github/workflows/ci.yml": ci,
            **{f"benchmarks/{name}": "" for name in names},
        }))

    def test_manifest_and_paper_benches_are_run(self, tmp_path):
        assert self._unrun(tmp_path, ["bench_load.py", "bench_fig01.py"]) == []

    def test_a_bench_only_another_suite_names_is_flagged(self, tmp_path):
        assert self._unrun(tmp_path, ["bench_other.py"]) == ["bench_other.py"]

    def test_dropping_the_paper_suite_flags_its_benches(self, tmp_path):
        ci = self.CI.replace("- suite: paper", "- suite: papers")
        assert self._unrun(tmp_path, ["bench_fig01.py"], ci) == [
            "bench_fig01.py"]
