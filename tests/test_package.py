import ast
import importlib
from pathlib import Path

import pytest

import weyldelta

MODULES = sorted(Path(weyldelta.__file__).parent.glob("*.py"))


def unused_imports(source: str):
    """Names a module imports and never reads, by a walk of its syntax tree."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_guard_sees_an_unused_import():
    source = "from typing import Optional, Tuple\nimport numpy as np\n\nx: Tuple = np.pi\n"
    assert unused_imports(source) == [(1, "Optional")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def attribute_reads(source: str, attrs):
    """(line, name) of every read of an attribute named in `attrs`."""
    return sorted(
        (node.lineno, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and node.attr in attrs
    )


CONVERGENCE_FLAGS = ("budget_exhausted", "depth_capped")  # of an OscillatoryResult


def test_the_guard_sees_a_convergence_flag_read():
    source = (
        "res = integrate_1d(g, f, 0.0, 1.0)\n"
        "if res.depth_capped or res.value:\n"
        "    res.budget_exhausted = True\n"
        "report = {'budget_exhausted': res.budget_exhausted}\n"
    )
    found = attribute_reads(source, CONVERGENCE_FLAGS)
    assert found == [(2, "depth_capped"), (4, "budget_exhausted")]


def test_only_oscillate_reads_the_convergence_flags():
    # the rule that turns them into an error is OscillatoryResult.converged
    reads = {
        path.name: attribute_reads(path.read_text(encoding="utf-8"), CONVERGENCE_FLAGS)
        for path in MODULES
        if path.name != "oscillate.py"
    }
    assert {name: found for name, found in reads.items() if found} == {}


def test_the_guard_sees_a_family_read():
    source = (
        "holo = form.kind.family == 'holomorphic'\n"
        "kind = GammaFactorKind(family='maass')\n"
        "kind.family = 'maass'\n"
        "signs = (+1,) if kind.family == 'holomorphic' else (+1, -1)\n"
    )
    assert attribute_reads(source, ("family",)) == [(1, "family"), (4, "family")]


def test_the_dual_pipeline_reads_no_form_family():
    # its terms, holomorphic or Maass, come from the one table voronoi.dual_terms
    source = (Path(weyldelta.__file__).parent / "deltapipe.py").read_text(encoding="utf-8")
    assert attribute_reads(source, ("family",)) == []


FORM_RULES = ("chi_at", "eps_g", "epsilon_g")  # the form's data behind the dual term weight


def rule_reads(source: str):
    """(enclosing function, name) of every read of a FORM_RULES attribute."""
    tree = ast.parse(source)
    scopes = [(node.lineno, node.end_lineno, name) for name, node in definitions(tree)]
    out = set()
    for line, attr in attribute_reads(source, FORM_RULES):
        inner = [(lo, name) for lo, hi, name in scopes if lo <= line <= hi]
        out.add((max(inner)[1] if inner else "<module>", attr))
    return sorted(out)


def test_the_guard_names_the_function_of_a_rule_read():
    source = (
        "def weight(form, c):\n"
        "    return form.chi_at(-c) * form.eps_g\n\n\n"
        "class Form:\n"
        "    def flip(self):\n"
        "        self.epsilon_g = -self.epsilon_g\n\n\n"
        "unit = form.chi_at(1)\n"
    )
    assert rule_reads(source) == [
        ("<module>", "chi_at"), ("Form.flip", "epsilon_g"), ("weight", "chi_at"), ("weight", "eps_g")
    ]


def test_only_the_term_weight_reads_the_form_rules():
    # chi(-sign c), eps_g and the twist of each dual term have one home, voronoi.term_weight
    reads = {
        (path.name, scope, attr)
        for path in MODULES
        if path.name != "forms.py"
        for scope, attr in rule_reads(path.read_text(encoding="utf-8"))
    }
    assert reads == {("voronoi.py", "term_weight", "chi_at"), ("voronoi.py", "term_weight", "eps_g")}


# Library names that no library module and no perfbench script reaches: each
# is the oracle of the named test (or, for multiplicative_extension, the
# fixture generator that the level and nebentypus forms of ROADMAP item 1
# build on).
ORACLES = {
    "ramanujan_tau_naive": "tests/test_forms.py::test_tau_against_naive_eta_product_expansion",
    "DualKernel.vdag": "tests/test_deltapipe.py::test_kernel_vdag_matches_per_node_table",
    "DualKernel.istar_row": "tests/test_deltapipe.py::test_s_c_dual_matches_per_row_istar_loop",
    "edges_rule": "tests/test_voronoi.py::test_transform_matches_adaptive_edge_routes",
    "multiplicative_extension": "tests/test_forms.py::test_maass_fixture_roundtrip",
    "afe_weight": "tests/test_lfunc.py::test_interpolated_weights_match_the_direct_route",
    "WhatTransform._eval_bessel": "tests/test_voronoi.py::test_bessel_route_matches_per_y_loop",
}

REPO = Path(weyldelta.__file__).resolve().parents[2]
PERFBENCH = sorted((REPO / "perfbench").glob("*.py"))


def definitions(tree: ast.AST):
    """(qualified name, node) of every function, class and method in a module."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.append((prefix + child.name, child))
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def unreached(library, readers, exempt=lambda module, qualname: False):
    """Definitions in `library` ({module: source}) whose name is loaded nowhere
    in `library` or `readers` (sources) outside their own body, by name or
    attribute, unless `exempt(module, qualname)`."""
    trees = {module: ast.parse(source) for module, source in library.items()}
    loads = []  # (tree index, line, name)
    for i, tree in enumerate([*trees.values(), *(ast.parse(src) for src in readers)]):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads.append((i, node.lineno, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads.append((i, node.lineno, node.attr))
    out = []
    for i, (module, tree) in enumerate(trees.items()):
        for qualname, node in definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__") or exempt(module, qualname):
                continue
            if not any(
                n == name and (j != i or not node.lineno <= line <= node.end_lineno)
                for j, line, n in loads
            ):
                out.append(f"{module}:{qualname}")
    return out


def _registered_or_override(module, qualname):
    """A registered check, or a method that overrides one of a base class."""
    from weyldelta.checks import CHECKS

    if qualname in {getattr(c.compute, "func", c.compute).__name__ for c in CHECKS}:
        return True
    owner, _, method = qualname.rpartition(".")
    cls = getattr(importlib.import_module(f"weyldelta.{module}"), owner, None)
    return isinstance(cls, type) and any(hasattr(base, method) for base in cls.__mro__[1:])


def test_the_guard_flags_a_test_only_function():
    library = {
        "lib": "def used():\n    return 1\n\n\ndef oracle():\n    return oracle\n",
        "user": "from lib import used\n\nx = used()\n",
    }
    assert unreached(library, []) == ["lib:oracle"]
    assert unreached(library, ["import lib\n\nlib.oracle()\n"]) == []


def test_every_definition_is_reached_or_an_oracle():
    library = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    readers = [path.read_text(encoding="utf-8") for path in PERFBENCH]
    found = set(unreached(library, readers, _registered_or_override))
    oracles = {name for name in found if name.split(":")[1] in ORACLES}
    assert found == oracles, "reached only by tests: " + ", ".join(sorted(found - oracles))
    # every oracle is a name the guard would flag, and its test uses it
    assert {name.split(":")[1] for name in oracles} == set(ORACLES)
    for qualname, test in ORACLES.items():
        path, test_name = test.split("::")
        source = (REPO / path).read_text(encoding="utf-8")
        assert f"def {test_name}(" in source and qualname.split(".")[-1] in source, test
