import ast
import copy
import dataclasses
import importlib
import importlib.util
import json
import os
import pickle
import subprocess
import sys
import types
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import pytest

from cgaosc.errors import JacobiFailure, NotClosed
from cgaosc.realizations import (AlgebraElement, Z_MINUS, Z_PLUS, Z_ZERO,
                                 free_generators, w_label, ww_label)
from cgaosc.scalars import CScalar, HalfInt
from cgaosc.spectrum import Ladder, ladder_state

ROOT = Path(__file__).resolve().parents[1]


def test_submodules_are_not_shadowed():
    import cgaosc.spectrum as spectrum_module
    import cgaosc.transform as transform_module
    assert isinstance(spectrum_module, types.ModuleType)
    assert isinstance(transform_module, types.ModuleType)
    assert callable(spectrum_module.spectrum)
    assert callable(transform_module.certify_transform)


def test_package_imports_its_submodules_in_order():
    # the benchmark child imports the package before its timed work, so
    # these imports keep compilation out of that work; the environment
    # is passed on whole, so PYTHONDONTWRITEBYTECODE still holds there
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else src + os.pathsep + path)
    code = ("import sys, cgaosc; print(*(name for name in sys.modules "
            "if name.startswith('cgaosc.')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == [
        f"cgaosc.{name}" for name in (
            "errors", "scalars", "weyl", "funcspace", "linsolve",
            "realizations", "enlarged", "onshell", "transform", "spectrum")]


def test_a_failing_property_does_not_stop_the_run(tmp_path):
    # with warnings as errors, hypothesis's report of a failing example
    # must fail that test alone: the tests after it still run
    test = tmp_path / "test_property.py"
    test.write_text("from hypothesis import given, strategies as st\n\n\n"
                    "@given(st.integers())\n"
                    "def test_fails(n):\n"
                    "    assert n < 5\n\n\n"
                    "def test_passes():\n"
                    "    pass\n")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), str(test)],
        cwd=tmp_path, env=dict(os.environ), capture_output=True, text=True)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout


def test_benchmark_entry_points_exist():
    # perfbench wraps these names by lookup; a rename in src/ would break
    # its --trace runs with a KeyError
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for modname, attr, _ in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(modname), attr,
                                None)), f"{modname}.{attr}"
    for modname, cls_name, attr, _ in tracing.METHODS + tracing.COUNTED:
        cls = getattr(importlib.import_module(modname), cls_name)
        assert attr in vars(cls), f"{modname}.{cls_name}.{attr}"


def test_structure_tables_match_the_benchmark_reference():
    # every entry and every kind of both tables at ell 1/2, 3/2, 5/2,
    # through the digests the structure workload checks
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    ells = ["1/2", "3/2", "5/2"]
    reference = json.loads((ROOT / "perfbench" / "reference.json")
                           .read_text())["structure"]
    facts = workloads._facts_structure(workloads._run_structure(ells))
    assert facts == {text: reference[text] for text in ells}


def test_spectrum_matches_the_benchmark_reference():
    # the 210 ladder states at ell 7/2, degree 6, their closed-form and
    # oracle agreement, and the energies digest the spectrum workload
    # checks
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    reference = json.loads((ROOT / "perfbench" / "reference.json")
                           .read_text())["spectrum"]
    facts = workloads._facts_spectrum(
        workloads._run_spectrum(["ladder", "oracle"]))
    assert facts == reference


def _definitions(tree):
    """(name, node) of every top-level function, class and non-dunder
    name assignment of a module, and of every non-dunder method of its
    classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("__")):
                    yield item.name, item
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for name in ast.walk(target):
                    if (isinstance(name, ast.Name)
                            and not name.id.startswith("__")):
                        yield name.id, node


def _mentions(tree):
    """(name, line) of every identifier a module names: names,
    attributes, imports, and strings that are identifiers (the
    benchmark looks some names up by string)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value, node.lineno


def test_no_dead_helpers():
    # each definition in the package, a module-level name included, is
    # named somewhere outside its own body, in the package or the
    # benchmark; a test alone does not keep a definition alive
    files = [p for d in ("src", "perfbench")
             for p in sorted((ROOT / d).rglob("*.py"))]
    trees = {p: ast.parse(p.read_text(), str(p)) for p in files}
    mentions = {p: list(_mentions(tree)) for p, tree in trees.items()}
    dead = []
    for path in files:
        if path.parent != ROOT / "src" / "cgaosc":
            continue
        for defined, node in _definitions(trees[path]):
            lines = range(node.lineno, node.end_lineno + 1)
            if not any(name == defined and (p != path or line not in lines)
                       for p, found in mentions.items()
                       for name, line in found):
                dead.append(f"{path.name}:{node.lineno} {defined}")
    assert not dead


def test_bracket_oracle_shares_no_code_with_the_derivation():
    # the realized-bracket oracle of the enlarged tables lives with the
    # tests and imports nothing of the Leibniz derivation it checks
    tree = ast.parse((ROOT / "tests" / "conftest.py").read_text())
    assert "realized_tables" in {node.name for node in tree.body
                                 if isinstance(node, ast.FunctionDef)}
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {node.module, *(f"{node.module}.{alias.name}"
                                        for alias in node.names)}
    assert not {name for name in imported
                if name.startswith("cgaosc.enlarged")}


# The methods that several package classes define, with those classes.
# test_no_dead_helpers matches a definition by its bare name, so a call of
# one of these on any class keeps all of them alive; each must be checked
# by hand for a caller, and a new shared name is listed here only after
# that check.
SHARED_METHODS = {
    "_check": {"GaussFunc", "LinComb", "WeylOp"},
    "_space": {"GaussFunc", "LinComb"},
    "is_zero": {"CScalar", "LinComb"},
    "one": {"CScalar", "WeylOp"},
    "zero": {"CScalar", "WeylOp"},
}


def test_shared_method_names_are_pinned():
    owners = defaultdict(set)
    for path in sorted((ROOT / "src" / "cgaosc").rglob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("__")):
                        owners[item.name].add(node.name)
    shared = {name: classes for name, classes in owners.items()
              if len(classes) > 1}
    assert shared == SHARED_METHODS


def test_runtime_is_stdlib_only():
    # every absolute import of the package names the package itself or
    # a module of the standard library
    allowed = set(sys.stdlib_module_names) | {"cgaosc"}
    outside = []
    for path in sorted((ROOT / "src" / "cgaosc").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.partition(".")[0] not in allowed]
    assert not outside


def test_only_cli_imports_jsonio():
    # the CLI builds every command's JSON, so it alone reads the encoders
    importers = set()
    for path in sorted((ROOT / "src" / "cgaosc").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level:  # a relative import inside the package
                    module = f"cgaosc.{module}" if module else "cgaosc"
                names = [module] + [f"{module}.{alias.name}"
                                    for alias in node.names]
            else:
                continue
            if "cgaosc.jsonio" in names:
                importers.add(path.stem)
    assert importers == {"cli"}


def test_sources_fit_79_columns():
    long = [f"{path.relative_to(ROOT)}:{n} ({len(line)})"
            for d in ("src", "tests")
            for path in sorted((ROOT / d).rglob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if len(line) > 79]
    assert not long


@dataclasses.dataclass
class _Holder:
    value: object


def _via_asdict(x):
    if dataclasses.is_dataclass(x):
        return type(x)(**dataclasses.asdict(x))
    return dataclasses.asdict(_Holder(x))["value"]


ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
    "asdict": _via_asdict,
}


def _values():
    gens = free_generators(HalfInt(1))
    ladder = Ladder(HalfInt(3))
    record = ladder_state(ladder, (1, 1))
    elem = AlgebraElement.of(Z_PLUS) + AlgebraElement.of(
        ww_label(HalfInt(1), HalfInt(1)), CScalar.c_power(-1, Fraction(1, 2)))
    return {
        "HalfInt": HalfInt(3),
        "CScalar": CScalar.c_power(-1, Fraction(1, 2)) + 3,
        "Chart": gens[Z_ZERO].chart,
        "WeylOp": gens[w_label(HalfInt(-1))],
        "GaussFunc": ladder.state(record.n),
        "AlgebraElement": elem,
        "SpectrumRecord": record,
        "NotClosed": NotClosed((Z_PLUS, Z_MINUS), gens[Z_ZERO]),
        "JacobiFailure": JacobiFailure((Z_PLUS, Z_ZERO, Z_MINUS),
                                       elem, "graded"),
    }


VALUES = _values()


def _comparable(x):
    if isinstance(x, Exception):
        return type(x), x.args, str(x)
    return x


@pytest.mark.parametrize("trip", ROUND_TRIPS)
@pytest.mark.parametrize("name", VALUES)
def test_values_round_trip(name, trip):
    value = VALUES[name]
    back = ROUND_TRIPS[trip](value)
    assert type(back) is type(value)
    assert _comparable(back) == _comparable(value)
