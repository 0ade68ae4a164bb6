"""The constant tables: their values, that they are read-only, that
only the auditor and the snapshot read the paper's stated targets, and
that ``qtf.constants`` and ``qtf.errors`` load no numpy."""

import ast
import math
from dataclasses import asdict
from pathlib import Path

import pytest

import qtf.cli
from conftest import SRC
from qtf.constants import (
    PAPER_INPUT,
    PAPER_REFERENCE,
    PAPER_TARGET,
    PHYSICAL,
    constants_snapshot,
)
from qtf.thermo import ThermoQuery

TABLES = {
    "PHYSICAL": PHYSICAL,
    "PAPER_INPUT": PAPER_INPUT,
    "PAPER_TARGET": PAPER_TARGET,
    "PAPER_REFERENCE": PAPER_REFERENCE,
}


def test_hbar_is_h_over_two_pi():
    assert PHYSICAL["hbar"] == pytest.approx(PHYSICAL["h"] / (2 * math.pi), rel=1e-12)


def test_every_figure_is_finite_and_positive():
    for name, table in TABLES.items():
        for key, value in table.items():
            assert math.isfinite(value) and value > 0, (name, key)


def test_codata_exact_values():
    assert PHYSICAL["h"] == 6.62607015e-34
    assert PHYSICAL["k_b"] == 1.380649e-23
    assert PAPER_INPUT["temperature"] == 300.0


def test_full_precision_hbar_rounds_to_stated_value():
    # the stated rounded constant is 1.055e-34
    assert PHYSICAL["hbar"] == pytest.approx(1.055e-34, rel=5e-4)


def test_snapshot_is_a_fresh_copy_of_every_table():
    a, b = constants_snapshot(), constants_snapshot()
    assert a == b
    assert a["physical"] == dict(PHYSICAL)
    assert a["paper"] == {
        "input": dict(PAPER_INPUT),
        "target": dict(PAPER_TARGET),
        "reference": dict(PAPER_REFERENCE),
    }
    a["paper"]["target"]["hbar"] = 1.0
    assert constants_snapshot() == b


def test_paper_values_transcription():
    assert PAPER_TARGET["n_median"] == 2.06e13
    assert PAPER_INPUT["floor_n"] == 1e12
    assert PAPER_INPUT["momentum"] == 3.26e-19
    assert PAPER_TARGET["hbar"] == 1.055e-34
    assert PAPER_TARGET["median_radius"] == 6.67e-3
    assert PAPER_TARGET["mean_radius"] == 7.42e-3
    assert PAPER_TARGET["radius_sigma"] == 5.05e-3
    assert PAPER_TARGET["n_mean"] == 2.29e13
    assert PAPER_INPUT["alpha_mass"] == 6.644e-27
    assert PAPER_INPUT["alpha_energy"] == 8.01e-13


def test_each_paper_figure_has_one_role():
    names = [name for table in (PAPER_INPUT, PAPER_TARGET, PAPER_REFERENCE) for name in table]
    assert len(names) == len(set(names)) == 28


def test_budget_defaults_are_the_stated_inputs():
    assert asdict(ThermoQuery()) == {name: PAPER_INPUT[name] for name in asdict(ThermoQuery())}


def test_stated_momentum_disagrees_with_derived_momentum():
    # both routes are exposed; the stated value is ~sqrt(10) higher than
    # sqrt(2*m*E) from the stated mass and energy, and nothing here
    # decides which was intended
    derived = math.sqrt(2 * PAPER_INPUT["alpha_mass"] * PAPER_INPUT["alpha_energy"])
    assert PAPER_INPUT["momentum"] / derived == pytest.approx(math.sqrt(10), rel=0.01)


@pytest.mark.parametrize("name", TABLES)
def test_tables_are_read_only(name, capsys):
    assert qtf.cli.main(["budget", "--format", "text"]) == 0
    before = capsys.readouterr().out
    table = TABLES[name]
    for key in [*table, "added"]:
        with pytest.raises(TypeError):
            table[key] = 3.93e13
        with pytest.raises(TypeError):
            del table[key]
    assert qtf.cli.main(["budget", "--format", "text"]) == 0
    assert capsys.readouterr().out == before


# The functions allowed to read the stated targets, as FILE:FUNCTION
TARGET_READERS = {"thermo.py:audit_against_paper", "constants.py:constants_snapshot"}


def target_reads(path: Path) -> set[str]:
    """Each place in ``path`` that reads ``PAPER_TARGET``, as
    ``FILE:SCOPE``: the dotted names of the classes and functions around
    it, or ``<module>``.  A read is the name, an attribute of that name,
    the name as a string (as ``getattr`` takes it), an import of it
    under another name, or a ``["target"]`` subscript, as in
    ``constants_snapshot()["paper"]["target"]``; the table's own
    definition is not a read."""
    reads = set()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if scope == "<module>" else f"{scope}.{child.name}")
                continue
            if (
                (isinstance(child, ast.Name) and child.id == "PAPER_TARGET"
                 and not isinstance(child.ctx, ast.Store))
                or (isinstance(child, ast.Attribute) and child.attr == "PAPER_TARGET")
                or (isinstance(child, ast.Constant) and child.value == "PAPER_TARGET")
                or (isinstance(child, ast.alias) and child.name == "PAPER_TARGET"
                    and child.asname not in (None, "PAPER_TARGET"))
                or (isinstance(child, ast.Subscript) and isinstance(child.slice, ast.Constant)
                    and child.slice.value == "target")
            ):
                reads.add(f"{path.name}:{scope}")
            visit(child, scope)

    visit(ast.parse(path.read_bytes(), str(path)), "<module>")
    return reads


@pytest.mark.parametrize(
    "code, reads",
    [
        ("x = PAPER_TARGET['hbar']", {"<module>"}),
        ("def f():\n    return constants.PAPER_TARGET", {"f"}),
        ("class C:\n    def m(self):\n        return getattr(c, 'PAPER_TARGET')", {"C.m"}),
        ("from .constants import PAPER_TARGET as T", {"<module>"}),
        ("from .constants import PAPER_TARGET\nPAPER_TARGET = {}", set()),
        ("def f():\n    return constants_snapshot()['paper']['target']['hbar']", {"f"}),
        ("x = {'target': 1}\nx['input']", set()),
    ],
    ids=["name", "attribute", "string", "renaming import", "import and definition",
         "snapshot subscript", "other subscript"],
)
def test_every_form_of_target_read_is_found(tmp_path, code, reads):
    path = tmp_path / "probe.py"
    path.write_text(code, encoding="utf-8")
    assert target_reads(path) == {f"probe.py:{scope}" for scope in reads}


def test_only_the_auditor_and_the_snapshot_read_the_targets():
    # stated magnitudes are audit targets, never inputs to a computation
    reads = set().union(*(target_reads(p) for p in sorted((SRC / "qtf").glob("*.py"))))
    assert reads == TARGET_READERS


def imported_modules(module: str) -> set[str]:
    """The top-level names of the modules that ``qtf.<module>`` imports,
    with those that the qtf modules it imports import in turn."""
    found, todo, seen = set(), [module], set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        tree = ast.parse((SRC / "qtf" / f"{name}.py").read_bytes())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level:
                todo.append(node.module or "__init__")
            elif isinstance(node, ast.ImportFrom):
                found.add(node.module.split(".")[0])
    return found


@pytest.mark.parametrize("module", ["constants", "errors"])
def test_the_tables_and_the_input_rules_load_no_numpy(module):
    # a subcommand that checks its inputs and reads the tables, such as
    # budget, can then run without numpy
    assert "numpy" in imported_modules("tracks")  # the walk finds it
    assert "numpy" not in imported_modules(module)
