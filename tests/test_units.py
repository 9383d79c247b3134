"""The three literals every number is read from, and the guard that keeps
every other module from converting text to a number itself."""

import ast
import sys

import pytest

from partsim.config import SchemaError, parse_config
from partsim.units import UnitError, parse_duration, parse_fraction, parse_integer

from conftest import COOKBOOK_XML, REPO_ROOT

SRC = REPO_ROOT / "src" / "partsim"


@pytest.mark.parametrize("parse, text, value", [
    (parse_integer, "0", 0),
    (parse_integer, "-0", 0),
    (parse_integer, "007", 7),
    (parse_integer, " 64 ", 64),
    (parse_integer, "-3", -3),
    (parse_duration, "400us", 400_000),
    (parse_duration, " 3 s ", 3_000_000_000),
    (parse_duration, "10\tms", 10_000_000),
    (parse_fraction, "0", 0.0),
    (parse_fraction, "0.75", 0.75),
    (parse_fraction, "-0.5", -0.5),
    (parse_fraction, " 1.0 ", 1.0),
])
def test_documented_forms(parse, text, value):
    assert parse(text) == value


@pytest.mark.parametrize("text, value", [
    ("0x1F", 31), ("0X1f", 31), (" 0x10 ", 16), ("-0x1", -1), ("12", 12),
])
def test_the_xml_integer_also_takes_hex(text, value):
    assert parse_integer(text, hex_ok=True) == value


@pytest.mark.parametrize("parse, text", [
    (parse_integer, "1_0"), (parse_integer, "+1"), (parse_integer, "--1"),
    (parse_integer, "٣"), (parse_integer, "１"), (parse_integer, "0x10"),
    (parse_integer, "1.0"), (parse_integer, ""), (parse_integer, "1 0"),
    (parse_duration, "٣us"), (parse_duration, "1_0us"), (parse_duration, "+1us"),
    (parse_duration, "1.5us"), (parse_duration, "1"), (parse_duration, "1 0us"),
    (parse_fraction, "1e0"), (parse_fraction, ".5"), (parse_fraction, "1."),
    (parse_fraction, "+0.5"), (parse_fraction, "٠.5"), (parse_fraction, "1_0.5"),
    (parse_fraction, "inf"), (parse_fraction, "nan"),
])
def test_undocumented_forms_are_rejected(parse, text):
    with pytest.raises(UnitError):
        parse(text)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="int() reads any number of digits")
@pytest.mark.parametrize("old, new, named", [
    ('Partition id="1"', 'Partition id="{}"', "<Partition> id: "),
    ('duration="400us"', 'duration="{}us"', "<Slot> duration: "),
])
def test_more_digits_than_int_reads_is_a_schema_error(old, new, named):
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(SchemaError, match=named):
        parse_config(COOKBOOK_XML.replace(old, new.format(digits), 1))


# where int() and float() may still turn text into a number: the literal
# readers themselves, and read_csv's cells (partsim's own ASCII output)
EXEMPT = {"units.py": None, "results.py": "read_csv"}


def _converter_uses(path) -> list[str]:
    """Each ``int`` or ``float`` name in ``path`` (a call or a reference,
    such as a converter in a table) outside annotations and outside the
    function that EXEMPT names for the file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    skipped = set()
    for node in ast.walk(tree):
        parts = [getattr(node, "annotation", None), getattr(node, "returns", None)]
        if isinstance(node, ast.FunctionDef) and node.name == EXEMPT.get(path.name):
            parts.append(node)
        for part in filter(None, parts):
            skipped.update(map(id, ast.walk(part)))
    return [f"{path.name}:{node.lineno} {node.id}" for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id in ("int", "float")
            and id(node) not in skipped]


def test_every_number_is_read_through_units():
    uses = [use for path in sorted(SRC.glob("*.py")) if path.name != "units.py"
            for use in _converter_uses(path)]
    assert uses == []


def _frame_modulos(path) -> list[str]:
    """Each ``%`` (or ``%=``) in ``path`` whose right operand is a
    ``.major_frame`` attribute."""
    uses = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.BinOp):
            right = node.right
        elif isinstance(node, ast.AugAssign):
            right = node.value
        else:
            continue
        if (isinstance(node.op, ast.Mod) and isinstance(right, ast.Attribute)
                and right.attr == "major_frame"):
            uses.append(f"{path.relative_to(SRC)}:{node.lineno}")
    return uses


def test_slot_arithmetic_stays_in_config():
    # SchedulePlan.slot_at and .gap in config are partsim's only slot arithmetic
    assert len(_frame_modulos(SRC / "config.py")) == 2  # the guard sees the two it allows
    uses = [use for path in sorted(SRC.rglob("*.py")) if path != SRC / "config.py"
            for use in _frame_modulos(path)]
    assert uses == []
