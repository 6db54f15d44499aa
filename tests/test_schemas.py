"""Every enum in the packaged JSON schemas lists exactly the code's values."""

import json
from importlib import resources

import pytest

from pbrlab import PrepPolicy, Relation, Variant, cli

#: Schema property name -> the values the code can write there.
CODE_VALUES = {
    "variant": {v.value for v in Variant},
    "policy": {p.value for p in PrepPolicy},
    "relation": {r.value for r in Relation},
    "overlap": set(cli._OPTIONS["overlap"]["choices"]),
    "method": set(cli._OPTIONS["method"]["choices"]),
}


def schema_enums() -> list[tuple[str, str, list]]:
    """(schema file, property name, enum) for every enum-valued property of every schema."""
    found = []

    def walk(node, schema):
        if isinstance(node, dict):
            for name, sub in node.get("properties", {}).items():
                if isinstance(sub, dict) and "enum" in sub:
                    found.append((schema, name, sub["enum"]))
            for value in node.values():
                walk(value, schema)
        elif isinstance(node, list):
            for value in node:
                walk(value, schema)

    for entry in resources.files("pbrlab").joinpath("schemas").iterdir():
        if entry.name.endswith(".json"):
            walk(json.loads(entry.read_text()), entry.name)
    return found


@pytest.mark.parametrize("schema,name,enum", schema_enums())
def test_enum_equals_the_code_values(schema, name, enum):
    assert name in CODE_VALUES, f"{schema}: enum '{name}' is not pinned to the code"
    assert len(enum) == len(set(enum))
    assert set(enum) == CODE_VALUES[name]


def test_every_pinned_enum_appears_in_a_schema():
    assert {name for _, name, _ in schema_enums()} == CODE_VALUES.keys()


@pytest.mark.parametrize("field,values", [("variant", Variant), ("policy", PrepPolicy)])
def test_cli_choices_equal_the_code_values(field, values):
    assert cli._OPTIONS[field]["choices"] == [v.value for v in values]
