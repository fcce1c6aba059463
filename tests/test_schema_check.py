"""The compiled schema checks in ``cli`` accept exactly what jsonschema's
Draft 2020-12 validator accepts: on the corpus, on the minimal case of every
analysis, and on seeded mutants of both."""

import copy
import random

import jsonschema
import pytest

from vlsidesk import cli

from conftest import CASES_DIR, load_case
from test_cli import _minimal_params

EXTREME_LEAVES = [1e308, "-0", 2**70, 3.0, True, None, [], {}, 0.69]
MUTANTS_PER_CASE = 50


def _validator(name):
    return jsonschema.Draft202012Validator(
        cli.CASE_SCHEMA if name is None else cli.REGISTRY[name]["schema"])


VALIDATORS = {name: _validator(name) for name in [None, *cli.REGISTRY]}


def base_cases():
    corpus = [load_case(p.stem) for p in sorted(CASES_DIR.glob("*.json"))]
    minimal = [{"schema": 1, "analysis": name, "params": _minimal_params(name)}
               for name in sorted(cli.REGISTRY)]
    return corpus + minimal


def _nodes(x, path=()):
    yield path, x
    if isinstance(x, dict):
        for k, v in x.items():
            yield from _nodes(v, path + (k,))
    elif isinstance(x, list):
        for i, v in enumerate(x):
            yield from _nodes(v, path + (i,))


def mutate(case, rng):
    """``case`` with one node changed: set to an extreme leaf, deleted, or
    given an extra key or item."""
    case = copy.deepcopy(case)
    path, node = rng.choice(list(_nodes(case))[1:])
    parent = case
    for key in path[:-1]:
        parent = parent[key]
    leaf = copy.deepcopy(rng.choice(EXTREME_LEAVES))
    kind = rng.choice(("leaf", "delete", "extra"))
    if kind == "delete":
        del parent[path[-1]]
    elif kind == "extra" and isinstance(node, dict):
        node[f"extra_{rng.randrange(3)}"] = leaf
    elif kind == "extra" and isinstance(node, list):
        node.append(copy.deepcopy(rng.choice(node)) if node and rng.random() < 0.5 else leaf)
    else:
        parent[path[-1]] = leaf
    return case


def assert_same_verdict(case):
    """Assert that the compiled envelope and params checks agree with
    jsonschema, so that ``validate_case`` accepts exactly the cases jsonschema
    accepts; return whether jsonschema accepts ``case``."""
    valid = VALIDATORS[None].is_valid(case)
    assert cli._check(None)(case) == valid, case
    if not valid or case["analysis"] not in cli.REGISTRY:
        return False
    valid = VALIDATORS[case["analysis"]].is_valid(case["params"])
    assert cli._check(case["analysis"])(case["params"]) == valid, case
    return valid


def test_every_valid_case_passes_the_compiled_checks():
    for case in base_cases():
        assert cli._check(None)(case)
        assert cli._check(case["analysis"])(case["params"]), case["analysis"]
        assert cli.validate_case(case) == case["analysis"]


def test_compiled_checks_match_jsonschema_on_seeded_mutants():
    rng = random.Random(6)
    cases = base_cases()
    rejected = sum(not assert_same_verdict(mutate(case, rng))
                   for case in cases for _ in range(MUTANTS_PER_CASE))
    total = len(cases) * MUTANTS_PER_CASE
    assert total / 4 < rejected < total * 3 / 4  # the mutants reach both verdicts


INT, NUM, STR = cli.INT, cli.NUM, cli.STR
TUPLE = {"type": "array", "prefixItems": [STR, NUM], "items": False, "minItems": 2}


@pytest.mark.parametrize("schema,instance", [
    (INT, 3.0), (INT, 3.5), (INT, True), (INT, 2**70), (INT, float("inf")),
    ({"type": "number"}, False), ({"type": "number"}, 1e308), (NUM, "1k"), (NUM, None),
    ({"const": 1}, True), ({"const": 1}, 1.0), ({"const": True}, 1),
    ({"enum": ["tau", 0.69, "0.69"]}, 0.69), ({"enum": [0, 1]}, False),
    ({"enum": ["a"]}, ["a"]),
    (TUPLE, ["a", 1]), (TUPLE, ["a", 1, 2]), (TUPLE, ["a"]), (TUPLE, [1, "a"]),
    ({"prefixItems": [STR], "items": INT}, ["a", 1, 2.0]),
    ({"prefixItems": [STR], "items": INT}, ["a", 1, "b"]),
    ({"minItems": 1, "maxItems": 1, "required": ["a"], "properties": {"a": INT},
      "additionalProperties": False}, "not a container"),
    ({"required": ["a"], "additionalProperties": INT}, {"a": 1, "b": 2.0}),
    ({"required": ["a"], "additionalProperties": INT}, {"a": 1, "b": "2"}),
    ({"oneOf": [{"required": ["a"]}, {"required": ["b"]}]}, {"a": 1, "b": 2}),
    ({"oneOf": [{"required": ["a"]}, {"required": ["b"]}]}, 7),
    ({"anyOf": [{"required": ["a"]}, {"required": ["b"]}]}, {"c": 1}),
    ({"$defs": {"n": {"type": "array", "items": {"$ref": "#/$defs/n"}}},
      "$ref": "#/$defs/n"}, [[], [[]], [[1]]]),
])
def test_compiled_keyword_semantics_match_jsonschema(schema, instance):
    want = jsonschema.Draft202012Validator(schema).is_valid(instance)
    assert cli._compile(schema, schema, {})(instance) == want


def test_every_registered_schema_compiles():
    for name in [None, *cli.REGISTRY]:
        assert callable(cli._check(name))


@pytest.mark.parametrize("schema", [
    {"type": "string", "pattern": "^a"},
    {"properties": {"n": {"type": "integer", "minimum": 0}}},
    {"enum": [[1, 2]]},
])
def test_unsupported_schema_does_not_compile(schema):
    with pytest.raises(ValueError):
        cli._compile(schema, schema, {})
