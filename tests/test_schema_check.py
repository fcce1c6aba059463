"""The compiled schema walks in ``cli`` accept exactly what jsonschema's
Draft 2020-12 validator accepts: on the corpus, on the minimal case of every
analysis, and on seeded mutants of both."""

import copy
import random

import jsonschema
import pytest

from vlsidesk import cli
from vlsidesk.errors import QuantityError
from vlsidesk.units import parse_quantity

from conftest import CASES_DIR, load_case
from test_cli import _minimal_params

EXTREME_LEAVES = [1e308, "-0", 2**70, 3.0, True, None, [], {}, 0.69]
MUTANTS_PER_CASE = 50


def _validator(name):
    return jsonschema.Draft202012Validator(
        cli.CASE_SCHEMA if name is None else cli.REGISTRY[name]["schema"])


VALIDATORS = {name: _validator(name) for name in [None, *cli.REGISTRY]}


def accepts(walk, instance):
    """Whether the compiled ``walk`` accepts ``instance``."""
    try:
        walk(instance, [])
    except cli._Reject:
        return False
    return True


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


def mutate(case, rng, leaves=EXTREME_LEAVES):
    """``case`` with one node changed: set to one of ``leaves``, deleted, or
    given an extra key or item."""
    case = copy.deepcopy(case)
    path, node = rng.choice(list(_nodes(case))[1:])
    parent = case
    for key in path[:-1]:
        parent = parent[key]
    leaf = copy.deepcopy(rng.choice(leaves))
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
    """Assert that the compiled envelope and params walks agree with
    jsonschema, so that ``validate_case`` accepts exactly the cases jsonschema
    accepts; return whether jsonschema accepts ``case``."""
    valid = VALIDATORS[None].is_valid(case)
    assert accepts(cli._walk(None), case) == valid, case
    if not valid or case["analysis"] not in cli.REGISTRY:
        return False
    valid = VALIDATORS[case["analysis"]].is_valid(case["params"])
    assert accepts(cli._walk(case["analysis"]), case["params"]) == valid, case
    return valid


def test_every_valid_case_passes_the_compiled_checks():
    for case in base_cases():
        assert accepts(cli._walk(None), case)
        assert accepts(cli._walk(case["analysis"]), case["params"]), case["analysis"]
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
    ({"oneOf": [{"required": ["a"]}, {"required": ["b"]}]}, {"c": 1}),
    ({"$defs": {"n": {"type": "array", "items": {"$ref": "#/$defs/n"}}},
      "$ref": "#/$defs/n"}, [[], [[]], [[1]]]),
])
def test_compiled_keyword_semantics_match_jsonschema(schema, instance):
    want = jsonschema.Draft202012Validator(schema).is_valid(instance)
    assert accepts(cli._compile(schema, schema, {}), instance) == want


def test_every_registered_schema_compiles():
    for name in [None, *cli.REGISTRY]:
        assert callable(cli._walk(name))


@pytest.mark.parametrize("schema", [
    {"type": "string", "pattern": "^a"},
    {"properties": {"n": {"type": "integer", "minimum": 0}}},
    {"enum": [[1, 2]]},
    {"anyOf": [{"required": ["a"]}, {"required": ["b"]}]},
])
def test_unsupported_schema_does_not_compile(schema):
    with pytest.raises(ValueError):
        cli._compile(schema, schema, {})


def keywords(schema):
    """The keywords of ``schema`` and of every schema inside it."""
    if isinstance(schema, bool):
        return set()
    subs = [*schema.get("properties", {}).values(), *schema.get("$defs", {}).values(),
            *schema.get("prefixItems", []), *schema.get("oneOf", []),
            *[schema[k] for k in ("items", "additionalProperties") if k in schema]]
    return set(schema).union(*map(keywords, subs))


def test_the_compiler_handles_exactly_the_keywords_the_schemas_use():
    schemas = [cli.CASE_SCHEMA, *(cli.REGISTRY[name]["schema"] for name in cli.REGISTRY)]
    assert set().union(*map(keywords, schemas)) == cli._KEYWORDS


# --- the walk parses as the separate check-then-parse pair did ----------------

def parse_oracle(value, schema, defs):
    """``value`` parsed as the old ``cli._parse`` parsed it after validation:
    every NUM field by ``parse_quantity``, every integral float in an integer
    field made an ``int``. It also parses a ``oneOf`` with the branch
    jsonschema accepts, before the node's own keywords; the old adapters
    parsed ``pun`` and ``buffer`` themselves."""
    if "$ref" in schema:
        schema = defs[schema["$ref"].rsplit("/", 1)[1]]
    if schema == NUM:
        return parse_quantity(value)
    if "oneOf" in schema:
        [branch] = [b for b in schema["oneOf"]
                    if jsonschema.Draft202012Validator({**b, "$defs": defs}).is_valid(value)]
        value = parse_oracle(value, branch, defs)
    if isinstance(value, list):
        prefix = schema.get("prefixItems", [])
        return [parse_oracle(v, prefix[i] if i < len(prefix) else schema.get("items", {}), defs)
                for i, v in enumerate(value)]
    if isinstance(value, dict):
        props, extra = schema.get("properties", {}), schema.get("additionalProperties")
        extra = extra if isinstance(extra, dict) else {}
        return {k: parse_oracle(v, props.get(k, extra), defs) for k, v in value.items()}
    kind = schema.get("type", ())
    if type(value) in (int, float) and "integer" in ([kind] if isinstance(kind, str) else kind):
        if abs(value) > 1.7976931348623157e308:
            raise QuantityError("integer is beyond the floating-point range")
        return int(value)
    return value


def rejection_oracle(case):
    """The message the old ``validate_case`` gave a case jsonschema rejects."""
    e = jsonschema.exceptions.best_match(VALIDATORS[None].iter_errors(case))
    if e is not None:
        path = "/".join(str(p) for p in e.absolute_path) or "(top level)"
        return f"case structure invalid at {path}: {e.message}"
    if case["analysis"] not in cli.REGISTRY:
        return f"unknown analysis {case['analysis']!r}"
    e = min(VALIDATORS[case["analysis"]].iter_errors(case["params"]),
            key=lambda e: (e.json_path, e.message))
    path = "/".join(str(p) for p in e.absolute_path) or "(params)"
    return f"params invalid at {path}: {e.message}"


def typed(x):
    """``x`` with the type of every node spelled out, so 3 differs from 3.0."""
    if isinstance(x, dict):
        return {k: typed(v) for k, v in x.items()}
    if isinstance(x, list):
        return [typed(v) for v in x]
    return type(x).__name__, repr(x)


def oracle_outcome(case):
    """Old validate_case, then old _parse: the rejection, the first quantity
    that does not parse, or the parsed params."""
    if not (VALIDATORS[None].is_valid(case) and case["analysis"] in cli.REGISTRY
            and VALIDATORS[case["analysis"]].is_valid(case["params"])):
        return "CaseError", rejection_oracle(case)
    schema = cli.REGISTRY[case["analysis"]]["schema"]
    try:
        return "params", typed(parse_oracle(case["params"], schema, schema["$defs"]))
    except QuantityError as e:
        return "QuantityError", str(e)


def walk_outcome(case):
    try:
        _, params, bad = cli._walk_case(case)
    except cli.CaseError as e:
        return "CaseError", str(e)
    if bad:
        return "QuantityError", str(bad[0])
    return "params", typed(params)


BAD_QUANTITIES = ["9zz", "1e400", 10**400, "", "k"]


def test_walk_matches_check_then_parse_on_seeded_mutants():
    # one or two changes per mutant, so a quantity that does not parse often
    # sits before or after a schema violation in the same case
    rng = random.Random(8)
    leaves = EXTREME_LEAVES + BAD_QUANTITIES
    outcomes = {"CaseError": 0, "QuantityError": 0, "params": 0}
    for case in base_cases():
        for _ in range(MUTANTS_PER_CASE):
            mutant = mutate(case, rng, leaves)
            if rng.random() < 0.5 and "params" in mutant and isinstance(mutant["params"], dict) \
                    and mutant["params"]:
                mutant = mutate(mutant, rng, leaves)
            want = oracle_outcome(mutant)
            assert walk_outcome(mutant) == want, mutant
            outcomes[want[0]] += 1
    assert min(outcomes.values()) > 200, outcomes  # every outcome is reached


def test_run_case_matches_check_then_parse_on_every_base_case():
    for case in base_cases():
        kind, params = oracle_outcome(case)
        assert kind == "params"
        try:
            report = cli.run_case(case)
        except Exception as e:  # the exception is the outcome compared
            got = type(e).__name__, str(e)
        else:
            got = typed(report["results"]), report["diagnostics"]
        schema = cli.REGISTRY[case["analysis"]]["schema"]
        try:
            results, diagnostics = cli.REGISTRY[case["analysis"]]["run"](
                parse_oracle(case["params"], schema, schema["$defs"]))
        except Exception as e:
            want = type(e).__name__, str(e)
        else:
            want = typed({k: {"value": v, "unit": u} for k, v, u in results}), diagnostics
        assert got == want, case


@pytest.mark.parametrize("params,message", [
    ({"length": "9zz", "width": 1, "r_sheet": 1, "bogus": 1},
     "params invalid at (params): Additional properties are not allowed ('bogus' was "
     "unexpected)"),
    ({"length": "9zz", "width": "1x", "r_sheet": True},
     "params invalid at r_sheet: True is not of type 'number', 'string'"),
])
def test_schema_violation_after_a_bad_quantity_still_rejects(params, message):
    with pytest.raises(cli.CaseError) as e:
        cli.run_case({"schema": 1, "analysis": "wire_rc", "params": params})
    assert str(e.value) == message


def test_first_bad_quantity_in_document_order_is_raised():
    case = {"schema": 1, "analysis": "wire_rc",
            "params": {"width": "1x", "length": "9zz", "r_sheet": 1}}
    with pytest.raises(QuantityError, match="'1x'"):
        cli.run_case(case)
    assert cli.validate_case(case) == "wire_rc"  # validation alone parses nothing out


def test_one_of_parses_with_its_accepting_branch():
    params = {"wire": {"length": "1m", "width": 1, "r_sheet": 1}, "n_buffers": 2.0,
              "buffer": {"r_drive": "1k", "c_gate_in": "2f"}, "driver": {"fixed_delay": "3n"}}
    _, parsed, bad = cli._walk_case({"schema": 1, "analysis": "buffered_wire_delay",
                                     "params": params})
    assert not bad
    q = parse_quantity
    assert typed(parsed) == typed({"wire": {"length": q("1m"), "width": 1.0, "r_sheet": 1.0},
                                   "n_buffers": 2, "buffer": {"r_drive": q("1k"),
                                                              "c_gate_in": q("2f")},
                                   "driver": {"fixed_delay": q("3n")}})
    for rejected in ({"foo": 1}, {"fixed_delay": 1, "r_drive": 1}, {"r_drive": "1k", "x": 1}):
        with pytest.raises(cli.CaseError, match="^params invalid at buffer: "):
            cli.run_case({"schema": 1, "analysis": "buffered_wire_delay",
                          "params": {**params, "buffer": rejected}})
