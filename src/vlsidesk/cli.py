"""Batch front-end: ``vlsidesk run case.json`` reads one JSON case naming
an analysis and its parameters, dispatches to the library, and prints a
deterministic JSON (or aligned-text) report.

Exit status: 0 analysis ran (verdicts such as violations live in the
report), 1 malformed input (bad JSON, schema violation, unknown
analysis, a command line that does not match the usage), 2 analysis
error (infeasible, solver failure), with a machine-readable error object
on stderr for both failure kinds.
"""

import collections.abc
import functools
import importlib
import json
import math
import sys

from .errors import DomainError, QuantityError, VlsiError
from .units import format_number, parse_quantity

if __name__ == "__main__":  # python -m: the adapter modules import this module by name
    sys.modules[f"{__package__}.cli"] = sys.modules[__name__]

SCHEMA_VERSION = 1

NUM = {"type": ["number", "string"]}
INT = {"type": "integer"}
STR = {"type": "string"}
BOOL = {"type": "boolean"}

# The one recursive sub-schema; the schemas that $ref it carry these $defs.
_DEFS = {
    "network": {
        "type": "object",
        "oneOf": [
            {"required": ["input"]},
            {"required": ["series"]},
            {"required": ["parallel"]},
        ],
        "properties": {
            "input": STR,
            "width": NUM,
            "series": {"type": "array", "items": {"$ref": "#/$defs/network"},
                       "minItems": 2},
            "parallel": {"type": "array", "items": {"$ref": "#/$defs/network"},
                         "minItems": 2},
        },
        "additionalProperties": False,
    },
}


def _schema(props, required):
    return {
        "type": "object",
        "properties": props,
        "required": sorted(required),
        "additionalProperties": False,
    }


def _pick(params, *keys):
    """The present ``keys`` of ``params``; the library's defaults fill the rest."""
    return {k: params[k] for k in keys if k in params}


def _take(res, **units):
    """Result rows (name, res[name], unit) for the names ``res`` holds."""
    return [(k, res[k], u) for k, u in units.items() if k in res]


# The analysis ids of each family, in the order their adapters register;
# the adapters of family f live in ``cli_f.py``. The device family also holds
# output_slew and access_sizing, the other analyses that take a MosDevice.
_FAMILIES = {
    "device": ("threshold_voltage", "bias_point", "mos_capacitances", "scale_factors",
               "inverter_vtc", "noise_margins", "output_slew", "access_sizing"),
    "gates": ("compound_gate", "delay_bounds", "common_euler_ordering",
              "charge_share_voltage", "evaluate_network"),
    "interconnect": ("elmore", "wire_rc", "buffered_wire_delay", "inverter_chain_plan"),
    "effort": ("derive_template", "nand_nor_effort", "path_delay", "optimize_path",
               "design_fork"),
    "timing": ("check_timing", "pipeline_metrics", "ripple_chain", "ring_analyze",
               "ring_design", "latch_constraints", "dff_margins"),
    "power": ("signal_probability", "switching_power", "short_circuit_power",
              "voltage_scaling_factors", "leakage_stack", "adiabatic_energy", "bus_split",
              "gray_code"),
    "memory": ("cell_node_voltage", "load_resistor_bound", "bitline_model",
               "blocked_read_delay", "decoder_cost", "address_decode"),
    "testability": ("lfsr", "logic_simulate", "fault_simulate", "atpg"),
}
FAMILY = {name: family for family, names in _FAMILIES.items() for name in names}

_ENTRIES = {}  # analysis id -> registry entry, as the adapter modules register them


class _Registry(collections.abc.Mapping):
    """Analysis id -> ``{"schema": ..., "run": ...}``, over the ids of FAMILY
    in its order. Looking an id up imports its family's adapter module on
    first use, so a run compiles only the adapters of its own family;
    ``in``, ``len`` and iteration read FAMILY alone. ``importlib``'s module
    lock makes a thread that looks up a family another thread is importing
    wait for it."""

    def __getitem__(self, name):
        if name not in _ENTRIES:
            importlib.import_module(f"{__package__}.cli_{FAMILY[name]}")
        return _ENTRIES[name]

    def __contains__(self, name):
        return name in FAMILY

    def __iter__(self):
        return iter(FAMILY)

    def __len__(self):
        return len(FAMILY)


REGISTRY = _Registry()


def analysis(name, props, required, **more):
    """Register the decorated adapter as ``name``. ``props`` are the schema's
    properties and ``more`` further schema keywords."""
    def wrap(fn):
        _ENTRIES[name] = {"schema": {**_schema(props, required), **more}, "run": fn}
        return fn
    return wrap


# --- case handling ----------------------------------------------------------

CASE_SCHEMA = {
    "type": "object",
    "required": ["analysis", "params"],
    "additionalProperties": False,
    "properties": {
        "schema": {"const": SCHEMA_VERSION},
        "analysis": STR,
        "params": {"type": "object"},
        "meta": {"type": "object"},
    },
}


class CaseError(Exception):
    """Malformed case file (exit status 1)."""


def load_case(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise CaseError(f"cannot read case file: {e}") from e
    except ValueError as e:  # bad JSON, bad UTF-8, an integer over Python's digit limit
        raise CaseError(f"case file is not valid JSON: {e}") from e


# --- compiled schema walks --------------------------------------------------

_NOT_NUMBERS = {str, bool, list, dict, type(None)}


def _is_number(x):
    """jsonschema's "number": a ``numbers.Number`` that is not a bool. Only a
    value of a type no JSON document holds imports ``numbers``."""
    if type(x) in (int, float):
        return True
    if type(x) in _NOT_NUMBERS:
        return False
    import numbers
    return isinstance(x, numbers.Number) and not isinstance(x, bool)


_TYPES = {  # Draft 2020-12 types as jsonschema tells them apart
    "array": lambda x: isinstance(x, list),
    "boolean": lambda x: isinstance(x, bool),
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool)
                          or isinstance(x, float) and x.is_integer()),
    "number": _is_number,
    "object": lambda x: isinstance(x, dict),
    "string": lambda x: isinstance(x, str),
}
_KEYWORDS = {"type", "properties", "required", "additionalProperties", "items",
             "prefixItems", "minItems", "maxItems", "enum", "const", "oneOf", "$ref",
             "$defs"}


class _Reject(Exception):
    """A compiled walk met a schema violation; jsonschema words it."""


def _accept(x, bad):
    return x


def _refuse(x, bad):
    raise _Reject


def _guard(test):
    """A step that passes ``x`` on unchanged when ``test(x)`` holds."""
    def step(x, bad):
        if test(x):
            return x
        raise _Reject
    return step


def _among(values):
    """Membership by jsonschema's equality, under which True and False differ
    from 1 and 0; only scalar values compile."""
    if any(isinstance(v, (list, dict)) for v in values):
        raise ValueError(f"no compiled check for the non-scalar values in {values}")
    allowed = [(isinstance(v, bool), v) for v in values]
    return lambda x: (isinstance(x, bool), x) in allowed


def _either(first, second):
    return lambda x: first(x) or second(x)


def _typed(kinds):
    """The ``type`` step: a quantity (NUM) parses, an integral float in an
    integer field becomes an ``int``, and any other value passes unchanged."""
    test = functools.reduce(_either, [_TYPES[t] for t in kinds])
    if kinds == NUM["type"]:
        def quantity(x, bad):
            if type(x) not in (str, float, int) and not test(x):
                raise _Reject
            try:
                return parse_quantity(x)
            except QuantityError as e:
                bad.append(e)
                return x
        return quantity
    if "integer" in kinds:
        def integer(x, bad):
            if not test(x):
                raise _Reject
            if type(x) in (int, float):
                if abs(x) > sys.float_info.max:
                    bad.append(QuantityError("integer is beyond the floating-point range"))
                    return x
                return int(x)
            return x
        return integer
    return _guard(test)


def _object(props, required, extra, typed):
    """The object keywords; ``typed`` makes them reject what is not an object."""
    required = frozenset(required)

    def step(x, bad):
        if not isinstance(x, dict):
            if typed:
                raise _Reject
            return x
        if not x.keys() >= required:
            raise _Reject
        if not props and extra is _accept:  # nothing inside to parse
            return x
        return {k: props.get(k, extra)(v, bad) for k, v in x.items()}
    return step


def _array(prefix, rest, lo, hi, typed):
    """The array keywords; ``typed`` makes them reject what is not an array."""
    def step(x, bad):
        if not isinstance(x, list):
            if typed:
                raise _Reject
            return x
        if not lo <= len(x) <= hi:
            raise _Reject
        return [p(v, bad) for p, v in zip(prefix, x)] + [rest(v, bad) for v in x[len(prefix):]]
    return step


def _one_of(branches):
    """The value of the one accepting branch, with its unparsed quantities."""
    def step(x, bad):
        found = None
        for branch in branches:
            mine = []
            try:
                value = branch(x, mine)
            except _Reject:
                continue
            if found is not None:
                raise _Reject
            found = value, mine
        if found is None:
            raise _Reject
        bad.extend(found[1])
        return found[0]
    return step


def _compile(schema, root, refs):
    """The walk of ``schema``, a part of the document ``root`` whose
    ``$defs`` its ``$ref``s name; ``refs`` maps each ``$ref`` met so far to
    its walk. A keyword outside _KEYWORDS raises ValueError.

    The walk ``f(x, bad)`` accepts exactly what jsonschema's Draft 2020-12
    validator accepts, and raises _Reject otherwise. It returns ``x`` parsed,
    on a copy: quantities by ``parse_quantity``, integral floats in integer
    fields as ``int``, and a ``oneOf`` as its accepting branch parses it. A
    quantity that does not parse goes on ``bad`` and the walk goes on, so a
    schema violation later in ``x`` still rejects it. The steps below run in
    order, each on the value the one before returned, so a later keyword
    must not test a field an earlier one parses; no schema here does."""
    if isinstance(schema, bool):
        return _accept if schema else _refuse
    unknown = schema.keys() - _KEYWORDS
    if unknown:
        raise ValueError(f"no compiled check for schema keywords {sorted(unknown)}")
    sub = functools.partial(_compile, root=root, refs=refs)
    steps = []
    if "enum" in schema:
        steps.append(_guard(_among(schema["enum"])))
    if "const" in schema:
        steps.append(_guard(_among([schema["const"]])))
    kinds = schema.get("type", [])
    kinds = [kinds] if isinstance(kinds, str) else kinds
    has_object = schema.keys() & {"properties", "required", "additionalProperties"}
    has_array = schema.keys() & {"prefixItems", "items", "minItems", "maxItems"}
    if kinds == NUM["type"] and schema.keys() != {"type"}:
        raise ValueError("a quantity takes no keyword besides its type")
    if "type" in schema and not (kinds == ["object"] and has_object
                                 or kinds == ["array"] and has_array):
        steps.append(_typed(kinds))  # else the object or array step tests the type
    if "$ref" in schema:
        ref = schema["$ref"]
        if ref not in refs:
            refs[ref] = None  # a recursive reference looks its target up when it runs
            refs[ref] = sub(root["$defs"][ref.removeprefix("#/$defs/")])
        steps.append(lambda x, bad: refs[ref](x, bad))
    if has_object:
        steps.append(_object({k: sub(v) for k, v in schema.get("properties", {}).items()},
                             schema.get("required", []),
                             sub(schema.get("additionalProperties", True)),
                             kinds == ["object"]))
    if has_array:
        steps.append(_array([sub(s) for s in schema.get("prefixItems", [])],
                            sub(schema.get("items", True)),
                            schema.get("minItems", 0), schema.get("maxItems", float("inf")),
                            kinds == ["array"]))
    if "oneOf" in schema:
        steps.append(_one_of([sub(s) for s in schema["oneOf"]]))
    if len(steps) <= 1:
        return steps[0] if steps else _accept

    def walk(x, bad):
        for step in steps:
            x = step(x, bad)
        return x
    return walk


@functools.cache
def _walk(name):
    """The compiled walk of one schema: the case envelope (``None``) or an analysis."""
    schema = CASE_SCHEMA if name is None else REGISTRY[name]["schema"]
    return _compile(schema, schema, {})


def _walk_case(case):
    """The analysis id, the parsed params and the quantities that did not
    parse, in document order, of a case the schemas accept. Only a rejected
    case imports jsonschema, whose first error the CaseError names."""
    bad = []
    try:
        _walk(None)(case, bad)
        if case["analysis"] in REGISTRY:
            return case["analysis"], _walk(case["analysis"])(case["params"], bad), bad
    except _Reject:
        pass
    import jsonschema
    e = jsonschema.exceptions.best_match(
        jsonschema.Draft202012Validator(CASE_SCHEMA).iter_errors(case))
    if e is not None:
        path = "/".join(str(p) for p in e.absolute_path) or "(top level)"
        raise CaseError(f"case structure invalid at {path}: {e.message}")
    name = case["analysis"]
    if name not in REGISTRY:
        raise CaseError(f"unknown analysis {name!r}")
    validator = jsonschema.Draft202012Validator(REGISTRY[name]["schema"])
    e = min(validator.iter_errors(case["params"]),
            key=lambda e: (e.json_path, e.message), default=None)
    if e is not None:
        path = "/".join(str(p) for p in e.absolute_path) or "(params)"
        raise CaseError(f"params invalid at {path}: {e.message}")
    raise AssertionError(f"the compiled schema check rejects a {name!r} case that "
                         "jsonschema accepts")


def validate_case(case) -> str:
    """Return the analysis id after full schema validation; raise CaseError
    naming the first violation otherwise. Quantities are not parsed here."""
    return _walk_case(case)[0]


_NEVER_INFINITE = {int, bool, str, type(None)}


def _finite(x):
    """Whether every float in ``x``, nested lists, tuples and dicts included,
    is finite. A container of plain scalars is checked in one pass."""
    if isinstance(x, float):
        return math.isfinite(x)
    if isinstance(x, dict):
        x = x.values()
    elif not isinstance(x, (list, tuple)):
        return True
    return set(map(type, x)) <= _NEVER_INFINITE or all(map(_finite, x))


def run_case(case) -> dict:
    """Validate and execute one case, returning the report dict. Adapters get
    every NUM field as a float; the report echoes the params as given. Once
    the schemas accept the case, the first quantity in document order that
    does not parse raises QuantityError; a result that holds an infinite or
    NaN float raises DomainError."""
    name, params, bad = _walk_case(case)
    if bad:
        raise bad[0]
    results, diagnostics = REGISTRY[name]["run"](params)
    for k, v, _ in results:
        if not _finite(v):
            raise DomainError(f"result {k} is not finite")
    return {
        "schema": SCHEMA_VERSION,
        "analysis": name,
        "label": case.get("meta", {}).get("label", ""),
        "inputs": case["params"],
        "results": {k: {"value": v, "unit": u} for k, v, u in results},
        "diagnostics": diagnostics,
    }


def _format_tree(x):
    if isinstance(x, float):
        return format_number(x)
    if isinstance(x, dict):
        return {k: _format_tree(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_format_tree(v) for v in x]
    return x


_STRING = json.encoder.encode_basestring_ascii


def _number(x):
    x = format_number(x)
    return _STRING(x) if isinstance(x, str) else repr(x)


_SCALARS = {str: _STRING, float: _number, int: int.__repr__,
            bool: lambda x: "true" if x else "false", type(None): lambda x: "null"}


def _json(x, pad):
    """``json.dumps(_format_tree(x), indent=2)`` for ``x`` on a line that
    starts with ``pad``, a newline and indent. A scalar inside a container
    is converted without a recursive call."""
    scalar = _SCALARS.get(type(x))
    if scalar is not None:
        return scalar(x)
    inner = pad + "  "
    if isinstance(x, dict):
        brackets = "{}"
        items = [f"{_STRING(k if isinstance(k, str) else json.dumps(k))}: "
                 f"{s(v) if (s := _SCALARS.get(type(v))) else _json(v, inner)}"
                 for k, v in x.items()]
    elif isinstance(x, (list, tuple)):
        brackets = "[]"
        items = [s(v) if (s := _SCALARS.get(type(v))) else _json(v, inner) for v in x]
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + pad + brackets[1]


def render_json(report) -> str:
    return _json(report, "\n") + "\n"


def render_table(report) -> str:
    lines = [f"analysis: {report['analysis']}"]
    if report["label"]:
        lines.append(f"label:    {report['label']}")
    rows = []
    for name, rv in report["results"].items():
        value = _format_tree(rv["value"])
        if isinstance(value, (dict, list)):
            value = json.dumps(value)
        rows.append((name, str(value), rv["unit"]))
    w_name = max((len(r[0]) for r in rows), default=0)
    w_val = max((len(r[1]) for r in rows), default=0)
    lines.append("")
    for name, value, unit in rows:
        lines.append(f"  {name:<{w_name}}  {value:>{w_val}}  {unit}".rstrip())
    if report["diagnostics"]:
        lines.append("")
        for d in report["diagnostics"]:
            lines.append(f"  note: {d}")
    return "\n".join(lines) + "\n"


def _fail(code, kind, message, **extra):
    sys.stderr.write(json.dumps(
        {"error": {"code": kind, "message": str(message), **extra}}) + "\n")
    return code


def main(argv=None) -> int:
    """Run the command line ``argv`` (``sys.argv[1:]`` when None) and return
    the exit status. With ``argv`` None, vlsidesk is the whole process, which
    ends when this returns: ``gc.freeze()`` then moves every object out of
    the collector's reach, so the interpreter's exit-time collection does not
    walk a heap the OS frees anyway. ``atexit`` handlers still run and stdio
    is still flushed. A caller that passes a list keeps its collector as it
    was."""
    try:
        code = _main(argv)
    except BrokenPipeError:  # downstream closed the pipe (e.g. | head)
        code = 0
    except Exception as e:  # a defect in vlsidesk, not in the case: keep it machine-readable
        import traceback  # only this path needs it; importing it up front slows every start
        code = _fail(3, "internal_error", f"{type(e).__name__}: {e}",
                     traceback=traceback.format_exc())
    if argv is None:
        import gc
        gc.freeze()
    return code


_HELP = """usage: vlsidesk run CASE [--format json|table]
       vlsidesk validate CASE
       vlsidesk list

batch VLSI analysis runner

commands:
  run       run one case file
  validate  schema-check a case file without running
  list      list analysis ids and their parameter schemas
"""


class _UsageError(Exception):
    """A command line that does not match the usage (exit status 1)."""


def _command_line(argv):
    """The command, case path and report format that ``argv`` names."""
    command, *rest = argv or [""]
    if command not in ("run", "validate", "list"):
        raise _UsageError(f"unknown command {command!r}" if command else "no command given")
    fmt, operands = "json", []
    args = iter(rest)
    for arg in args:
        option, eq, value = arg.partition("=")
        if command == "run" and option == "--format":
            fmt = value if eq else next(args, "")
            if fmt not in ("json", "table"):
                raise _UsageError(f"--format takes json or table, not {fmt!r}")
        elif arg.startswith("-"):
            raise _UsageError(f"unknown option {arg!r} for {command}")
        else:
            operands.append(arg)
    if len(operands) != (command != "list"):
        wanted = "no operand" if command == "list" else "one case file"
        raise _UsageError(f"{command} takes {wanted}, not {len(operands)}")
    return command, operands[0] if operands else None, fmt


def _main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(_HELP)
        return 0
    try:
        command, path, fmt = _command_line(argv)
    except _UsageError as e:
        return _fail(1, "usage_error", e)
    if command == "list":
        listing = {name: REGISTRY[name]["schema"] for name in sorted(REGISTRY)}
        sys.stdout.write(json.dumps(listing, indent=2) + "\n")
        return 0
    try:
        case = load_case(path)
        if command == "validate":
            validate_case(case)
            sys.stdout.write("OK\n")
            return 0
        report = run_case(case)
    except (CaseError, QuantityError) as e:
        return _fail(1, "invalid_case", e)
    except VlsiError as e:
        return _fail(2, "analysis_error", f"{type(e).__name__}: {e}")
    render = render_json if fmt == "json" else render_table
    sys.stdout.write(render(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
