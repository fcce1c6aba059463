"""``cli.render_json`` writes, in one pass, the bytes that formatting every
float with ``format_number`` and then ``json.dumps(..., indent=2)`` wrote."""

import json
import math
import pathlib
import random
import sys

import pytest

from vlsidesk import cli
from vlsidesk.units import format_number

from conftest import CASES_DIR, load_case

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
import scale  # noqa: E402  (the benchmark's seeded case generator)


def format_tree(x):
    if isinstance(x, float):
        return format_number(x)
    if isinstance(x, dict):
        return {k: format_tree(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [format_tree(v) for v in x]
    return x


def render_oracle(report):
    return json.dumps(format_tree(report), indent=2) + "\n"


def test_corpus_reports_render_as_before():
    for p in sorted(CASES_DIR.glob("*.json")):
        report = cli.run_case(load_case(p.stem))
        assert cli.render_json(report) == render_oracle(report), p.stem


@pytest.mark.parametrize("seed", [1, 2, 101])
def test_scale_reports_render_as_before(seed):
    for sc in scale.generate(seed):
        report = cli.run_case(sc.case)
        assert cli.render_json(report) == render_oracle(report), sc.family


SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e15, -1e15, 1e15 + 2.0,
                  2.0**60, 1e300, 5e-324, 0.1, -123.456789, 192.0, 1 / 3]
SPECIAL_INTS = [0, -1, 2**53 + 1, 10**30, -(10**40)]
TEXT = "aZ0 \"\\/\x00\x01\x1f\x7fé五 \U0001f600\t\n"


def random_string(rng):
    return "".join(rng.choice(TEXT) for _ in range(rng.randrange(0, 6)))


def random_leaf(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return rng.choice(SPECIAL_FLOATS)
    if kind == 1:
        return rng.uniform(-1e6, 1e6) * 10.0 ** rng.randrange(-30, 30)
    if kind == 2:
        return rng.choice(SPECIAL_INTS + [rng.randrange(-10**6, 10**6)])
    if kind == 3:
        return rng.choice([True, False, None])
    return random_string(rng)


def random_tree(rng, depth=0):
    kind = rng.randrange(4) if depth < 4 else 3
    width = rng.randrange(0, 5)
    if kind == 0:
        return {random_string(rng): random_tree(rng, depth + 1) for _ in range(width)}
    if kind == 1:
        return [random_tree(rng, depth + 1) for _ in range(width)]
    if kind == 2:
        return tuple(random_tree(rng, depth + 1) for _ in range(width))
    return random_leaf(rng)


def test_random_trees_render_as_before():
    rng = random.Random(500)
    for _ in range(500):
        tree = {"results": random_tree(rng), "inputs": random_tree(rng)}
        assert cli.render_json(tree) == render_oracle(tree), tree


@pytest.mark.parametrize("tree", [{}, [], {"a": {}}, {"a": []}, [[], {}], {"": ""},
                                  {"k": (1.5, -0.0)}, {1: 2, 2.5: 3, True: 4, None: 5}],
                         ids=repr)
def test_edge_trees_render_as_before(tree):
    assert cli.render_json(tree) == render_oracle(tree)


def test_unserializable_value_raises_type_error():
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli.render_json({"a": object()})
