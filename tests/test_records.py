"""The analysis records: value equality within one class, hashing, ``repr``
in field order, read-only fields (``RcTree`` excepted), and defaults that
are fresh per instance."""

import importlib

import pytest

from vlsidesk import Record, cli_device
from vlsidesk.device import MosDevice, ScalingFactors, VtcResult
from vlsidesk.gates import Parallel, Series, Switch
from vlsidesk.interconnect import RcTree
from vlsidesk.testability import StuckFault

MODULES = ("boolexpr", "device", "gates", "effort", "interconnect", "memory", "power",
           "testability", "timing")
RECORDS = sorted({cls for name in MODULES
                  for cls in vars(importlib.import_module(f"vlsidesk.{name}")).values()
                  if isinstance(cls, type) and issubclass(cls, Record) and cls is not Record},
                 key=lambda cls: (cls.__module__, cls.__name__))


def test_switch_is_a_value():
    a, b = Switch("a", 2.0), Switch("a", 2.0)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Switch("a", 3.0) and a != Switch("b", 2.0)
    assert Switch("a") == Switch("a", 1.0) == Switch(name="a", width=1.0)
    assert repr(a) == "Switch(name='a', width=2.0)"
    assert a != ("a", 2.0)


def test_series_and_parallel_of_the_same_children_differ():
    kids = [Switch("a"), Switch("b")]
    series, parallel = Series(kids), Parallel(kids)
    assert series.children == parallel.children == tuple(kids)
    assert series != parallel and parallel != series
    assert series == Series(tuple(kids)) and hash(series) == hash(Series(tuple(kids)))
    assert repr(parallel) == ("Parallel(children=(Switch(name='a', width=1.0), "
                              "Switch(name='b', width=1.0)))")


def test_mos_device_fields_in_order():
    dev = MosDevice(w=2.0, x_j=0.3e-6)
    assert dev.x_j_sw == 0.3e-6            # defaults to x_j
    assert tuple(vars(dev)) == MosDevice._fields
    assert list(cli_device._MOS_FIELDS) == [f.rstrip("_") for f in MosDevice._fields]
    assert dev == MosDevice(w=2.0, x_j=0.3e-6, x_j_sw=0.3e-6)
    assert repr(dev).startswith("MosDevice(polarity='nmos', k_prime=0.0001, vt0=0.5, ")
    assert repr(dev).endswith(", y=0.0, m_j=0.5, m_jsw=0.5)")


def test_stuck_fault_hashes_by_value():
    faults = {StuckFault("x", 1), StuckFault("x", 1), StuckFault("x", 0)}
    assert len(faults) == 2
    assert repr(StuckFault("n3", 0)) == "StuckFault(net='n3', value=0)"


@pytest.mark.parametrize("record,field", [(Switch("a"), "width"),
                                          (Series([Switch("a"), Switch("b")]), "children"),
                                          (MosDevice(), "w"),
                                          (StuckFault("x", 1), "value")])
def test_records_are_read_only(record, field):
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(record, field, 5)
    with pytest.raises(AttributeError, match="cannot assign"):
        record.extra = 5
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(record, field)


def test_rc_tree_is_mutable_and_unhashable():
    tree = RcTree("s")
    tree.root = "t"
    assert tree == RcTree("t") and tree != RcTree("s")
    with pytest.raises(TypeError, match="unhashable"):
        hash(tree)
    assert repr(tree) == "RcTree(root='t', parent={}, cap={})"


def test_default_dicts_are_fresh_per_instance():
    a, b = RcTree("s"), RcTree("s")
    a.add_edge("s", "n1", 1.0)
    assert a.parent == {"n1": ("s", 1.0)} and b.parent == {} and a != b
    assert a.cap is not b.cap
    assert ScalingFactors("general", 1, 1).factors is not ScalingFactors("general", 1, 1).factors
    assert VtcResult(*[0.0] * 7).regions is not VtcResult(*[0.0] * 7).regions


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_init_takes_the_fields_in_order(cls):
    # fields set only by __init__ (Lfsr's taps, matrix, feedback) come last
    code = cls.__init__.__code__
    params = code.co_varnames[1:code.co_argcount]
    assert cls._fields[:len(params)] == params


def test_the_sweep_sees_all_43_records():
    assert len(RECORDS) == 43
