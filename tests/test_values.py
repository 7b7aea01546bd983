import copy
import os
import pickle
import subprocess
import sys

import pytest

import binact
from binact import (
    BinaryAction,
    BinaryOp,
    CarrierMap,
    EnumerationResult,
    EnumerationTask,
    FiniteGroup,
    FiniteTopology,
    FunctorLawsReport,
    OrbitSpace,
    OrdinaryAction,
    TopologicalBinaryGSpace,
    builtin_group,
)
from binact.binops import _Value
from binact.search import IntersectingOrbitsWitness, UnionWitness, WitnessReport, _Block
from binact.topology import ProjectionChecks, QuotientChecks

Z2 = builtin_group("z2")
SWAP = ((0, 1), (1, 0))
ACTION = BinaryAction(Z2, 2, (((0, 1), (0, 1)), ((1, 0), (1, 0))))
TASK = EnumerationTask(Z2, 2)

# (class, every field by position, the repr binact printed when these were
# frozen dataclasses); each class's defaults are among the values given
CASES = [
    (BinaryOp, (2, SWAP), "BinaryOp(size=2, table=((0, 1), (1, 0)))"),
    (FiniteGroup, (2, SWAP, 0, (0, 1), "G", None), "FiniteGroup('G', order=2)"),
    (BinaryAction, (Z2, 2, ACTION.table, None), "BinaryAction(Z2, carrier=2)"),
    (OrdinaryAction, (Z2, 2, SWAP),
     "OrdinaryAction(group=FiniteGroup('Z2', order=2), carrier_size=2, "
     "table=((0, 1), (1, 0)))"),
    (OrbitSpace, (ACTION, ((0, 1),), (0, 0), (3, 3)),
     "OrbitSpace(source=BinaryAction(Z2, carrier=2), classes=((0, 1),), "
     "projection=(0, 0), orbit_masks=(3, 3))"),
    (CarrierMap, (ACTION, ACTION, (1, 0)),
     "CarrierMap(source=BinaryAction(Z2, carrier=2), target=BinaryAction(Z2, carrier=2), "
     "mapping=(1, 0))"),
    (FunctorLawsReport, (((0, 1),), ((0, 0),)),
     "FunctorLawsReport(identity_checks=((0, 1),), composition_checks=((0, 0),))"),
    (EnumerationTask, (Z2, 2, False, False, 2_000_000, 120.0),
     "EnumerationTask(group=FiniteGroup('Z2', order=2), carrier_size=2, "
     "require_distributive=False, dedupe=False, node_budget=2000000, time_budget_s=120.0)"),
    (IntersectingOrbitsWitness, (ACTION, 0, 1, frozenset({0, 1}), frozenset({1})),
     "IntersectingOrbitsWitness(action=BinaryAction(Z2, carrier=2), x=0, xp=1, "
     "set_x=frozenset({0, 1}), set_xp=frozenset({1}))"),
    (UnionWitness, (ACTION, frozenset({0}), frozenset({1}), frozenset({0, 1})),
     "UnionWitness(action=BinaryAction(Z2, carrier=2), set_a=frozenset({0}), "
     "set_b=frozenset({1}), union_image=frozenset({0, 1}))"),
    (WitnessReport, (None, None, 3),
     "WitnessReport(intersecting_orbits=None, non_bi_invariant_union=None, actions_scanned=3)"),
    (EnumerationResult, (TASK, 4, 3, 2, True, (SWAP,), [(0, 0)], 0),
     "EnumerationResult(task=EnumerationTask(group=FiniteGroup('Z2', order=2), carrier_size=2, "
     "require_distributive=False, dedupe=False, node_budget=2000000, time_budget_s=120.0), "
     "raw_count=4, canonical_count=3, distributive_count=2, exhaustive=True, "
     "homs=(((0, 1), (1, 0)),), rows=[(0, 0)], nodes=0)"),
    (FiniteTopology, (2, (0, 1, 3)), "FiniteTopology(carrier_size=2, opens=(0, 1, 3))"),
    (TopologicalBinaryGSpace, (ACTION, FiniteTopology(2, (0, 3))),
     "TopologicalBinaryGSpace(action=BinaryAction(Z2, carrier=2), "
     "topology=FiniteTopology(carrier_size=2, opens=(0, 3)))"),
    (ProjectionChecks, (True, False), "ProjectionChecks(closed=True, proper=False)"),
    (QuotientChecks, (True, True, False, True),
     "QuotientChecks(hausdorff=True, compact=True, locally_compact=False, "
     "compactness_degenerate=True)"),
]

DEFAULTS = {
    FiniteGroup: {"name": "G", "labels": None},
    BinaryAction: {"group_embedding": None},
    EnumerationTask: {"require_distributive": False, "dedupe": False, "node_budget": 2_000_000,
                      "time_budget_s": 120.0},
    EnumerationResult: {"nodes": 0},
    QuotientChecks: {"compactness_degenerate": True},
}

FIELDS = {
    BinaryOp: ("size", "table"),
    FiniteGroup: ("order", "cayley", "identity", "inverse", "name", "labels"),
    BinaryAction: ("group", "carrier_size", "table", "group_embedding"),
    OrdinaryAction: ("group", "carrier_size", "table"),
    OrbitSpace: ("source", "classes", "projection", "orbit_masks"),
    CarrierMap: ("source", "target", "mapping"),
    FunctorLawsReport: ("identity_checks", "composition_checks"),
    EnumerationTask: ("group", "carrier_size", "require_distributive", "dedupe", "node_budget",
                      "time_budget_s"),
    IntersectingOrbitsWitness: ("action", "x", "xp", "set_x", "set_xp"),
    UnionWitness: ("action", "set_a", "set_b", "union_image"),
    WitnessReport: ("intersecting_orbits", "non_bi_invariant_union", "actions_scanned"),
    EnumerationResult: ("task", "raw_count", "canonical_count", "distributive_count",
                        "exhaustive", "homs", "rows", "nodes"),
    FiniteTopology: ("carrier_size", "opens"),
    TopologicalBinaryGSpace: ("action", "topology"),
    ProjectionChecks: ("closed", "proper"),
    QuotientChecks: ("hausdorff", "compact", "locally_compact", "compactness_degenerate"),
}


@pytest.mark.parametrize("cls, values, text", CASES, ids=[c[0].__name__ for c in CASES])
def test_value_classes_keep_their_contract(cls, values, text):
    """Each public value class is built by position or by keyword, with its
    defaults, which are class attributes too; equal instances are equal
    and hash alike, and no instance equals an object of another class, not
    even the tuple of its fields; no field can be set or deleted; pickle,
    copy and deepcopy give an equal object; and the repr is the one binact
    has always printed."""
    names = FIELDS[cls]
    assert len(names) == len(values)
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    defaults = DEFAULTS.get(cls, {})
    required = {n: v for n, v in zip(names, values) if n not in defaults}
    with_defaults = cls(**required)
    for a in (by_keyword, with_defaults):
        assert a is not by_position and a == by_position and hash(a) == hash(by_position)
    assert [getattr(by_position, n) for n in names] == list(values)
    assert {n: getattr(with_defaults, n) for n in defaults} == defaults
    assert {n: getattr(cls, n) for n in defaults} == defaults  # read by the CLI's flags
    for other in (tuple(values), object(), None):
        assert by_position != other and by_position.__eq__(other) is NotImplemented
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(by_position, name, None)
        with pytest.raises(AttributeError):
            delattr(by_position, name)
    assert [getattr(by_position, n) for n in names] == list(values)
    for other in (pickle.loads(pickle.dumps(by_position)), copy.copy(by_position),
                  copy.deepcopy(by_position)):
        assert type(other) is cls and other == by_position and hash(other) == hash(by_position)
    assert repr(by_position) == text


def test_value_classes_compare_every_field_but_nodes():
    """A value with any one field replaced differs from the original, but
    for EnumerationResult's nodes, which equality and hashing leave out, as
    hashing leaves out its rows."""
    for cls, values, _ in CASES:
        a = cls(*values)
        for name in FIELDS[cls]:
            b = copy.copy(a)
            vars(b)[name] = object()
            assert (a == b) is (cls is EnumerationResult and name == "nodes"), (cls, name)
    result = EnumerationResult(*CASES[11][1])
    other = EnumerationResult(TASK, 4, 3, 2, True, (SWAP,), [(0, 0)], nodes=9)
    assert other == result and hash(other) == hash(result)
    assert hash(EnumerationResult(TASK, 4, 3, 2, True, (SWAP,), [], 0)) == hash(result)


def test_importing_binact_generates_no_class_code():
    """Importing the library and its CLI loads neither dataclasses nor
    inspect: the value classes are plain classes compiled with their
    modules, not generated and exec()ed at every start-up."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import binact, binact.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    src = os.path.dirname(os.path.dirname(binact.__file__))
    out = subprocess.run([sys.executable, "-E", "-s", "-c", code, src], capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


# the records binact builds and returns take their fields through _Value's
# one constructor; the classes callers build keep a constructor of their own
RECORDS = (OrbitSpace, FunctorLawsReport, IntersectingOrbitsWitness, UnionWitness, WitnessReport,
           EnumerationResult, _Block, ProjectionChecks, QuotientChecks)
INPUTS = (BinaryOp, FiniteGroup, BinaryAction, OrdinaryAction, CarrierMap, FiniteTopology,
          TopologicalBinaryGSpace, EnumerationTask)


def test_records_share_one_constructor_and_inputs_keep_their_own():
    for cls in RECORDS:
        assert "__init__" not in vars(cls) and cls.__init__ is _Value.__init__, cls
    for cls in INPUTS:
        assert "__init__" in vars(cls), cls


@pytest.mark.parametrize("args, kwargs", [
    ((True, True, False, True, False), {}),
    ((True, True, False), {"separable": True}),
    ((True, True, False), {"hausdorff": True}),
    ((True, True), {}),
], ids=["too-many-positional", "unknown-keyword", "by-position-and-by-name", "missing-field"])
def test_shared_constructor_refuses_what_a_signature_would(args, kwargs):
    """More positional fields than _fields, an unknown name, a field given
    twice, or a missing field with no default each raise TypeError."""
    with pytest.raises(TypeError, match=r"^QuotientChecks\(\) "):
        QuotientChecks(*args, **kwargs)
