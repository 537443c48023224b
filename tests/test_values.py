"""Every immutable value class of `src/` sits on `f2.Frozen`: its fields
cannot be assigned or deleted, equal arguments give equal values with equal
hashes, a filled memo changes neither, and pickle and copy rebuild it."""

import copy
import inspect
import pickle

import pytest

from rebuild import rebuilt
from steenrod import action, algebra, bundles, charclass, dual, f2, modules, verify
from steenrod.action import AlgebraMap, Check, SqAlgebraPresentation
from steenrod.f2 import F2Matrix, Frozen, WeightedPolyRing


def ring():
    return WeightedPolyRing((("x", 1), ("y", 2)))


def presentation():
    return SqAlgebraPresentation.build(ring(), {"y": {1: "x*y"}})


def algebra_map():
    """The identity of presentation(), given on generators."""
    p = presentation()
    return AlgebraMap(p, p, (p.ring.gen("x"), p.ring.gen("y")))


def module():
    """Z2 over E(1), built from its fields."""
    return modules.FiniteModule(
        "E1", 0, (1,), (("q0", (F2Matrix.zero(0, 1),)), ("q1", (F2Matrix.zero(0, 1),)))
    )


# one builder per class; each call builds a new value from equal arguments
MAKERS = {
    f2.F2Vector: lambda: f2.F2Vector(3, 5),
    f2.F2Matrix: lambda: f2.F2Matrix(2, 3, [1, 6]),
    f2.WeightedPolyRing: ring,
    f2.F2Poly: lambda: ring().parse("x^2 + y"),
    f2.PoincareSeries: lambda: f2.PoincareSeries((1, 1, 2)),
    action.SqAlgebraPresentation: presentation,
    action.Check: lambda: Check("x", False, "w"),
    action.AlgebraMap: algebra_map,
    algebra.SteenrodElement: lambda: algebra.SteenrodElement(frozenset({(2, 1), (3,)})),
    algebra.TensorElement: lambda: algebra.TensorElement(frozenset({((1,), ()), ((), (1,))})),
    dual.DualElement: lambda: dual.DualElement(frozenset({(1,), (0, 1)})),
    dual.DualTensor: lambda: dual.DualTensor(frozenset({((1,), ())})),
    dual.SubHopfAlgebra: lambda: dual.SubHopfAlgebra("A", 1),
    modules.Algebra: lambda: modules.ALGEBRAS["A1"],
    modules.FiniteModule: module,
    modules.ModuleMap: lambda: modules.identity_map(module()),
    modules.StableType: lambda: modules.StableType("infeasible", (), None, "no placement"),
    modules.SplitCertificate: lambda: modules.SplitCertificate(True, True, False, 4),
    modules.PeriodicFeasibility: lambda: modules.PeriodicFeasibility(False, None, "deficit"),
    bundles.RestrictionModel: lambda: rebuilt(bundles.restriction_model()),
    bundles.FiberBundleData: lambda: rebuilt(bundles.cp2_bundle()),
    bundles.LegResult: lambda: bundles.LegResult(6, "w6", "0", "0", False),
    charclass.PrimitiveReport: lambda: charclass.PrimitiveReport(
        "bo", 4, 1, "s4", frozenset({1}), True, True
    ),
    charclass.IndecomposableTable: lambda: charclass.IndecomposableTable({4: 1}, ()),
    verify.SuiteReport: lambda: verify.SuiteReport("hopf", (Check("x", True),)),
}
# a dict field makes the value unhashable, as it was before
UNHASHABLE = {charclass.IndecomposableTable}


def test_every_frozen_class_has_a_builder():
    assert set(Frozen.__subclasses__()) == set(MAKERS)
    assert len(MAKERS) == 25


@pytest.mark.parametrize("cls", MAKERS, ids=lambda cls: cls.__name__)
class TestFrozen:
    def test_the_slots_start_with_the_constructor_parameters(self, cls):
        # the repr names the key's fields, and pickle passes the key back to
        # the constructor, both by this order
        params = tuple(inspect.signature(cls).parameters)
        assert cls.__slots__[: len(params)] == params
        assert len(MAKERS[cls]()._key()) == len(params)

    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        value = MAKERS[cls]()
        for name in cls.__slots__:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = None
        assert not hasattr(value, "__dict__")

    def test_pickle_and_copy_build_the_value_again(self, cls):
        value = MAKERS[cls]()
        for again in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert type(again) is cls and again is not value
            assert again._key() == value._key()

    def test_equal_arguments_give_equal_values_and_hashes(self, cls):
        a, b = MAKERS[cls](), rebuilt(MAKERS[cls]())
        assert a is not b
        if cls is modules.Algebra:
            assert a == a and a != b  # compares by identity
            return
        assert a == b and not a != b
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)


def test_a_filled_memo_changes_neither_equality_nor_hash():
    filled = ring()
    filled.monomials_of_degree(6)
    assert filled._suffixes
    assert filled == ring() and hash(filled) == hash(ring())

    m = algebra_map()
    m.apply(m.source.ring.parse("x^3 + y^2"))
    assert m._powers
    assert m == algebra_map() and hash(m) == hash(algebra_map())


def test_a_value_differs_from_one_with_another_field():
    assert Check("x", False, "w") != Check("x", False, "v")
    assert f2.F2Vector(3, 5) != f2.F2Vector(4, 5)
    assert f2.F2Vector(3, 5) != (3, 5)


def test_a_passing_check_keeps_no_witness():
    assert Check("x", True, "w").witness == ""
    assert Check("x", False, "w").witness == "w"


def test_keyword_construction():
    assert Check(check_id="x", ok=False, witness="w") == Check("x", False, "w")
    b = bundles.cp2_bundle()
    shorter = bundles.FiberBundleData(
        b.name, b.base, b.total, b.pullback, b.fiber_dim, b.lh_basis, b.w_tau, cap=40
    )
    assert shorter.cap == 40 and shorter != b
    assert bundles.FiberBundleData(*(getattr(b, n) for n in b.__slots__[:7])).cap == 72


def test_the_repr_names_each_key_field():
    assert repr(Check("x", False, "w")) == "Check(check_id='x', ok=False, witness='w')"
    assert repr(modules.SplitCertificate(True, True, False, 4)) == (
        "SplitCertificate(hypotheses_met=True, f_injective=True,"
        " q0_margolis_injective=False, witness_degree=4)"
    )
    assert repr(ring()) == "WeightedPolyRing(generators=(('x', 1), ('y', 2)))"
