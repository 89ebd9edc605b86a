"""Addresses, sparse functions, levels, inner products."""
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from treejacobi import (boundary, deficiency, lambda_tree, operator, oracle,
                        treecore)
from treejacobi.boundary import StepFunction
from treejacobi.cli import dump_json
from treejacobi.coefficients import CoefficientSequence, TreeConfig
from treejacobi.deficiency import DeficiencyContext, DeficiencyElement
from treejacobi.errors import KindMismatch, PatchTooLarge
from treejacobi.exactnum import as_complex, exact_complex
from treejacobi.operator import JacobiOperator, moments, subtree_average_Ex
from treejacobi.treecore import (APEX_SUCCESSOR, GAMMA, LambdaPatch, SparseFunction,
                                 children, format_address, inner, level,
                                 level_indicator, level_vertices, parent,
                                 parse_address, subtree_vertices)


def test_address_text_forms():
    assert format_address(()) == "e"
    assert format_address((1, 3, 2)) == "1.3.2"
    assert parse_address("e") == ()
    assert parse_address("1.3.2") == (1, 3, 2)
    assert parse_address("12.3") == (12, 3)
    with pytest.raises(ValueError):
        parse_address("1..2")
    with pytest.raises(ValueError):
        parse_address("a.b")


addresses = st.lists(st.integers(min_value=1, max_value=12),
                     max_size=8).map(tuple)


@given(addresses)
def test_address_round_trip(x):
    assert parse_address(format_address(x)) == x


@given(addresses, st.integers(min_value=2, max_value=5))
def test_parent_of_children(x, d):
    kids = children(x, d)
    assert len(kids) == d
    for c in kids:
        assert parent(c) == x
        assert level(c) == level(x) + 1


def test_children_of_root():
    assert children((), 3) == [(1,), (2,), (3,)]
    assert parent(()) is None


def test_level_vertices_counts():
    for d in (2, 3):
        for n in range(4):
            assert len(list(level_vertices(n, d))) == d ** n


def test_level_vertices_budget():
    with pytest.raises(PatchTooLarge):
        list(level_vertices(30, 2))


@pytest.fixture
def vertices_yielded(monkeypatch):
    """Count the vertices the two tree walkers yield, wherever they are
    imported; the budget check still runs when a walker is called."""
    count = [0]

    def counting(walker):
        def counted(*args):
            vertices = walker(*args)

            def each():
                for x in vertices:
                    count[0] += 1
                    yield x
            return each()
        return counted

    for name in ("level_vertices", "subtree_vertices"):
        walker = getattr(treecore, name)
        for module in (treecore, boundary, deficiency, lambda_tree, operator, oracle):
            if getattr(module, name, None) is walker:
                monkeypatch.setattr(module, name, counting(walker))
    return count


def _materialize_radial(depth):
    ctx = DeficiencyContext(CoefficientSequence.constant(1), 2, 1j)
    return DeficiencyElement(None, (1,), 1j).materialize(ctx, depth)


# Each site just past the two-million entry budget at d = 2, with the
# entry count it refuses (2^21 = 2,097,152 or 2^21 - 1) and the vertices it
# may enumerate first: refining the unit function builds its one depth-0 cell.
OVER_BUDGET = {
    "level_vertices": (lambda: level_vertices(21, 2), 2 ** 21, 0),
    "subtree_vertices": (lambda: subtree_vertices((), 20, 2), 2 ** 21 - 1, 0),
    "level_indicator": (lambda: level_indicator(21, 2), 2 ** 21, 0),
    "LambdaPatch": (lambda: LambdaPatch(20, 2), 2 ** 21 - 1, 0),
    "materialize": (lambda: _materialize_radial(20), 2 ** 21 - 1, 0),
    "StepFunction.canonical": (
        lambda: StepFunction.indicator(2, (1,) * 21).canonical(), 2 ** 21, 0),
    "StepFunction.refined": (
        lambda: StepFunction.indicator(2, ()).refined(21), 2 ** 21, 1),
    "moments_tree": (lambda: moments(JacobiOperator(
        CoefficientSequence.constant(1), TreeConfig(2)), 21, route="tree"), 2 ** 21, 0),
    "subtree_average_Ex": (
        lambda: subtree_average_Ex(SparseFunction.delta((1,) * 21), (), 2), 2 ** 21, 0),
}


@pytest.mark.parametrize("site", sorted(OVER_BUDGET))
def test_over_budget_refused_before_enumerating(site, vertices_yielded):
    call, count, built = OVER_BUDGET[site]
    with pytest.raises(PatchTooLarge, match=f"needs {count} entries, over the budget"):
        call()
    assert vertices_yielded[0] == built


def test_patch_cardinality_matches_enumeration():
    for d in (2, 3, 4):
        for n in range(7):
            patch = LambdaPatch(n, d)
            assert patch.size() == (d ** (n + 1) - 1) // (d - 1)
            assert len(list(subtree_vertices((), n, d))) == patch.size()


def test_patch_levels():
    patch = LambdaPatch(3, 2)
    assert patch.level(()) == 3
    assert patch.level((1, 2)) == 1
    assert patch.level((1, 2, 1)) == 0
    assert patch.level(APEX_SUCCESSOR) == 4  # the virtual vertex above the apex


def test_delta_inner_products():
    dx = SparseFunction.delta((1, 2))
    dy = SparseFunction.delta((1, 1))
    assert inner(dx, dx) == 1.0
    assert inner(dx, dy) == 0.0


def test_inner_kind_mismatch():
    f = SparseFunction.delta(())
    g = SparseFunction.delta((), kind=LambdaPatch(2, 2))
    with pytest.raises(KindMismatch):
        inner(f, g)


def test_zero_entries_dropped():
    f = SparseFunction({(1,): 0.0, (2,): 1.0})
    assert f.support() == [(2,)]


sparse_entries = st.dictionaries(
    st.lists(st.integers(min_value=1, max_value=2), max_size=4).map(tuple),
    st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
    max_size=8)


@given(sparse_entries, sparse_entries)
def test_inner_conjugate_symmetry(a, b):
    f, g = SparseFunction(dict(a)), SparseFunction(dict(b))
    lhs = complex(inner(f, g))
    rhs = complex(inner(g, f)).conjugate()
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


@given(sparse_entries, sparse_entries,
       st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False))
def test_inner_sesquilinear(a, b, c):
    f, g = SparseFunction(dict(a)), SparseFunction(dict(b))
    lhs = complex(inner(f.scaled(c), g))
    rhs = c * complex(inner(f, g))
    assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


def test_level_indicator_values():
    chi0 = level_indicator(0, 2)
    assert chi0.entries == {(): 1.0}
    for n in range(6):
        mu = level_indicator(n, 2, normalized=True)
        assert abs(inner(mu, mu) - 1.0) < 1e-12
    mu2 = level_indicator(2, 2, normalized=True)
    mu3 = level_indicator(3, 2, normalized=True)
    assert inner(mu2, mu3) == 0.0


def test_json_round_trip():
    f = SparseFunction({(1, 2): 1 + 2j, (): -0.5})
    entries = {parse_address(rec["address"]): complex(rec["re"], rec["im"])
               for rec in json.loads(f.to_json())}
    assert entries == {(1, 2): 1 + 2j, (): complex(-0.5)}


def test_subtree_vertices():
    vs = list(subtree_vertices((2,), 2, 2))
    assert (2,) in vs and (2, 1, 2) in vs
    assert len(vs) == 7


@pytest.mark.parametrize("depth, d", [(-1, 2), (3, 1), (3, 0)])
def test_subtree_vertices_rejects_a_negative_depth_or_degree_below_two(depth, d):
    with pytest.raises(ValueError):
        subtree_vertices((), depth, d)


def _recursive_subtree(x, depth, d):
    """The recursive preorder definition: x, then each child's subtree in
    index order."""
    yield x
    if depth:
        for i in range(1, d + 1):
            yield from _recursive_subtree(x + (i,), depth - 1, d)


@pytest.mark.parametrize("d", [2, 3, 4, 12])
@pytest.mark.parametrize("depth", range(7))
def test_subtree_vertices_is_the_recursive_preorder(d, depth):
    for x in ((), (1,), (d, 1), (2, d, 1)):
        if treecore.subtree_size(depth, d) > treecore.DEFAULT_ENTRY_BUDGET:
            with pytest.raises(PatchTooLarge):
                subtree_vertices(x, depth, d)  # refused when called, not when iterated
            continue
        assert list(subtree_vertices(x, depth, d)) == list(_recursive_subtree(x, depth, d))


def _per_vertex_json(f):
    """The formatter one record at a time: format_address and as_complex
    per vertex."""
    return [{"address": format_address(x), "re": as_complex(v).real,
             "im": as_complex(v).imag} for x, v in sorted(f.entries.items())]


def _json_cases():
    z, exact_z = 0.3 + 1j, exact_complex(Fraction(1, 3), 1)
    for d in (2, 3, 11):
        depth = 5 if d < 11 else 3
        for zz, coeffs in ((z, (1, -1) + (0,) * (d - 2)),
                           (exact_z, (exact_complex(1), exact_complex(-1)) + (0,) * (d - 2))):
            ctx = DeficiencyContext(CoefficientSequence.paper_example(), d, zz)
            yield DeficiencyElement(None, (1,), zz).materialize(ctx, depth)
            yield DeficiencyElement((d,), coeffs, zz).materialize(ctx, depth)
    # a support with its root, vertices without their parents, indices >= 10
    yield SparseFunction({(): -0.0 + 2j, (1,): 1.5, (11, 3): -2j, (11, 3, 12): 7,
                          (12,): exact_complex(Fraction(2, 3), -1), (3, 10, 1): 1e-310j})
    yield SparseFunction.delta((2,) * 1500, value=exact_complex(1, Fraction(1, 7)))
    yield SparseFunction()


@pytest.mark.parametrize("f", list(_json_cases()))
def test_json_records_are_the_per_vertex_records(f):
    assert f.to_json() == json.dumps(_per_vertex_json(f), sort_keys=True, allow_nan=False)


def test_json_writes_a_non_finite_part_null():
    inf, nan = float("inf"), float("nan")
    f = SparseFunction({(): complex(inf, 1.0), (1,): complex(0.5, nan), (2,): -inf,
                        (1, 1): complex(nan, -inf)})
    assert f"{f.to_json()}\n" == dump_json(_per_vertex_json(f))
    assert '"im": null, "re": 0.5}' in f.to_json()


def test_dump_json_splices_each_function_where_it_sits():
    # as lambda's eigenpairs hold theirs: functions in a list and in dicts
    f, g = (SparseFunction({(1,): 0.25 - 1j, (1, 2): 3.0}),
            SparseFunction({(): 1e-300, (3,): -2.5j}))
    obj = {"b": [f, {"values": g, "a": 1.5}, SparseFunction()], "a": {"x": f, "y": math.inf}}
    records = {"b": [_per_vertex_json(f), {"values": _per_vertex_json(g), "a": 1.5}, []],
               "a": {"x": _per_vertex_json(f), "y": math.inf}}
    assert dump_json(obj) == dump_json(records)
    assert json.loads(dump_json(obj))["b"][1]["values"][1] == {
        "address": "3", "re": 0.0, "im": -2.5}
