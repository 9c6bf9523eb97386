"""The ball tree against the pair scans and linear scans it replaces."""

import ast
import pathlib
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

import ultralip
from ultralip import balltree, extension
from ultralip.balltree import INF, BallTree
from ultralip.cli import _pair_witness, _verdict, lipschitz_verdict
from ultralip.extension import (
    ExtendedFunction,
    _tree_conditions,
    extend_cell_risometry_line,
    extend_graph_family_via_reduction,
    glue_conditions_pointwise,
)
from ultralip.field import FieldDescriptor, FieldElement, NormValue, Point
from ultralip.generate import (
    _distinct_points,
    generate_instance,
    sample_points,
    vanishing_values,
)
from ultralip.lipschitz import (
    FiniteFunction,
    NotLipschitzError,
    is_lipschitz,
    require_one_lipschitz,
)

T = FieldDescriptor("t-adic")
PX = FieldDescriptor("puiseux")
P3 = FieldDescriptor("p-adic", prime=3)
NORM_ONE = NormValue.theta(0)

# few coefficients and exponents, so that ties, shared leading terms and
# equal residues are common
coeffs = st.sampled_from([Q(1), Q(-1), Q(2), Q(1, 2)])


@st.composite
def series_elements(draw, field):
    steps = [Q(1)] if field == T else [Q(1, 2), Q(1, 3)]
    step = draw(st.sampled_from(steps))
    n = draw(st.integers(min_value=0, max_value=3))
    x = field.from_terms([(draw(st.integers(-2, 3)) * step, draw(coeffs))
                          for _ in range(n)])
    if draw(st.booleans()):
        # map by the unit 1/(1+t): the denominator is no longer 1
        x = x / field.from_terms([(0, 1), (1, 1)])
    return x


@st.composite
def padic_elements(draw):
    num = draw(st.sampled_from([0, 1, 2, -1, 3, 6, -9, 4, 27]))
    den = draw(st.sampled_from([1, 2, 3, 5, 9]))
    return P3.from_rational(Q(num, den))


def elements(field):
    return padic_elements() if field == P3 else series_elements(field)


fields = st.sampled_from([T, PX, P3])


@st.composite
def finite_functions(draw):
    field = draw(fields)
    n = draw(st.integers(min_value=1, max_value=2))
    pts = draw(st.lists(st.tuples(*[elements(field)] * n).map(Point),
                        min_size=1, max_size=10, unique=True))
    mode = draw(st.sampled_from(["affine", "one-changed", "random"]))
    if mode == "random":
        values = [draw(elements(field)) for _ in pts]
    else:
        # an affine map of slope norm <= 1, which is 1-Lipschitz
        slope = field.from_rational(draw(st.sampled_from([1, -1, 2])))
        values = [slope * p.coords[0] for p in pts]
        if mode == "one-changed":
            i = draw(st.integers(0, len(pts) - 1))
            values[i] = values[i] + draw(elements(field))
    return FiniteFunction(n, tuple(zip(pts, values)))


def _scan_nearest(keys, x):
    dists = [x.norm_of_difference(k) for k in keys]
    best = min(dists)
    return best, {i for i, d in enumerate(dists) if d == best}


def _verdict_by_pairs(samples, values, bound, name):
    """The pair loop lipschitz_verdict ran before the ball tree."""
    for i in range(len(samples)):
        for j in range(i + 1, len(samples)):
            dv = values[i].norm_of_difference(values[j])
            dx = samples[i].norm_of_difference(samples[j])
            if dv > bound * dx:
                return _verdict(name, False,
                                _pair_witness(samples[i], samples[j],
                                              values[i], values[j]))
    return _verdict(name, True)


@settings(max_examples=150, deadline=None)
@given(finite_functions())
def test_require_one_lipschitz_matches_pair_scan(f):
    report = is_lipschitz(f, NORM_ONE)
    if report.ok:
        require_one_lipschitz(f)
    else:
        with pytest.raises(NotLipschitzError) as err:
            require_one_lipschitz(f)
        assert err.value.witness == report.violations[0]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_nearest_matches_linear_scan(data):
    f = data.draw(finite_functions())
    keys = list(f.domain())
    if f.n == 1 and data.draw(st.booleans()):
        keys = [p.coords[0] for p in keys]
    tree = BallTree(keys)
    for _ in range(4):
        coords = [data.draw(elements(f.field)) for _ in range(f.n)]
        x = coords[0] if f.n == 1 and not isinstance(keys[0], Point) \
            else Point(tuple(coords))
        best, members = _scan_nearest(keys, x)
        node, d = tree.locate(x)
        assert set(node.members) == members
        assert d == (INF if best.is_zero else best.exponent)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_lipschitz_verdict_matches_pair_loop(data):
    f = data.draw(finite_functions())
    table = dict(f.entries)
    # repeated samples, as a caller may pass them
    samples = data.draw(st.lists(st.sampled_from(list(table)), max_size=9))
    values = [table[x] for x in samples]
    bound = data.draw(st.sampled_from(
        [NORM_ONE, NormValue.theta(-1), NormValue.theta(1)]))
    F = ExtendedFunction(f.n, f.field, "table", table.__getitem__)
    want = _verdict_by_pairs(samples, values, bound, "v")
    assert lipschitz_verdict(F, samples, bound, "v") == want
    assert lipschitz_verdict(F, samples, bound, "v", values) == want


def test_guard_and_verdict_share_one_decision(monkeypatch):
    # a tree that fails while the pair scan finds no violating pair: the
    # build guard and the CLI verdict must both pass, not part ways
    monkeypatch.setattr(BallTree, "lipschitz_ok", lambda *args: False)
    pts = [Point((T.monomial(e),)) for e in (0, 1, 2)]
    f = FiniteFunction(1, tuple((p, p.coords[0]) for p in pts))
    require_one_lipschitz(f)
    F = ExtendedFunction(1, T, "identity", lambda x: x.coords[0])
    assert lipschitz_verdict(F, pts)["pass"]


def test_tree_shape():
    keys = [T.zero(), T.monomial(2), T.monomial(1), T.monomial(1, 2)]
    tree = BallTree(keys)
    root = tree.root
    assert root.center == 0 and root.radius == 1
    assert [c.members for c in root.children.values()] == [(0, 1), (2,), (3,)]
    inner = root.children[(None,)]
    assert inner.radius == 2 and len(inner.children) == 2
    assert BallTree([]).root is None
    repeated = BallTree([T.one(), T.one()])
    assert repeated.root.radius == INF and repeated.root.members == (0, 1)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_node_members_are_increasing_input_indices(data):
    """The glue conditions read a node's first and last member: members
    are input indices in increasing order, and a child's members are a
    run of its parent's."""
    f = data.draw(finite_functions())
    keys = list(f.domain())
    keys += data.draw(st.lists(st.sampled_from(keys), max_size=3))  # repeats
    tree = BallTree(keys)
    assert tree.root.members == tuple(range(len(keys)))
    for node in tree.nodes:
        assert list(node.members) == sorted(set(node.members))
        assert node.center == node.members[0]
        if node.children:
            below = sorted(m for c in node.children.values()
                           for m in c.members)
            assert below == list(node.members)


def _equidistant(a: Point, b: Point) -> Point:
    """2b - a, at distance |a - b| from both a and b (p != 2)."""
    return Point(tuple(bc + (bc - ac) for ac, bc in zip(a.coords, b.coords)))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("field", [T, PX, P3],
                         ids=["t-adic", "puiseux", "p-adic 3"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_tree_glue_conditions_match_the_quantifier_route(data, field, n):
    points = st.tuples(*[elements(field)] * n).map(Point)
    a = data.draw(st.lists(points, max_size=5, unique=True), label="A")
    b = data.draw(st.lists(points, max_size=4, unique=True), label="B")
    if a and data.draw(st.booleans(), label="share a point"):
        shared = data.draw(st.sampled_from(a))
        b = b + [shared] if shared not in b else b
    probes = a + b + [_equidistant(p, q) for p in a[:2] for q in b[:2]
                      if p != q]
    probes += data.draw(st.lists(points, max_size=4), label="probes")
    probes.append(Point(tuple(field.zero() for _ in range(n))))
    conditions = _tree_conditions(a, b)
    for x in probes:
        assert conditions(x) == glue_conditions_pointwise(x, a, b), x


@pytest.mark.parametrize("field", [T, PX, P3],
                         ids=["t-adic", "puiseux", "p-adic 3"])
def test_tree_glue_conditions_at_named_points(field):
    zero, one, two = field.zero(), field.one(), field.from_int(2)
    a, b = [Point((zero,)), Point((one,))], [Point((two,))]
    conditions = _tree_conditions(a, b)
    assert conditions(Point((zero,))) == (True, False)   # at an A point
    assert conditions(Point((two,))) == (False, True)    # at a B point
    # a point of A and B: both nearest, so neither condition holds
    shared = _tree_conditions(a, b + [a[1]])
    assert shared(Point((one,))) == (False, False)
    # equidistant from 0 and 2 (and from 1 on p-adic, nearer on the series)
    tie = _equidistant(a[0], b[0])
    assert conditions(tie) == glue_conditions_pointwise(tie, a, b)
    assert _tree_conditions([a[0]], b)(tie) == (False, False)
    assert _tree_conditions(a, [])(tie) == (True, False)
    assert _tree_conditions([], b)(tie) == (False, True)
    assert _tree_conditions([], [])(tie) == (True, True)
    for x in (Point((zero,)), Point((two,)), tie):
        for aa, bb in ((a, []), ([], b), ([], []), (a, b + [a[1]])):
            assert _tree_conditions(aa, bb)(x) \
                == glue_conditions_pointwise(x, aa, bb)


def test_generator_walk_costs_linear_differences(monkeypatch):
    """Values are assigned down the ball tree: O(n * depth) differences,
    not a diameter scan over every pair of every cluster."""
    pts = _distinct_points(random.Random(5), T, 1, 256, (-6, 6))
    calls = [0]
    for name in ("norm_of_difference", "lead_of_difference"):
        method = getattr(FieldElement, name)

        def counted(self, other, method=method):
            calls[0] += 1
            return method(self, other)

        monkeypatch.setattr(FieldElement, name, counted)
    entries, tree = vanishing_values(random.Random(0), pts, [], (-6, 6))
    assert len(entries) == 256
    assert calls[0] <= 8 * 256
    # the returned tree is the ball tree of the entries, in their order
    assert [p for p, _ in entries] == sorted(pts, key=lambda p: p.sort_key())
    assert all(tree.locate(p)[0].members == (i,)
               for i, (p, _) in enumerate(entries))


def test_generator_check_costs_linear_differences(monkeypatch):
    """The generator's soundness check runs on the ball tree: O(n * depth)
    value differences on every backend, where the pair scan took one per
    pair."""
    calls = [0]
    method = FieldElement.norm_of_difference

    def counted(self, other):
        calls[0] += 1
        return method(self, other)

    monkeypatch.setattr(FieldElement, "norm_of_difference", counted)
    for field, size in ((T, 256), (P3, 100)):
        calls[0] = 0
        inst = generate_instance(1, "finite-line", field, size=size)
        assert len(inst.function.entries) == size
        assert calls[0] <= 8 * size, field


def _container_sizes(module):
    return {name: len(value) for name, value in vars(module).items()
            if not name.startswith("__")
            and isinstance(value, (dict, list, set))}


def test_evaluation_leaves_module_containers_unchanged():
    inst = generate_instance(2, "cells-line", T)
    cell_ext = extend_cell_risometry_line(list(inst.cells), list(inst.pieces))
    graphs = generate_instance(2, "graphs", T)
    graph_ext = extend_graph_family_via_reduction(graphs.family)
    before = [_container_sizes(m) for m in (extension, balltree)]
    for F, n, anchors in (
            (cell_ext, 1, [Point((c.center,)) for c in inst.cells]),
            (graph_ext, 2, [Point((c.center, c.center))
                            for c in graphs.family.base_cells])):
        samples = sample_points(random.Random(0), T, n, anchors, (-6, 6), 100)
        for i in range(500):
            F(samples[i % len(samples)])
    assert [_container_sizes(m) for m in (extension, balltree)] == before


def test_library_has_no_assert_statements():
    """Guards must keep working under python -O, which strips asserts."""
    root = pathlib.Path(ultralip.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(root.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
