"""Cells, boxes, distance cuts, recentering and balls."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from ultralip.field import (
    CutValue,
    FieldDescriptor,
    NormValue,
    RVValue,
)
from ultralip.geometry import (
    AnnulusBox,
    Ball,
    Cell1D,
    ExactBox,
    GeometryError,
    RecenterError,
    _box_allows_norm_below,
    _common_rv_exists,
    box_is_empty,
    boxes_disjoint,
    cell_member,
    cells_intersect,
    dist_to_cell,
    realizable_exponent_between,
    recenter_cell,
    rho,
)

T = FieldDescriptor("t-adic")
PX = FieldDescriptor("puiseux")
theta = NormValue.theta
ZERO = NormValue.zero()


def t(e, c=1):
    return T.monomial(e, c)


def cut(e, attained=True):
    n = ZERO if e is None else theta(e)
    return CutValue(n, attained)


def sphere_box(e):
    return AnnulusBox(cut(e), cut(e))


# -- membership ----------------------------------------------------------------


def test_contains_sphere():
    cell = Cell1D(T.zero(), (sphere_box(0),))
    assert cell.contains(T.one() + t(1))
    assert not cell.contains(t(1))


def test_box_validation():
    with pytest.raises(GeometryError):
        AnnulusBox(cut(0), cut(2))  # bounds out of order
    with pytest.raises(GeometryError):
        AnnulusBox(cut(None), cut(None))  # upper endpoint at zero norm
    with pytest.raises(GeometryError):
        Cell1D(T.zero(), (sphere_box(0), sphere_box(0)))  # overlapping boxes
    with pytest.raises(GeometryError):
        # empty over the discrete backend: no integer exponent strictly
        # between 1 and 2
        Cell1D(T.zero(), (AnnulusBox(cut(2, False), cut(1, False)),))
    # the same annulus is nonempty over the dense backend
    Cell1D(PX.zero(), (AnnulusBox(cut(2, False), cut(1, False)),))


# -- rho -----------------------------------------------------------------------


def test_rho_endpoint_read_off():
    c1 = Cell1D(T.zero(), (AnnulusBox(cut(2), cut(1)),))
    assert rho(c1) == cut(2)
    c2 = Cell1D(T.zero(), (AnnulusBox(cut(2, False), cut(1)),))
    assert rho(c2) == cut(2, False)
    c3 = Cell1D(T.zero(), (AnnulusBox(cut(None, False), cut(1, False)),))
    assert rho(c3) == cut(None, False)  # punctured ball, infimum zero


def test_rho_multi_box_minimum():
    c = Cell1D(T.zero(), (sphere_box(3), ExactBox(t(1).rv())))
    assert rho(c) == cut(3)


def test_contains_consistent_with_rho():
    cell = Cell1D(t(1), (sphere_box(2), ExactBox(t(4).rv())))
    r = rho(cell)
    for i in range(len(cell.boxes)):
        m = cell_member(cell, i)
        assert cell.contains(m)
        d = m.norm_of_difference(cell.center)
        assert not d < r.norm


# -- distance cuts ---------------------------------------------------------------


def test_dist_from_center_equals_rho():
    cell = Cell1D(t(1), (sphere_box(1),))
    # distances from the center read off the same cut as rho
    assert dist_to_cell(cell.center, cell) == rho(cell)


def test_dist_inside_is_zero():
    cell = Cell1D(T.zero(), (sphere_box(0),))
    assert dist_to_cell(T.one(), cell) == cut(None, True)


def test_dist_above_and_unit_mismatch():
    cell = Cell1D(T.zero(), (ExactBox(t(1).rv()),))
    assert dist_to_cell(T.one(), cell) == cut(0)  # above the fiber norm
    assert dist_to_cell(t(1, 2), cell) == cut(1)  # same norm, other unit
    assert dist_to_cell(t(1) + t(2), cell) == cut(None, True)  # inside


# -- translation / recentering ------------------------------------------------------


def test_recenter_preserves_members():
    cell = Cell1D(t(3), sphere_boxes := (sphere_box(2),))
    # {|x - t^3| = theta(2)} = {|x| = theta(2)}
    moved = recenter_cell(cell, T.zero())
    assert moved.boxes == sphere_boxes
    for probe in (t(2), t(2) + t(5), t(2, 7), t(3)):
        assert cell.contains(probe) == moved.contains(probe)
    assert not moved.contains(t(1))


def test_recenter_fiber_unit_twist():
    # moving distance exactly the fiber norm twists the unit
    cell = Cell1D(T.zero(), (ExactBox(t(1).rv()),))
    moved = recenter_cell(cell, t(1, -1))
    assert moved.boxes == (ExactBox(t(1, 2).rv()),)
    for probe in (t(1), t(1) + t(2), t(2)):
        assert cell.contains(probe) == moved.contains(probe)


def test_recenter_swallows_origin():
    # re-centering at a member turns the fiber into a punctured-ball-plus-point
    cell = Cell1D(T.zero(), (ExactBox(t(1).rv()),))
    moved = recenter_cell(cell, t(1))
    for probe in (t(1), t(1) + t(2), t(2), T.one(), t(1, 2)):
        assert cell.contains(probe) == moved.contains(probe)


def test_recenter_error_when_too_far():
    cell = Cell1D(T.zero(), (ExactBox(t(2).rv()),))
    with pytest.raises(RecenterError):
        recenter_cell(cell, T.one())


# -- intersection ---------------------------------------------------------------


def _members(cell, extra=()):
    out = []
    for i in range(len(cell.boxes)):
        m = cell_member(cell, i)
        out.append(m)
        for p in extra:
            out.append(m + p if cell.contains(m + p) else m)
    return [m for m in out if cell.contains(m)]


def test_cells_intersect_positive_and_negative():
    a = Cell1D(T.zero(), (sphere_box(0),))
    b = Cell1D(t(1), (sphere_box(0),))
    assert cells_intersect(a, b)  # the two spheres coincide as sets

    far = Cell1D(T.from_int(1), (ExactBox(t(1).rv()),))  # ball around 1 + t
    near = Cell1D(T.zero(), (ExactBox(t(2).rv()),))
    assert not cells_intersect(far, near)

    nested = Cell1D(T.zero(), (AnnulusBox(cut(5), cut(0)),))
    inner = Cell1D(T.zero(), (sphere_box(3),))
    assert cells_intersect(nested, inner)


@settings(max_examples=60, deadline=None)
@given(st.integers(-2, 2), st.integers(0, 3), st.integers(-2, 2),
       st.integers(0, 3), st.sampled_from([1, 2, 3, -1]))
def test_cells_intersect_agrees_with_sampling(e1, r1, c2e, r2, u):
    a = Cell1D(t(e1), (sphere_box(e1 + r1),))
    b = Cell1D(t(c2e, u) + T.one(), (sphere_box(c2e + r2),))
    claim = cells_intersect(a, b)
    probes = _members(a, extra=[t(8), t(9)]) + _members(b, extra=[t(8), t(9)])
    seen = any(a.contains(p) and b.contains(p) for p in probes)
    if seen:
        assert claim
    if not claim:
        assert not seen


def test_boxes_disjoint_units():
    b1 = AnnulusBox(cut(1), cut(1), unit=Q(2))
    b2 = AnnulusBox(cut(1), cut(1), unit=Q(3))
    b3 = AnnulusBox(cut(1), cut(1))
    assert boxes_disjoint(b1, b2, T)
    assert not boxes_disjoint(b1, b3, T)


# -- realizable exponents ---------------------------------------------------------


def test_realizable_exponents_discrete_vs_dense():
    assert realizable_exponent_between(cut(2, False), cut(1), T) == 1
    assert realizable_exponent_between(cut(2, False), cut(2, False), T) is None
    e = realizable_exponent_between(cut(2, False), cut(1, False), PX)
    assert e is not None and Q(1) < e < Q(2)


# -- balls ------------------------------------------------------------------------


def test_ball_membership():
    b = Ball(T.zero(), theta(1), "open")
    assert b.contains(t(2)) and b.contains(T.zero()) and not b.contains(t(1))
    c = Ball(T.zero(), theta(1), "closed")
    assert c.contains(t(1)) and not c.contains(T.one())
    with pytest.raises(GeometryError):
        Ball(T.zero(), ZERO, "open")


# -- one norm-range meet: an rv-grid oracle ----------------------------------------

P3 = FieldDescriptor("p-adic", prime=3)


def _in_box(box, e, unit, field) -> bool:
    """Membership of rv(e, unit), or of rv(0) when e is None, read off the
    box's definition with no library helper."""
    if isinstance(box, ExactBox):
        if e is None or box.rv.is_zero:
            return e is None and box.rv.is_zero
        return box.rv == RVValue(e, unit, field.prime)
    if e is None:
        return box.lower.norm.is_zero and box.lower.attained \
            and box.unit is None
    return _norm_ok(e, box.lower, box.upper) and (
        box.unit is None
        or RVValue(e, box.unit, field.prime) == RVValue(e, unit, field.prime))


def _norm_ok(e, lower, upper) -> bool:
    """theta(e) inside the inclusion bounds lower and upper; exponents order
    norms backwards."""
    if not lower.norm.is_zero:
        ql = lower.norm.exponent
        if not (e <= ql if lower.attained else e < ql):
            return False
    qu = upper.norm.exponent
    return e >= qu if upper.attained else e > qu


def _grid(field, boxes, extra_exponents=()):
    """rv(0) and every rv value that can decide a question about the boxes:
    exponents from two below the lowest bound to two above the highest
    (steps of 1, or 1/4 on the dense group), with every constrained unit
    and one fresh unit, or every residue on p-adic."""
    exps = list(extra_exponents)
    units = set()
    for b in boxes:
        if isinstance(b, ExactBox):
            if not b.rv.is_zero:
                exps.append(b.rv.exponent)
                units.add(b.rv.unit)
            continue
        exps += [c.norm.exponent for c in (b.lower, b.upper)
                 if not c.norm.is_zero]
        if b.unit is not None:
            units.add(b.unit)
    step = Q(1, 4) if field.dense_value_group else Q(1)
    e, top = min(exps) - 2, max(exps) + 2
    if field.mixed_characteristic:
        units = {Q(r) for r in range(1, field.prime)}
    else:
        units.add(Q(101))  # fresh: no box constrains it
    grid = [(None, None)]
    while e <= top:
        grid += [(e, u) for u in sorted(units)]
        e += step
    return grid


def _exponents(field):
    if field.dense_value_group:
        return st.integers(-4, 4).map(lambda k: Q(k, 2))
    return st.integers(-2, 2).map(Q)


@st.composite
def _boxes(draw, field):
    units = st.sampled_from([Q(1), Q(2), Q(-1), Q(4)])
    if draw(st.integers(0, 3)) == 0:
        if draw(st.booleans()):
            return ExactBox(RVValue.zero())
        return ExactBox(RVValue(draw(_exponents(field)), draw(units),
                                field.prime))
    a, b = draw(_exponents(field)), draw(_exponents(field))
    lower_norm = ZERO if draw(st.integers(0, 4)) == 0 else theta(max(a, b))
    lower = CutValue(lower_norm, draw(st.booleans()))
    upper = CutValue(theta(min(a, b)), draw(st.booleans()))
    try:
        return AnnulusBox(lower, upper, draw(st.one_of(st.none(), units)))
    except GeometryError:  # bounds out of order in the cut order
        return AnnulusBox(lower, CutValue(upper.norm, False))


@settings(max_examples=400, deadline=None)
@given(st.data(), st.sampled_from([T, PX, P3]))
def test_box_decisions_agree_with_an_rv_grid(data, field):
    b1, b2 = data.draw(_boxes(field)), data.draw(_boxes(field))
    n = data.draw(_exponents(field))
    bound = CutValue(theta(n), data.draw(st.booleans()))
    grid = _grid(field, (b1, b2), (n,))
    in1 = {v for v in grid if _in_box(b1, *v, field)}
    in2 = {v for v in grid if _in_box(b2, *v, field)}
    both = in1 & in2
    nonzero_both = {v for v in both if v[0] is not None}

    assert box_is_empty(b1, field) == (not in1)
    assert boxes_disjoint(b1, b2, field) == (not both)
    assert _common_rv_exists(b1, b2, field) == bool(nonzero_both)
    assert _common_rv_exists(b1, b2, field, strictly_above=theta(n)) \
        == any(e < n for e, _ in nonzero_both)
    assert _box_allows_norm_below(b1, bound, field) == any(
        e is None or (e >= n if bound.attained else e > n) for e, _ in in1)


def test_sphere_and_half_open_annulus_share_no_norm():
    # |x| = theta(1) and theta(3) <= |x| < theta(1): the endpoint theta(1)
    # is excluded from the annulus, so the boxes are disjoint
    cell = Cell1D(T.zero(), (sphere_box(1), AnnulusBox(cut(3), cut(1, False))))
    assert cell.contains(t(1)) and cell.contains(t(2)) and cell.contains(t(3))
    assert not cell.contains(t(0)) and not cell.contains(t(4))


def test_sphere_misses_the_open_ball_of_its_radius():
    # {rv(x - t) = rv(-t)} is the open ball |x| < theta(1) around 0
    sphere = Cell1D(T.zero(), (sphere_box(1),))
    ball = Cell1D(t(1), (ExactBox((-t(1)).rv()),))
    assert ball.contains(t(2)) and ball.contains(T.zero())
    assert not ball.contains(t(1)) and sphere.contains(t(1))
    assert not cells_intersect(sphere, ball)
    assert not cells_intersect(ball, sphere)


def test_padic_exponents_are_integers():
    # no integer lies strictly between 1 and 2
    annulus = AnnulusBox(cut(2, False), cut(1, False))
    assert box_is_empty(annulus, P3)
    assert realizable_exponent_between(cut(2, False), cut(1, False), P3) is None
    with pytest.raises(GeometryError, match="is empty over p-adic"):
        Cell1D(P3.zero(), (annulus,))
