"""Lipschitz constants, risometries, and the reduce/restore transforms."""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from ultralip.balltree import BallTree
from ultralip.field import FieldDescriptor, NormValue, Point
from ultralip.generate import vanishing_values
from ultralip.lipschitz import (
    FiniteFunction,
    NotLipschitzError,
    finite_function_1d,
    first_violation,
    is_lipschitz,
    reduce_to_risometry,
    restore_value,
    risometry_check,
)

T = FieldDescriptor("t-adic")
PX = FieldDescriptor("puiseux")
theta = NormValue.theta


def t(e, c=1):
    return T.monomial(e, c)


def ff(pairs):
    return finite_function_1d(T, pairs)


def test_lipschitz_constant_examples():
    assert is_lipschitz(ff([(T.zero(), T.zero()), (t(1), t(1))]),
                        theta(0)).constant == theta(0)
    rep = is_lipschitz(ff([(T.zero(), T.zero()), (t(2), t(1))]), theta(0))
    assert rep.constant == theta(-1)
    assert rep.witness is not None
    p, q = rep.witness
    d = {p, q}
    assert d == {Point((T.zero(),)), Point((t(2),))}
    const = is_lipschitz(ff([(T.zero(), t(1)), (T.one(), t(1))]), theta(0))
    assert const.constant.is_zero and const.witness is None


def test_witness_realizes_constant():
    f = ff([(T.zero(), T.zero()), (t(1), t(2)), (T.one(), t(1, 5))])
    rep = is_lipschitz(f, theta(0))
    p, q = rep.witness
    value = dict(f.entries)
    ratio = value[p].norm_of_difference(value[q]) / p.norm_of_difference(q)
    assert ratio == rep.constant


def _tree_ok(f, eps):
    """The ball tree's answer, checked against first_violation's."""
    ok = BallTree(f.domain()).lipschitz_ok([v for _, v in f.entries],
                                           eps.exponent)
    assert ok is (first_violation(f.entries, eps) is None)
    return ok


def test_is_lipschitz_examples():
    assert is_lipschitz(ff([(T.zero(), T.zero()), (t(1), t(1))]), theta(0)).ok
    rep = is_lipschitz(ff([(T.zero(), T.zero()), (t(2), t(1))]), theta(0))
    assert not rep.ok
    assert len(rep.violations) == 1
    assert is_lipschitz(ff([(t(1), t(4))]), theta(0)).ok  # singleton


def test_terms_decider_examples():
    """Keys that share leading terms, decided by the pair scan and the tree."""
    # keys 1 + t and 1 + 2t share the term 1: they are theta(1) apart
    pair = ff([(T.one() + t(1), T.zero()), (T.one() + t(1, 2), t(1))])
    cases = [
        (ff([(T.zero(), T.zero()), (t(1), t(1))]), 0, True),
        (ff([(T.zero(), T.zero()), (t(2), t(1))]), 0, False),
        (pair, 0, True),
        (pair, 1, False),
        (ff([(t(1), t(4))]), 0, True),  # singleton
    ]
    for f, k, want in cases:
        assert is_lipschitz(f, theta(k)).ok is want
        assert _tree_ok(f, theta(k)) is want
    with pytest.raises(ValueError):
        is_lipschitz(pair, NormValue.zero())


def test_duplicate_points_rejected():
    with pytest.raises(ValueError):
        ff([(t(1), T.zero()), (t(1), T.one())])


def test_risometry_check_finite():
    f = ff([(T.zero(), T.zero()), (t(1), t(1) + t(2))])
    ok, _ = risometry_check(f, axes=[1])
    assert ok
    g = ff([(T.zero(), T.zero()), (t(1), t(1, 2))])
    ok, witness = risometry_check(g, axes=[1])
    assert not ok and witness is not None


def test_reduce_examples():
    f = ff([(T.zero(), T.zero()), (T.one(), T.one()), (t(1), t(1))])
    g = reduce_to_risometry(f, theta(-1), t(-1), axes=[1])
    # f(x) = x with eps_elt = t^-1 becomes g(x) = (1 + t) x
    factor = T.one() + t(1)
    for p, v in g.entries:
        assert v == factor * p.coords[0]
    ok, _ = risometry_check(g, axes=[1])
    assert ok
    assert is_lipschitz(g, theta(0)).ok

    const = ff([(T.zero(), T.zero()), (t(1), T.zero())])
    g2 = reduce_to_risometry(const, theta(-1), t(-1), axes=[1])
    for p, v in g2.entries:
        assert v == p.coords[0]


def test_reduce_rejects_bad_inputs():
    f = ff([(T.zero(), T.zero()), (t(2), t(1))])  # not 1-Lipschitz
    with pytest.raises(NotLipschitzError):
        reduce_to_risometry(f, theta(-1), t(-1), axes=[1])
    good = ff([(T.zero(), T.zero()), (t(1), t(1))])
    with pytest.raises(ValueError):
        reduce_to_risometry(good, theta(0), T.one(), axes=[1])  # eps <= 1
    with pytest.raises(ValueError):
        reduce_to_risometry(good, theta(-2), t(-1), axes=[1])  # norm mismatch


def _restore(g, eps_elt, axes):
    """The reduction undone point by point through restore_value."""
    return tuple((p, restore_value(v, p, eps_elt, axes)) for p, v in g.entries)


def test_restore_roundtrip_and_scaling():
    f = ff([(T.zero(), T.zero()), (t(1), t(1)), (T.one(), T.one() + t(3))])
    g = reduce_to_risometry(f, theta(-1), t(-1), axes=[1])
    assert _restore(g, t(-1), axes=[1]) == f.entries

    ident = ff([(T.zero(), T.zero()), (t(1), t(1))])
    zeroed = _restore(ident, t(-1), axes=[1])
    assert all(v.is_zero for _, v in zeroed)

    onelip = reduce_to_risometry(f, theta(-1), t(-1), axes=[1])
    restored = FiniteFunction(1, _restore(onelip, t(-1), axes=[1]))
    assert is_lipschitz(restored, theta(-1)).constant <= theta(-1)


def test_affine_risometry_preserves_image_radii():
    # risometric pieces keep norm-diameters of sampled pairs exactly
    a, b = T.one() + t(2), t(3)
    pts = [T.one(), T.one() + t(1), T.one() + t(4), t(1)]
    for x in pts:
        for y in pts:
            img = (a * x + b).norm_of_difference(a * y + b)
            assert img == x.norm_of_difference(y)


def test_reduce_output_properties_randomized():
    import random

    from ultralip.generate import generate_instance

    for seed in range(12):
        inst = generate_instance(seed, "finite-line", T, size=4)
        g = reduce_to_risometry(inst.function, theta(-1), t(-1), axes=[1])
        ok, _ = risometry_check(g, axes=[1])
        assert ok
        assert is_lipschitz(g, theta(0)).ok
        assert _restore(g, t(-1), axes=[1]) == inst.function.entries


# -- the ball tree against the pair scan on Laurent data --------------------


@st.composite
def laurent_functions(draw):
    """t-adic or puiseux data of dimension 1 to 3 whose coordinates and
    values are Laurent polynomials.  Few exponents and coefficients make
    shared term prefixes common.  Values are random, 1-Lipschitz by the
    generator's tree walk, or that with one value moved."""
    field = draw(st.sampled_from([T, PX]))
    step = Q(1) if field == T else Q(1, 2)
    element = st.lists(
        st.tuples(st.integers(-2, 2).map(lambda k: k * step),
                  st.sampled_from([-2, -1, 1, 2])),
        max_size=3).map(field.from_terms)
    n = draw(st.integers(1, 3))
    keys = draw(st.lists(st.tuples(*[element] * n).map(Point),
                         min_size=1, max_size=8, unique=True))
    mode = draw(st.sampled_from(["random", "lipschitz", "one-moved"]))
    if mode == "random":
        values = [draw(element) for _ in keys]
    else:
        walked = dict(vanishing_values(
            random.Random(draw(st.integers(0, 999))), keys, [], (-2, 2))[0])
        values = [walked[k] for k in keys]
        if mode == "one-moved":
            i = draw(st.integers(0, len(keys) - 1))
            values[i] = values[i] + draw(element)
    return FiniteFunction(n, tuple(zip(keys, values)))


@settings(max_examples=400, deadline=None)
@given(laurent_functions(), st.sampled_from([-1, 0, 1]))
def test_ball_tree_matches_pair_scan_on_laurent_data(f, k):
    assert _tree_ok(f, theta(k)) is is_lipschitz(f, theta(k)).ok
