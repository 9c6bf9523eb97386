"""Field arithmetic, norms, leading terms, and averages."""

import functools
import math
import operator
import time
import tracemalloc
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from ultralip import field
from ultralip.field import (
    BackendMismatchError,
    CutValue,
    FieldDescriptor,
    NormValue,
    PDivisibleCountWarning,
    Point,
    RVValue,
    _is_prime,
    integer_average,
    sum_over_count,
)
from ultralip.serialize import parse_element

T = FieldDescriptor("t-adic")
PX = FieldDescriptor("puiseux")
P3 = FieldDescriptor("p-adic", prime=3)

theta = NormValue.theta
ZERO = NormValue.zero()


def t(e, c=1):
    return T.monomial(e, c)


# -- descriptors -------------------------------------------------------------


def test_descriptor_validation():
    with pytest.raises(ValueError):
        FieldDescriptor("q-adic")
    with pytest.raises(ValueError):
        FieldDescriptor("p-adic", prime=4)
    with pytest.raises(ValueError):
        FieldDescriptor("p-adic")
    with pytest.raises(ValueError):
        FieldDescriptor("t-adic", prime=3)
    assert P3.mixed_characteristic and not T.mixed_characteristic
    assert PX.dense_value_group and not T.dense_value_group


def _trial_division(n):
    return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))


def test_primality_matches_trial_division():
    assert [n for n in range(-3, 20000) if _is_prime(n)] \
        == [n for n in range(-3, 20000) if _trial_division(n)]


def test_large_primes_are_decided_quickly():
    # strong pseudoprimes to every prime base up to 37 and up to 23
    for n in (318665857834031151167461, 3825123056546413051):
        with pytest.raises(ValueError):
            FieldDescriptor("p-adic", prime=n)
    start = time.process_time()
    field = FieldDescriptor("p-adic", prime=100000000000000000039)
    assert time.process_time() - start < 0.1
    assert field.prime == 100000000000000000039
    with pytest.raises(ValueError):  # beyond the range the bases decide
        FieldDescriptor("p-adic", prime=3317044064679887385961981)


def test_t_adic_exponents_must_be_integers():
    with pytest.raises(ValueError):
        T.monomial(Q(1, 2))
    PX.monomial(Q(1, 2))  # fine on the dense backend


# -- arithmetic --------------------------------------------------------------


def test_product_one_plus_t_times_t():
    assert (T.one() + t(1)) * t(1) == t(1) + t(2)


def test_inverse_of_one_plus_t_is_a_fraction():
    e = T.one() / (T.one() + t(1))
    assert e.num == ((Q(0), Q(1)),)
    assert e.den == ((Q(0), Q(1)), (Q(1), Q(1)))


def test_padic_subtraction():
    assert P3.from_int(18) - P3.from_int(9) == P3.from_int(9)


def test_fraction_reduction_is_canonical():
    # (1 - t^2)/(1 + t) reduces to 1 - t
    a = T.from_terms([(0, 1), (2, -1)], [(0, 1), (1, 1)])
    assert a == T.one() - t(1)
    # denominators are normalized to constant coefficient one
    b = T.one() / T.from_terms([(0, 2), (1, 1)])
    assert b.den[0] == (Q(0), Q(1))


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        T.one() / T.zero()


def test_backend_mixing_rejected():
    with pytest.raises(BackendMismatchError):
        T.one() + PX.one()


# -- norms -------------------------------------------------------------------


def test_norm_examples():
    assert P3.from_int(18).norm() == theta(2)  # 18 = 2 * 3^2
    assert (t(2) + t(1, 2)).norm() == theta(1)
    assert T.zero().norm() == ZERO


def test_norm_order_is_reversed():
    assert theta(2) < theta(1) < theta(0) < theta(-1)
    assert ZERO < theta(100)
    assert theta(1) * theta(2) == theta(3)
    assert theta(1) / theta(3) == theta(-2)


def test_norm_compares_with_cut_as_attained_cut():
    # the cut (r, not attained) lies strictly between r and every norm
    # above r, so a norm v sits where the cut (v, attained) does
    norms = [ZERO, theta(3), theta(Q(1, 2)), theta(0), theta(-2)]
    for v in norms:
        for r in norms:
            for attained in (True, False):
                cut = CutValue(r, attained)
                below = v < r or (v == r and not attained)
                assert (CutValue(v, True) < cut) is below
                assert (CutValue(v, True) > cut) is (v > r)
                assert (CutValue(v, True) <= cut) is (not v > r)
                assert (CutValue(v, True) >= cut) is (not below)

def test_value_group_structure():
    # t-adic norms form Theta(Z); the least element above 1 is Theta(-1)
    assert theta(-1) > theta(0)
    # puiseux norms are dense
    lo, hi = theta(3), theta(1)
    mid = theta(Q(3 + 1, 2))
    assert lo < mid < hi


# -- rv ----------------------------------------------------------------------


def test_rv_examples():
    r = (t(1, 2) + t(2)).rv()
    assert r == RVValue(Q(1), Q(2))
    # rv(2t) = rv(2t + t^2) since |t^2| < |2t|
    assert t(1, 2).rv() == (t(1, 2) + t(2)).rv()
    x, y = t(1, 2), t(1, 2) + t(2)
    assert x.norm_of_difference(y) < x.norm()
    # p=3: rv(6) = rv(15), since |6 - 15| = Theta(2) < |6| = Theta(1)
    assert P3.from_int(6).rv() == P3.from_int(15).rv()
    assert P3.from_int(6).norm_of_difference(P3.from_int(15)) == theta(2)


def test_rv_of_fraction_uses_leading_coefficients():
    e = t(1, 3) / T.from_terms([(0, 2), (1, 5)])
    assert e.rv() == RVValue(Q(1), Q(3, 2))


def test_rv_zero():
    assert T.zero().rv().is_zero


# -- points ------------------------------------------------------------------


def test_max_norm_examples():
    assert Point((t(1), T.one())).norm() == theta(0)
    assert Point((T.zero(), T.zero())).norm() == ZERO
    assert Point((t(2), t(3))).norm() == theta(2)


def test_point_validation():
    with pytest.raises(ValueError):
        Point(())
    with pytest.raises(BackendMismatchError):
        Point((T.one(), PX.one()))


# -- averages ----------------------------------------------------------------


def test_average_examples():
    assert integer_average([t(1), t(1)]) == t(1)
    avg = integer_average([T.zero(), T.from_int(3)])
    assert avg == T.from_rational(Q(3, 2))
    assert avg.norm() == theta(0)  # 2 is a unit in residue characteristic zero


def test_average_warns_on_p_divisible_count():
    with pytest.warns(PDivisibleCountWarning):
        integer_average([P3.from_int(k) for k in (0, 1, 2)])


def test_average_empty():
    with pytest.raises(ValueError):
        integer_average([])


# -- property tests ----------------------------------------------------------


coeffs = st.fractions(max_denominator=6).filter(lambda q: q != 0)
exponents = st.integers(min_value=-5, max_value=5)


@st.composite
def t_elements(draw, allow_zero=True):
    n = draw(st.integers(min_value=0 if allow_zero else 1, max_value=3))
    terms = [(draw(exponents), draw(coeffs)) for _ in range(n)]
    num = T.from_terms(terms)
    if draw(st.booleans()):
        dterms = [(draw(st.integers(min_value=0, max_value=3)), draw(coeffs))
                  for _ in range(draw(st.integers(min_value=1, max_value=2)))]
        den = T.from_terms(dterms)
        if not den.is_zero:
            return num / den
    return num


@settings(max_examples=60, deadline=None)
@given(t_elements(), t_elements())
def test_ultrametric_inequality(a, b):
    s = (a + b).norm()
    assert s <= max(a.norm(), b.norm())
    if a.norm() != b.norm():
        assert s == max(a.norm(), b.norm())


@settings(max_examples=60, deadline=None)
@given(t_elements(), t_elements())
def test_norm_and_rv_multiplicative(a, b):
    assert (a * b).norm() == a.norm() * b.norm()
    assert (a * b).rv() == a.rv() * b.rv()


@settings(max_examples=60, deadline=None)
@given(t_elements(allow_zero=False), t_elements(allow_zero=False))
def test_rv_characterization(a, b):
    same = a.rv() == b.rv()
    assert same == (a.norm_of_difference(b) < a.norm())


@settings(max_examples=40, deadline=None)
@given(st.lists(t_elements(), min_size=1, max_size=5))
def test_average_norm_bound_char_zero(vals):
    bound = max(v.norm() for v in vals)
    assert integer_average(vals).norm() <= bound


@settings(max_examples=60, deadline=None)
@given(t_elements(), t_elements())
def test_norm_of_difference_matches_subtraction(a, b):
    assert a.norm_of_difference(b) == (a - b).norm()


rationals = st.fractions(max_denominator=50)


@settings(max_examples=60, deadline=None)
@given(rationals, rationals)
def test_padic_ultrametric(x, y):
    a, b = P3.from_rational(x), P3.from_rational(y)
    assert (a + b).norm() <= max(a.norm(), b.norm())
    assert (a * b).norm() == a.norm() * b.norm()


# -- differences across denominators -----------------------------------------

# 1+t, 1-t^2 and, on puiseux only, 1+t^(1/2)
UNIT_DENOMINATORS = {
    T: (((0, 1), (1, 1)), ((0, 1), (2, -1))),
    PX: (((0, 1), (1, 1)), ((0, 1), (2, -1)), ((0, 1), (Q(1, 2), 1))),
}


@st.composite
def laurent_polys(draw, fd, top=12):
    """A Laurent polynomial in t (t^(1/6) on puiseux) of up to three terms;
    puiseux exponents are k/d for |k| <= top and d in 1, 2, 3, 6."""
    if fd is T:
        exps = exponents
    else:
        exps = st.builds(Q, st.integers(min_value=-top, max_value=top),
                         st.sampled_from((1, 2, 3, 6)))
    return fd.from_terms(draw(st.lists(st.tuples(exps, coeffs), max_size=3)))


@st.composite
def series_elements(draw, fd, max_dens=2, top=12):
    """A Laurent polynomial divided by up to max_dens of the field's unit
    denominators."""
    x = draw(laurent_polys(fd, top))
    dens = draw(st.lists(st.sampled_from(UNIT_DENOMINATORS[fd]),
                         max_size=max_dens))
    for den in dens:
        x = x / fd.from_terms(den)
    return x


def _canonical_lead(d):
    """The leading term of a canonical element as lead_of_difference gives
    it, exponent and coefficient as ints where integral."""
    if d.is_zero:
        return math.inf, None
    return tuple(v.numerator if v.denominator == 1 else v for v in d.num[0])


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from((T, PX)))
def test_difference_leads_match_the_canonical_difference(data, fd):
    a = data.draw(series_elements(fd))
    # b far from a, equal to it, or a plus an element that may cancel
    # any number of a's leading terms; a + d often has another denominator
    b = data.draw(st.one_of(series_elements(fd), st.just(a),
                            series_elements(fd).map(lambda d: a + d)))
    d = a - b
    lead, want = a.lead_of_difference(b), _canonical_lead(d)
    assert lead == want and list(map(type, lead)) == list(map(type, want))
    assert a.norm_of_difference(b) == d.norm()


def test_cross_denominator_differences_run_no_gcd(monkeypatch):
    one_t = T.one() + t(1)
    pairs = [((T.one() + t(2)) / one_t, T.one() / (T.one() - t(2))),
             (t(-1) / one_t, t(-1) + t(3)),
             (PX.one() / PX.from_terms([(0, 1), (Q(1, 2), 1)]),
              PX.one() / PX.from_terms([(0, 1), (1, 1)]))]
    assert all(a.den != b.den for a, b in pairs)
    calls = []
    gcd = field._pgcd_int
    monkeypatch.setattr(field, "_pgcd_int",
                        lambda p, q: calls.append(1) or gcd(p, q))
    for a, b in pairs:
        a.lead_of_difference(b)
        a.norm_of_difference(b)
    assert calls == []
    pairs[0][0] - pairs[0][1]  # the canonical difference runs the gcd
    assert calls


def _lead_decided_pairs():
    """One cross-denominator pair per way the two numerators' leading terms
    decide the difference, on t-adic and puiseux: a zero operand on either
    side, the lower order on a and on b, and one order with different
    coefficients."""
    one_t = T.one() + t(1)
    one_t2 = T.one() - t(2)
    root = PX.from_terms([(0, 1), (Q(1, 2), 1)])
    px_one_t = PX.from_terms([(0, 1), (1, 1)])
    x, y = t(-1, 2) / one_t, PX.monomial(Q(1, 2), 3) / root
    return [(T.zero(), x), (x, T.zero()),
            (t(-2, 3) / one_t, t(1) / one_t2),
            (t(2) / one_t, t(-1, 5) / one_t2),
            (t(0, 2) / one_t, t(0, 3) / one_t2),
            (PX.zero(), y), (y, PX.zero()),
            (PX.monomial(Q(-1, 2)) / root, PX.one() / px_one_t),
            (PX.monomial(Q(3, 2), 2) / root,
             PX.monomial(Q(1, 3), -1) / px_one_t),
            (PX.monomial(Q(1, 2), 2) / root, PX.monomial(Q(1, 2), Q(-1, 3)))]


def _equal_lead_pairs():
    """Cross-denominator pairs whose leading terms cancel, so the second
    term of the cross numerator leads: 1/(1+t) - 1/(1-t^2) = -t + ... and
    1/(1+t^(1/2)) - 1/(1+t) = -t^(1/2) + ..."""
    return [(T.one() / (T.one() + t(1)), T.one() / (T.one() - t(2))),
            (PX.one() / PX.from_terms([(0, 1), (Q(1, 2), 1)]),
             PX.one() / PX.from_terms([(0, 1), (1, 1)]))]


def test_cross_denominator_leads_on_fixed_cases():
    want = [(-1, -2), (-1, 2), (-2, 3), (-1, -5), (0, -1),
            (Q(1, 2), -3), (Q(1, 2), 3), (Q(-1, 2), 1), (Q(1, 3), 1),
            (Q(1, 2), Q(7, 3)), (1, -1), (Q(1, 2), -1)]
    pairs = _lead_decided_pairs() + _equal_lead_pairs()
    assert all(a.den != b.den for a, b in pairs)
    for (a, b), w in zip(pairs, want, strict=True):
        d = a - b
        lead = a.lead_of_difference(b)
        assert lead == _canonical_lead(d) == w
        assert list(map(type, lead)) == list(map(type, _canonical_lead(d)))
        assert a.norm_of_difference(b) == d.norm() == theta(w[0])


def test_only_equal_cross_leads_build_the_cross_numerator(monkeypatch):
    calls = []
    cross = field._cross_numerator
    monkeypatch.setattr(field, "_cross_numerator",
                        lambda a, b: calls.append(1) or cross(a, b))
    for a, b in _lead_decided_pairs():
        a.lead_of_difference(b)
        a.norm_of_difference(b)
    assert calls == []
    for a, b in _equal_lead_pairs():
        a.lead_of_difference(b)
        assert len(calls) == 1
        a.norm_of_difference(b)
        assert len(calls) == 2
        calls.clear()


# -- scaling a reduced form --------------------------------------------------


def _scale_by_reduction(a, q):
    """The route scale took before it kept the reduced form: reduce q*N/D."""
    num, den = field._canonical_fraction(field._pscale(a.num, q), a.den)
    return field.FieldElement(a.field, num, den)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from((T, PX)))
def test_scale_matches_the_reduced_product(data, fd):
    a = data.draw(series_elements(fd))
    q = data.draw(st.one_of(st.just(Q(0)), coeffs))
    got, want = a.scale(q), _scale_by_reduction(a, q)
    assert (got.num, got.den) == (want.num, want.den)
    assert got.to_text() == want.to_text()
    assert hash(got) == hash(want)


def test_scale_runs_no_reduction(monkeypatch):
    forms = [(T.one() + t(2)) / (T.one() + t(1)),
             t(-1) / (T.one() - t(2)),
             PX.one() / PX.from_terms([(0, 1), (Q(1, 2), 1)])]
    assert all(len(a.den) > 1 for a in forms)
    calls = []
    reduce = field._canonical_fraction
    monkeypatch.setattr(field, "_canonical_fraction",
                        lambda n, d: calls.append(1) or reduce(n, d))
    for a in forms:
        assert a.scale(Q(-3, 2)).scale(Q(-2, 3)) == a
        assert a.scale(0).is_zero
    assert calls == []


# -- the shared unit denominator and the kept hash ----------------------------


def _routes(fd, a, b, q):
    """Elements built by every route that makes one: the constructors,
    parsing, the four operations, scaling and the zero element."""
    out = [a, b, fd.zero(), fd.from_terms(a.num, a.den),
           parse_element(fd, a.to_text()), a + b, a - b, a * b,
           a.scale(q), -a]
    if not b.is_zero:
        out.append(a / b)
    return out


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from((T, PX)))
def test_unit_denominator_is_shared_and_hash_is_structural(data, fd):
    a = data.draw(series_elements(fd))
    b = data.draw(st.one_of(series_elements(fd), st.just(a),
                            series_elements(fd).map(lambda d: a + d)))
    q = data.draw(st.one_of(st.just(Q(0)), coeffs))
    xs = _routes(fd, a, b, q)
    for x in xs:
        if len(x.den) == 1:
            assert x.den is field._ONE_POLY
        assert hash(x) == hash((x.field, x.num, x.den))
        assert hash(x) == hash(x)  # the kept value
    # equal values reached by different routes hash alike
    pairs = [(parse_element(fd, a.to_text()), a), ((a + b) - b, a),
             (a - a, fd.zero()), (a.scale(q), a * fd.from_rational(q))]
    if not b.is_zero:
        pairs.append(((a / b) * b, a))
    for x, y in pairs:
        assert x == y and hash(x) == hash(y)


@settings(max_examples=100, deadline=None)
@given(rationals, rationals)
def test_padic_hash_is_structural(x, y):
    a, b = P3.from_rational(x), P3.from_rational(y)
    for z in (a, a + b, a * b, parse_element(P3, a.to_text())):
        assert hash(z) == hash((z.field, z.rational))
    assert hash((a + b) - b) == hash(a)


# -- sums that need no gcd ----------------------------------------------------


def _sum_by_reduction(a, b):
    """The general sum: cross-multiply, then reduce."""
    num = field._padd(field._pmul(a.num, b.den), field._pmul(b.num, a.den))
    num, den = field._canonical_fraction(num, field._pmul(a.den, b.den))
    return field.FieldElement(a.field, num, den)


def _sum_over_count_by_reduction(values):
    """The average as a pairwise fold of the general sum."""
    total = values[0]
    for v in values[1:]:
        total = _sum_by_reduction(total, v)
    return total.scale(Q(1, len(values)))


@st.composite
def shared_denominator_values(draw, fd, top=12):
    """One to four Laurent polynomials over one product D of the field's
    unit denominators; the last value often makes the sum g*F/D for a
    factor F of D, so that the sum over D needs its gcd."""
    factors = [fd.from_terms(d) for d in draw(st.lists(
        st.sampled_from(UNIT_DENOMINATORS[fd]), min_size=1, max_size=2))]
    den = fd.one()
    for f in factors:
        den = den * f
    values = [draw(laurent_polys(fd, top)) / den
              for _ in range(draw(st.integers(min_value=1, max_value=3)))]
    if draw(st.booleans()):
        rest = fd.zero()
        for v in values:
            rest = rest + v
        values.append(draw(laurent_polys(fd, top)) * factors[0] / den - rest)
    return values


def _assert_same_form(got, want):
    assert (got.num, got.den) == (want.num, want.den)
    if len(got.den) == 1:
        assert got.den is field._ONE_POLY
    assert hash(got) == hash(want)
    assert got.to_text() == want.to_text()


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from((T, PX)))
def test_gcd_free_sums_match_the_reduced_sum(data, fd):
    a = data.draw(series_elements(fd))
    p = data.draw(laurent_polys(fd))
    values = data.draw(st.one_of(
        shared_denominator_values(fd),
        st.lists(series_elements(fd, max_dens=1), min_size=1, max_size=3)))
    _assert_same_form(a + p, _sum_by_reduction(a, p))
    _assert_same_form(p + a, _sum_by_reduction(p, a))
    _assert_same_form(sum_over_count(values),
                      _sum_over_count_by_reduction(values))
    if a.den is not field._ONE_POLY:
        # N/D with D != 1 is no Laurent polynomial, so N/D + P is never 0
        assert not (a + p).is_zero and (a + p).den is a.den


def test_laurent_addends_with_negative_and_half_exponents():
    root = PX.from_terms([(0, 1), (Q(1, 2), 1)])
    cases = [(T.one() / (T.one() + t(1)), t(-3, 2) + t(-1)),
             (t(-2) / (T.one() - t(2)), t(-1, -1) + t(4)),
             (PX.one() / root, PX.from_terms([(Q(-1, 2), 1), (Q(1, 2), 3)])),
             (PX.monomial(Q(-1, 2)) / root, PX.monomial(Q(3, 2), -2))]
    for a, p in cases:
        for got in (a + p, p + a):
            _assert_same_form(got, _sum_by_reduction(a, p))
            assert got.den is a.den
    one_t = T.one() + t(1)
    assert T.one() / one_t - T.one() == -t(1) / one_t  # nonzero, no branch


def test_a_shared_denominator_sum_is_reduced_once():
    # 1/(1+t) + t/(1+t) = 1: the one reduction finds the unit denominator
    for fd, d in ((T, ((0, 1), (1, 1))), (PX, ((0, 1), (Q(1, 2), 1)))):
        den = fd.from_terms(d)
        u = fd.from_terms(d[1:])
        got = sum_over_count([fd.one() / den, u / den])
        assert got.num == ((Q(0), Q(1, 2)),) and got.den is field._ONE_POLY
        assert got == fd.from_rational(Q(1, 2))
        got = sum_over_count([fd.one() / den, u / den, u / den])
        _assert_same_form(got, _sum_over_count_by_reduction(
            [fd.one() / den, u / den, u / den]))


def test_sums_reject_mixed_backends():
    tu = T.one() / (T.one() + t(1))
    pu = PX.one() / PX.from_terms([(0, 1), (1, 1)])
    for values in ([T.one(), PX.one()], [tu, pu], [tu, tu, pu],
                   [tu, PX.one()], [T.one(), P3.one()], [P3.one(), tu]):
        with pytest.raises(BackendMismatchError):
            sum_over_count(values)
    for x, y in ((tu, PX.monomial(1)), (PX.monomial(1), tu), (tu, pu)):
        with pytest.raises(BackendMismatchError):
            x + y


def test_gcd_free_sums_run_at_most_one_gcd(monkeypatch):
    one_t = T.one() + t(1)
    root = PX.from_terms([(0, 1), (Q(1, 2), 1)])
    pairs = [((T.one() + t(2)) / one_t, t(-1) + t(3)),
             (t(-1) / (T.one() - t(2)), T.from_rational(Q(-5, 2))),
             (PX.one() / root, PX.from_terms([(Q(-1, 2), 1), (Q(1, 2), 3)]))]
    values = [t(k, k + 2) / one_t for k in range(-1, 4)]
    calls = []
    gcd = field._pgcd_int
    monkeypatch.setattr(field, "_pgcd_int",
                        lambda p, q: calls.append(1) or gcd(p, q))
    for a, p in pairs:
        a + p
        p + a
    assert calls == []
    sum_over_count(values)
    assert len(calls) <= 1
    calls.clear()
    _sum_over_count_by_reduction(values)  # the fold reduces at every step
    assert len(calls) == len(values) - 1


# -- evaluation oracle ---------------------------------------------------------
#
# Substituting t = s^M, where M is the lcm of the exponent denominators,
# maps Q(t^(1/M)) into Q as a ring homomorphism wherever the denominator
# does not vanish.  These helpers read an element's terms only and share
# no code with the field's polynomial helpers.


def _lattice(elements):
    """The lcm M of the exponent denominators, so that u = t^(1/M)."""
    m = 1
    for x in elements:
        for e, _ in x.num + x.den:
            m = math.lcm(m, e.denominator)
    return m


def _at(terms, s, m):
    total = Q(0)
    for e, c in terms:
        total += c * Q(s) ** int(e * m)
    return total


@functools.lru_cache(maxsize=4096)
def _value(x, s, m):
    """x at t = s^M, or None where its denominator vanishes there."""
    d = _at(x.den, s, m)
    return None if d == 0 else _at(x.num, s, m) / d


def _equal_by_values(x, y, m):
    """Decide x = y in the field from values alone.

    x - y has the numerator P = x.num*y.den - y.num*x.den, a Laurent
    polynomial in u whose exponents span at most k, so P = 0 iff it
    vanishes at k + 1 distinct nonzero points.  At u = 1, 2, ..., where
    neither denominator vanishes, P(u) = 0 iff x and y agree.
    """
    def span(p):
        return int(p[0][0] * m), int(p[-1][0] * m)

    ends = []
    for num, den in ((x.num, y.den), (y.num, x.den)):
        if num:
            ends += [a + b for a, b in zip(span(num), span(den))]
    if not ends:
        return True
    k = max(ends) - min(ends)
    agree, s = 0, 0
    while agree <= k:
        s += 1
        vx, vy = _value(x, s, m), _value(y, s, m)
        if vx is None or vy is None:
            continue
        if vx != vy:
            return False
        agree += 1
    return True


@st.composite
def partners(draw, fd, a):
    """A second operand for a: far from a, a itself, a plus an element, or
    g*F/D - a for a's denominator D and a unit denominator F, so that the
    sum g*F/D often needs its gcd."""
    kind = draw(st.sampled_from(("far", "same", "near", "cancel")))
    if kind == "same":
        return a
    if kind == "near":
        return a + draw(series_elements(fd, max_dens=1, top=3))
    if kind == "cancel" and a.den is not field._ONE_POLY:
        factor = fd.from_terms(draw(st.sampled_from(UNIT_DENOMINATORS[fd])))
        return draw(laurent_polys(fd, top=3)) * factor / fd.from_terms(a.den) - a
    return draw(series_elements(fd, max_dens=1, top=3))


def _check_against_evaluation(a, b, q, values, points):
    """The four operations, scale and sum_over_count commute with every
    substitution t = s^M at the points s where no denominator vanishes,
    and the canonical forms among them are unique."""
    ops = [operator.add, operator.sub, operator.mul] + (
        [operator.truediv] if b else [])
    results = [op(a, b) for op in ops]
    scaled, average = a.scale(q), sum_over_count(values)
    forms = [a, b, scaled, average, *results, *values]
    m = _lattice(forms)
    for s in points:
        va, vb = _value(a, s, m), _value(b, s, m)
        if va is not None and vb is not None:
            for op, x in zip(ops, results):
                if op is not operator.truediv or vb != 0:
                    assert _value(x, s, m) == op(va, vb)
            assert _value(scaled, s, m) == va * q
        vs = [_value(v, s, m) for v in values]
        if None not in vs:
            assert _value(average, s, m) == sum(vs) / len(vs)
    # two forms are equal exactly when their values are, and a result is
    # its own fresh reduction, read back from its text
    for i, x in enumerate(forms):
        for y in forms[i + 1:]:
            assert (x == y) == _equal_by_values(x, y, m)
    for x in [scaled, average, *results]:
        again = parse_element(x.field, x.to_text())
        assert x == again and _equal_by_values(x, again, m)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from((T, PX)),
       st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=5)
                .filter(bool), min_size=1, max_size=3))
def test_arithmetic_commutes_with_evaluation(data, fd, points):
    a = data.draw(series_elements(fd, max_dens=1, top=3))
    b = data.draw(partners(fd, a))
    q = data.draw(coeffs)
    values = data.draw(st.one_of(
        shared_denominator_values(fd, top=3),
        st.lists(series_elements(fd, max_dens=1, top=3), min_size=1,
                 max_size=3)))
    _check_against_evaluation(a, b, q, values, points)


def test_arithmetic_commutes_with_evaluation_on_fixed_forms():
    # Laurent operands first, whose operations run no gcd, then a unit
    # denominator against Laurent addends, two denominators whose sum
    # cancels a factor, and one denominator whose sum cancels one
    points = [Q(2), Q(-1, 3), Q(3, 2)]
    one_t, one_tt = T.one() + t(1), T.one() - t(2)
    root = PX.from_terms([(0, 1), (Q(1, 2), 1)])
    half = PX.monomial(Q(1, 2))
    cases = [
        (t(-1) + t(1, 2), t(2, -3), Q(3, 2), [t(1), t(-2, 3)]),
        (T.one() / one_t, t(-3, 2) + t(-1), Q(-1),
         [T.one() / one_t, t(1) / one_t]),
        (PX.one() / root, PX.monomial(Q(-1, 2)) + half.scale(3), Q(1, 2),
         [PX.one() / root, half / root, PX.monomial(Q(-1, 2))]),
        (T.one() / one_t, T.one() / one_tt, Q(2), [T.one() / one_t,
                                                  T.one() / one_tt]),
        (T.one() / one_tt, t(1) / one_tt, Q(5),
         [T.one() / one_tt, t(1) / one_tt, t(3) / one_tt]),
    ]
    for a, b, q, values in cases:
        _check_against_evaluation(a, b, q, values, points)


# -- Euclid on rational exponents --------------------------------------------


def _euclid_reference(a, b):
    """Monic gcd over Q by Euclid's algorithm in Q[t^(1/N)]: the reference
    for field._pgcd_int, sharing no code with the field."""
    a, b = dict(a), dict(b)
    while b:
        db = max(b)
        while a and (da := max(a)) >= db:
            c = a[da] / b[db]
            for e, k in b.items():
                e += da - db
                if s := a.get(e, 0) - c * k:
                    a[e] = s
                else:
                    a.pop(e, None)
        a, b = b, a
    lead = a[max(a)]
    return tuple(sorted((e, c / lead) for e, c in a.items()))


def _canonical_fraction_scaled(num, den):
    """The reduction as it ran when Euclid saw integer exponents only: the
    exponents were scaled by the lcm N of their denominators, and the
    quotients scaled back by 1/N."""
    if not num:
        return (), field._ONE_POLY
    if den is field._ONE_POLY:
        return num, den
    d0 = field._ord(den)
    if d0 != 0:
        den = field._pshift(den, -d0)
        num = field._pshift(num, -d0)
    if len(num) > 1 and len(den) > 1:
        scale = 1
        for e, _ in num + den:
            scale = scale * e.denominator // math.gcd(scale, e.denominator)
        n0 = field._ord(num)
        nshift = field._pshift(num, -n0)
        if scale != 1:
            nshift = tuple((e * scale, c) for e, c in nshift)
            dint = tuple((e * scale, c) for e, c in den)
        else:
            dint = den
        g = _euclid_reference(nshift, dint)
        if len(g) > 1 or g[0][0] != 0:
            nshift, _ = field._pdivmod_int(nshift, g)
            dint, _ = field._pdivmod_int(dint, g)
            if scale != 1:
                nshift = tuple((e / scale, c) for e, c in nshift)
                dint = tuple((e / scale, c) for e, c in dint)
            num = field._pshift(nshift, n0)
            den = dint
    lead = den[0][1]
    if lead != 1:
        den = field._pscale(den, 1 / lead)
        num = field._pscale(num, 1 / lead)
    return num, (field._ONE_POLY if len(den) == 1 else den)


def _sixths_poly(min_size):
    terms = st.tuples(st.builds(Q, st.integers(-6, 12), st.just(6)),
                      st.integers(-3, 3).filter(bool).map(Q))
    return st.lists(terms, min_size=min_size, max_size=3).map(
        lambda ts: field._normalize_terms(PX, ts)).filter(
        lambda p: len(p) >= min_size)


@settings(max_examples=300, deadline=None)
@given(_sixths_poly(1), _sixths_poly(1), _sixths_poly(0))
def test_euclid_on_rational_exponents_matches_the_scaled_route(n, d, c):
    # N*C / D*C with exponents in (1/6)Z; C is often a common factor to cancel
    c = c or field._ONE_POLY
    num, den = field._pmul(n, c), field._pmul(d, c)
    assert field._canonical_fraction(num, den) \
        == _canonical_fraction_scaled(num, den)


# -- the modular gcd ---------------------------------------------------------


def _gcd_counting_fallbacks(a, b):
    """_pgcd_int(a, b) and how many times it fell back to Euclid over Q."""
    runs = []
    euclid = field._euclid_gcd
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(field, "_euclid_gcd",
                   lambda p, q: runs.append(1) or euclid(p, q))
        out = field._pgcd_int(a, b)
    return out, len(runs)


def _check_gcd(a, b):
    """_pgcd_int(a, b) against the reference; the number of fallbacks."""
    (g, qa, qb), fallbacks = _gcd_counting_fallbacks(a, b)
    assert g == _euclid_reference(a, b)
    assert field._pmul(g, qa) == a and field._pmul(g, qb) == b
    if g == field._ONE_POLY:
        assert g is field._ONE_POLY and (qa, qb) == (a, b)
    return fallbacks


def _lattice_poly(n):
    """Nonzero polynomials with exponents in (1/n)Z, from 0 to 8."""
    terms = st.tuples(st.builds(Q, st.integers(0, 8 * n), st.just(n)),
                      st.builds(Q, st.integers(-9, 9), st.integers(1, 4)))
    return st.lists(terms, min_size=1, max_size=4).map(
        lambda ts: field._normalize_terms(PX, ts)).filter(bool)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from((1, 2, 6)).flatmap(
    lambda n: st.tuples(_lattice_poly(n), _lattice_poly(n), _lattice_poly(n))))
def test_modular_gcd_matches_euclid(abc):
    # A*C and B*C share C, and often more; small coefficients never need
    # the fallback
    a, b, c = abc
    assert _check_gcd(field._pmul(a, c), field._pmul(b, c)) == 0


def _poly(*terms):
    return tuple((Q(e), Q(c)) for e, c in terms)


def test_an_unlucky_prime_falls_back_to_euclid():
    # u - 1 and u - 1 - P are coprime over Q but equal mod P, so the image
    # gcd u - 1 reconstructs, divides the first and not the second
    a, b = _poly((0, -1), (1, 1)), _poly((0, -1 - field._P), (1, 1))
    assert _check_gcd(a, b) == 1
    assert field._pgcd_int(a, b)[0] is field._ONE_POLY


def test_a_leading_coefficient_divisible_by_p_falls_back_to_euclid():
    # (P*u + 1)(u + 2) and (P*u + 1)(u + 1): mod P the common factor is the
    # constant 1, so the images would prove the wrong gcd
    common = _poly((0, 1), (1, field._P))
    a = field._pmul(common, _poly((0, 2), (1, 1)))
    b = field._pmul(common, _poly((0, 1), (1, 1)))
    assert _check_gcd(a, b) == 1
    assert field._pgcd_int(a, b)[0] == _poly((0, Q(1, field._P)), (1, 1))


def test_an_operand_over_the_image_cap_falls_back_without_building_it():
    # images of degree 2 * 10^6 would take 16 MB; Euclid over Q takes two
    # steps on these sparse forms
    a, b = _poly((0, -1), (2 * 10 ** 6, 1)), _poly((0, -1), (10 ** 6, 1))
    tracemalloc.start()
    try:
        assert _check_gcd(a, b) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak
    assert field._pgcd_int(a, b)[0] == b


def test_a_gcd_coefficient_over_the_reconstruction_bound_falls_back():
    big = 3 * 10 ** 9
    assert big > field._RECONSTRUCTION_BOUND
    for coefficient in (Q(big), Q(1, big), Q(big, 7)):
        common = _poly((0, coefficient), (1, 1))
        a = field._pmul(common, _poly((0, 1), (1, 1)))
        b = field._pmul(common, _poly((0, 2), (1, 1)))
        assert _check_gcd(a, b) == 1
        assert field._pgcd_int(a, b)[0] == common


# -- one p-adic valuation routine --------------------------------------------


def _valuation_by_division(q, p):
    """The valuation as computed before _padic_lead gave it."""
    v, n = 0, q.numerator
    while n % p == 0:
        n, v = n // p, v + 1
    if v:
        return v
    d = q.denominator
    while d % p == 0:
        d, v = d // p, v - 1
    return v


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((2, 3, 5, 7)), rationals.filter(bool), rationals,
       st.integers(-4, 4))
def test_padic_norm_and_rv_match_the_division_formulas(p, x, y, k):
    fd = FieldDescriptor("p-adic", prime=p)
    q = x * Q(p) ** k
    a, b = fd.from_rational(q), fd.from_rational(y)
    v = _valuation_by_division(q, p)
    assert a.norm() == theta(v)
    assert a.rv() == RVValue(Q(v), q / Q(p) ** v, p)
    want = ZERO if q == y else theta(_valuation_by_division(q - y, p))
    assert a.norm_of_difference(b) == want
