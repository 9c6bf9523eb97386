"""Field arithmetic, norms, leading terms, and averages."""

import math
import time
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
def series_elements(draw, fd):
    """A Laurent polynomial in t (t^(1/6) on puiseux), divided by one or
    two of the field's unit denominators or by none."""
    if fd is T:
        exps = exponents
    else:
        exps = st.builds(Q, st.integers(min_value=-12, max_value=12),
                         st.sampled_from((1, 2, 3, 6)))
    terms = draw(st.lists(st.tuples(exps, coeffs), max_size=3))
    x = fd.from_terms(terms)
    dens = draw(st.lists(st.sampled_from(UNIT_DENOMINATORS[fd]), max_size=2))
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


# -- Euclid on rational exponents --------------------------------------------


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
        g = field._pgcd_int(nshift, dint)
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
