"""The element reader, which builds canonical text directly once its
coprimality certificate holds, against the parser that reduced every
element by Euclid over Q."""

import re
import sys
import tracemalloc
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from ultralip import field, serialize
from ultralip.field import FieldDescriptor, _P, _proved_coprime
from ultralip.serialize import InstanceError, parse_element

T = FieldDescriptor("t-adic")
PX = FieldDescriptor("puiseux")
P3 = FieldDescriptor("p-adic", prime=3)


# -- the parser as it read every element before canonical text was built directly


def _old_rational(s, path):
    if isinstance(s, int):
        return Q(s)
    if isinstance(s, str):
        m = re.fullmatch(r"\s*(-?\d+)\s*(?:/\s*(-?\d+)\s*)?", s)
        if m:
            num = int(m.group(1))
            den = int(m.group(2)) if m.group(2) else 1
            if den == 0:
                raise InstanceError(path, "zero denominator")
            return Q(num, den)
    raise InstanceError(path, f"not a rational: {s!r}")


_OLD_TERM_RE = re.compile(
    r"^(?:(?P<coef>-?\d+(?:/\d+)?)(?:\*(?P<tc>t(?:\^(?P<exp>-?\d+|\(-?\d+/-?\d+\)))?))?"
    r"|(?P<t>t(?:\^(?P<exp2>-?\d+|\(-?\d+/-?\d+\)))?))$")


def _old_exponent(s, path):
    if s is None:
        return Q(1)
    if s.startswith("("):
        s = s[1:-1]
    return _old_rational(s, path)


def _old_terms(s, path):
    s = s.strip()
    if s in ("", "0"):
        return []
    terms = []
    for chunk in s.split("+"):
        chunk = chunk.replace(" ", "")
        if not chunk:
            raise InstanceError(path, "empty term")
        m = _OLD_TERM_RE.fullmatch(chunk)
        if not m:
            raise InstanceError(path, f"bad term {chunk!r}")
        if m.group("t"):
            coef = Q(1)
            exp = _old_exponent(m.group("exp2"), path)
        else:
            coef = _old_rational(m.group("coef"), path)
            if m.group("tc"):
                exp = _old_exponent(m.group("exp"), path)
            else:
                exp = Q(0)
        terms.append((exp, coef))
    return terms


def _old_split(s, path):
    s = s.strip()
    if not s.startswith("("):
        return s, None
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                head, rest = s[1:i], s[i + 1:].strip()
                if not rest:
                    return head, None
                if rest.startswith("/"):
                    rest = rest[1:].strip()
                    if rest.startswith("(") and rest.endswith(")"):
                        return head, rest[1:-1]
                raise InstanceError(path, f"malformed fraction {s!r}")
    raise InstanceError(path, f"unbalanced parentheses in {s!r}")


def _old_parse(fd, s, path):
    if not fd.is_series:
        return fd.from_rational(_old_rational(s, path))
    num_s, den_s = _old_split(s, path)
    num = _old_terms(num_s, path)
    den = _old_terms(den_s, path) if den_s is not None else [(0, 1)]
    try:
        return fd.from_terms(num, den)
    except (ValueError, ZeroDivisionError) as e:
        raise InstanceError(path, str(e))


def _outcome(parse, fd, s):
    """The parsed form, with whether its denominator is the shared unit
    form, or the error message."""
    try:
        x = parse(fd, s, "$.x")
    except InstanceError as e:
        return "error", str(e)
    return x.num, x.den, x.den is field._ONE_POLY, x.rational


def _read_counting_gcds(fd, s):
    """The element s reads as, and how many Euclid runs over Q it took."""
    runs = []
    pgcd = field._pgcd_int
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(field, "_pgcd_int", lambda a, b: runs.append(1) or pgcd(a, b))
        x = parse_element(fd, s)
    return x, len(runs)


def _same_as_old(fd, s):
    new = _outcome(parse_element, fd, s)
    assert new == _outcome(_old_parse, fd, s), s
    return new


# -- round trip of emitted text --------------------------------------------------


coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool)


def _exponents(fd, top=6):
    if fd is T:
        return st.integers(-top, top)
    return st.builds(Q, st.integers(-top, top), st.sampled_from((1, 2, 3)))


DENOMINATORS = {
    T: (((0, 1), (1, 1)), ((0, 1), (2, -1)), ((0, 2), (1, 3), (3, -1))),
    PX: (((0, 1), (1, 1)), ((0, 1), (Q(1, 2), 1)), ((0, 3), (Q(2, 3), -1))),
}


@st.composite
def series(draw, fd):
    """A Laurent polynomial over up to two of the field's denominators, or
    such an element mapped by the unit 1/(1+t)."""
    x = fd.from_terms(draw(st.lists(st.tuples(_exponents(fd), coeffs),
                                    max_size=4)))
    for den in draw(st.lists(st.sampled_from(DENOMINATORS[fd]), max_size=2)):
        x = x / fd.from_terms(den)
    if draw(st.booleans()):
        x = x * (fd.one() / (fd.one() + fd.monomial(1)))
    return x


elements = st.one_of(series(T), series(PX),
                     st.fractions(max_denominator=50).map(P3.from_rational))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(elements)
def test_emitted_text_reads_back_identically(x):
    y, gcds = _read_counting_gcds(x.field, x.to_text())
    assert (y.num, y.den, y.rational) == (x.num, x.den, x.rational)
    assert y == x and hash(y) == hash(x)
    assert gcds == 0  # emitted text is proven reduced without Euclid
    if x.field.is_series:
        assert (y.den is field._ONE_POLY) == (x.den is field._ONE_POLY)


# -- other text reads as the general parser reads it ------------------------------


NON_CANONICAL = [
    "( 1*t^0 + 2*t^1 )/(1*t^0)", "(1*t^0+2*t^1)/(1*t^0)", "(1*t^0 +  2*t^1)",
    " (1*t^1)/(1*t^0)", "(1*t^1)/(1*t^0) ", "(1*t^1)/ (1*t^0)",
    "t", "(t)", "(t + t^2)", "(2*t)", "(3)", "0", "(0)", "(0)/(1*t^0)",
    "(1*t^2 + 1*t^1)/(1*t^0)", "(1*t^1 + 1*t^1)/(1*t^0)",
    "(1*t^1 + -1*t^1)/(1*t^0)", "(0*t^1 + 1*t^2)/(1*t^0)", "(-0*t^1)/(1*t^0)",
    "(0/5*t^1 + 1*t^2)/(1*t^0 + 1*t^1)", "(1*t^(2/1))/(1*t^0)",
    "(1*t^(4/2))/(1*t^0)", "(1*t^(2))/(1*t^0)", "(2/4*t^1)/(1*t^0)",
    "(2/4*t^0 + 1*t^1)/(1*t^0 + 4/8*t^1)", "(01*t^001)/(1*t^0)",
    "(t + t^2)/(t + t^3)", "(1*t^0 + 1*t^1)/(1*t^0 + 1*t^1)",
    "(-1*t^0 + 1*t^2)/(1*t^0 + 1*t^1)", "(1*t^1)/(2*t^0)",
    "(1*t^1)/(1*t^1)", "(1*t^1)/(1*t^0 + -1*t^-1)", "(1*t^1)/(1*t^0)/(1*t^0)",
    "(1*t^0 + 1*t^1))/((1*t^0)", "(1*t^0)/(0*t^0)", "(1*t^0)/(0)",
    "(1/0*t^1)/(1*t^0)", "(1/00*t^1)/(1*t^0)", "(1*t^(1/0))/(1*t^0)",
    "(1*t^(1/2))/(1*t^0)", "(1*t^(-1/2))/(1*t^0)", "(1*t^(1/-2))/(1*t^0)",
    "(1*t^(-1/-2) + 1*t^1)/(1*t^0)", "(1*t^(1/2) + 1*t^(1/3))/(1*t^0)",
    "(1*t^0 + 1*t^(1/2))/(1*t^0 + -1*t^1)", "(2**t)", "(1*t^+1)/(1*t^0)",
    "(+1*t^1)/(1*t^0)", "(1*t^1_0)/(1*t^0)", "(1*t^1)/(1*t^0", "1*t^1)",
    "()", "", "(", ")", "(1*t^1)/()", "( )/(1*t^0)", "(1*t^1 + )/(1*t^0)",
    "(1*t^0 + 1*t^5000)/(1*t^0 + 1*t^1)",
    # text that the one-regex split of the sides leaves to the depth loop
    "(1*t^((1/2)))/(1*t^0)", "((1*t^1))", "(1*t^(1/2)))",
    "(1*t^1)\t/(1*t^0)", "(1*t^1\n)/(1*t^0)", "\t(1*t^1)/(1*t^0)\n",
    "(1*t^(1/2))/(1*t^0))", "(1*t^1)/((1*t^0))", "(1 2*t^1)/(1*t^0)",
]


@pytest.mark.parametrize("fd", (T, PX), ids=("t-adic", "puiseux"))
def test_other_text_reads_as_the_general_parser_reads_it(fd):
    for s in NON_CANONICAL:
        _same_as_old(fd, s)


def test_digits_past_the_int_limit_fail_with_their_path():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        big = "1" * 5001
        for fd, s in ((T, f"({big}*t^1)/(1*t^0)"), (PX, f"(1*t^(1/{big}))"),
                      (P3, big)):
            with pytest.raises(InstanceError, match=r"^\$\.x: Exceeds the limit"):
                parse_element(fd, s, "$.x")
        with pytest.raises(InstanceError,
                           match=r"^\$\.box\.ord: Exceeds the limit"):
            serialize.parse_box(T, {"exact": {"ord": big}}, "$.box")
    finally:
        sys.set_int_max_str_digits(limit)


@st.composite
def unreduced_texts(draw, fd):
    """numerator A*C over denominator B*C, written term by term in
    to_text's layout, so that the reader finds the terms canonical whether
    or not C cancels; B and C have constant term 1, so the denominator
    starts with 1*t^0."""
    exps = _exponents(fd, 3).filter(lambda e: e > 0)

    def poly(const):
        terms = draw(st.lists(st.tuples(exps, coeffs), max_size=2))
        return field._normalize_terms(fd, [(0, const)] + terms)

    a, b, c = poly(draw(coeffs)), poly(1), poly(1)
    num = field._pmul(field._pshift(a, draw(_exponents(fd))), c)
    return f"({field._terms_text(num)})/({field._terms_text(field._pmul(b, c))})"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from((T, PX)).flatmap(
    lambda fd: st.tuples(st.just(fd), unreduced_texts(fd))))
def test_unreduced_text_reads_as_the_general_parser_reads_it(case):
    _same_as_old(*case)


def test_non_ascii_digits_are_refused():
    # the general parser's \d read the Arabic-Indic digit as 3
    series_texts = ["٣", "(٣*t^1)/(1*t^0)", "(1*t^٣)/(1*t^0)", "(2/٣*t^1)"]
    for fd, texts in ((T, series_texts), (PX, series_texts + ["(1*t^(1/٣))"])):
        for s in texts:
            assert _outcome(_old_parse, fd, s)[0] != "error"
            with pytest.raises(InstanceError, match=r"^\$\.x: "):
                parse_element(fd, s, "$.x")
    for s in ("٣", "1/٣", "٣/2"):
        assert _outcome(_old_parse, P3, s)[0] != "error"
        with pytest.raises(InstanceError, match=r"^\$\.x: not a rational"):
            parse_element(P3, s, "$.x")
    # ² is a digit to str.isdigit but not to int
    for fd in (T, PX, P3):
        with pytest.raises(InstanceError):
            parse_element(fd, "(1*t^²)/(1*t^0)" if fd.is_series else "²")


# -- the certificate ---------------------------------------------------------------


def _poly(*terms):
    return tuple((Q(e), Q(c)) for e, c in terms)


def test_certificate_declines_an_image_over_the_cap_without_building_it():
    cases = [
        (_poly((0, 1), (10 ** 6, 1)), _poly((0, 1), (1, 1))),
        (_poly((0, 1), (1, 1)), _poly((0, 1), (10 ** 6, 1))),
        # exponents over a common denominator near 10^12
        (_poly((0, 1), (Q(1, 999983), 1)), _poly((0, 1), (Q(1, 1000003), 1))),
        (_poly((0, 1), (1, 1)), _poly((0, 1), (Q(1, 999999999989), 1))),
    ]
    for a, b in cases:
        tracemalloc.start()
        try:
            assert _proved_coprime(a, b) is False
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak
    # just under the cap the image is built and decides
    assert _proved_coprime(_poly((0, 1), (field._IMAGE_CAP - 1, 1)),
                           _poly((0, 1), (1, -1)))


def test_certificate_examples():
    one_t = _poly((0, 1), (1, 1))
    assert _proved_coprime(_poly((0, 1), (1, 2)), one_t)
    assert _proved_coprime(_poly((0, Q(1, 3)), (2, Q(5, 7))), one_t)
    assert not _proved_coprime(_poly((0, 1), (2, -1)), one_t)  # (1-t)(1+t)
    assert _proved_coprime(_poly((0, 1), (Q(1, 2), 1)), _poly((0, 1), (1, 1)))
    # with u = t^(1/2), 1 + u^3 = (1 + u)(1 - u + u^2)
    assert not _proved_coprime(_poly((0, 1), (Q(3, 2), 1)),
                               _poly((0, 1), (Q(1, 2), 1)))


def test_an_unlucky_prime_falls_back_and_reads_coprime():
    # u - 1 and u - 1 - P are coprime over Q but equal mod P
    d = Q(-1, _P + 1)
    num, den = _poly((0, -1), (1, 1)), _poly((0, 1), (1, d))
    assert not _proved_coprime(num, den)
    text = f"(-1*t^0 + 1*t^1)/(1*t^0 + {d.numerator}/{d.denominator}*t^1)"
    assert _read_counting_gcds(T, text)[1] >= 1
    x = _same_as_old(T, text)
    assert x[:2] == (num, den)


def test_a_leading_coefficient_divisible_by_p_falls_back():
    # (P*u + 1)(u + 2) over (P*u + 1)(u + 1) reads (u + 2)/(u + 1); mod P
    # the common factor becomes the constant 1, and the images are coprime
    num = _poly((0, 2), (1, 2 * _P + 1), (2, _P))
    den = _poly((0, 1), (1, _P + 1), (2, _P))
    assert not _proved_coprime(num, den)
    text = f"({field._terms_text(num)})/({field._terms_text(den)})"
    x = parse_element(T, text)
    assert (x.num, x.den) == (_poly((0, 2), (1, 1)), _poly((0, 1), (1, 1)))
    assert x == (T.from_int(2) + T.monomial(1)) / (T.one() + T.monomial(1))
