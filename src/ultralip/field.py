"""Exact arithmetic for computable non-archimedean valued fields.

Three backends are supported: formal Laurent fractions over the rationals
in one variable t (integer exponents), the same with rational exponents
(puiseux), and exact rationals carrying the p-adic valuation.  The two
series backends have residue characteristic zero; the p-adic backend is
mixed-characteristic and exists to show where that assumption matters.

Norms are written multiplicatively as theta(e) with reversed exponent
order: theta(e1) < theta(e2) iff e1 > e2, and |t| = theta(1) < 1.  All
values are immutable and every operation is a pure function, so values
are safe to share between concurrent tasks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Sequence

T_ADIC = "t-adic"
PUISEUX = "puiseux"
P_ADIC = "p-adic"

_KINDS = (T_ADIC, PUISEUX, P_ADIC)

Q = Fraction


class BackendMismatchError(ValueError):
    """Operands belong to different field backends."""


class PDivisibleCountWarning(UserWarning):
    """An average was taken over a count of norm < 1.

    Possible only on the p-adic backend; averaging then inflates norms and
    the residue-characteristic-zero guarantees no longer apply.
    """


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981  # the first pseudoprime to all bases


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the first 13 prime bases; exact below
    _MR_LIMIT, and a larger n raises ValueError."""
    if n >= _MR_LIMIT:
        raise ValueError(f"primality is decided only below {_MR_LIMIT}, not for {n}")
    if n < 2:
        return False
    if n in _MR_BASES:
        return True
    if any(n % a == 0 for a in _MR_BASES):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# Value group


@dataclass(frozen=True, slots=True)
class NormValue:
    """A multiplicative norm: zero, or theta(exponent) with reversed order."""

    exponent: Fraction | None = None  # None encodes the zero norm

    @staticmethod
    def zero() -> "NormValue":
        return NormValue(None)

    @staticmethod
    def theta(e) -> "NormValue":
        return NormValue(_as_fraction(e))

    @property
    def is_zero(self) -> bool:
        return self.exponent is None

    def __lt__(self, other: "NormValue") -> bool:
        if self.is_zero:
            return not other.is_zero
        if other.is_zero:
            return False
        return self.exponent > other.exponent  # reversed order

    def __le__(self, other: "NormValue") -> bool:
        return self == other or self < other

    def __gt__(self, other: "NormValue") -> bool:
        return other < self

    def __ge__(self, other: "NormValue") -> bool:
        return other <= self

    def __mul__(self, other: "NormValue") -> "NormValue":
        if self.is_zero or other.is_zero:
            return NormValue.zero()
        return NormValue(self.exponent + other.exponent)

    def __truediv__(self, other: "NormValue") -> "NormValue":
        if other.is_zero:
            raise ZeroDivisionError("division by the zero norm")
        if self.is_zero:
            return NormValue.zero()
        return NormValue(self.exponent - other.exponent)

    def __repr__(self) -> str:
        return "Norm(0)" if self.is_zero else f"Theta({self.exponent})"


NORM_ONE = NormValue.theta(0)


def max_norms(norms: Iterable[NormValue]) -> NormValue:
    best = NormValue.zero()
    for n in norms:
        if best < n:
            best = n
    return best


@dataclass(frozen=True, slots=True)
class CutValue:
    """A Dedekind cut of norms: an infimum with an attained flag.

    The cut (r, attained) equals the value r; the cut (r, not attained)
    sits strictly between r and every norm above r (the infimum is only
    approached from above).  Hence (r, True) < (r, False) and a plain
    value v compares to a cut like the cut (v, True).
    """

    norm: NormValue
    attained: bool

    def __lt__(self, other: "CutValue") -> bool:
        if self.norm == other.norm:
            return self.attained and not other.attained
        return self.norm < other.norm

    def __le__(self, other: "CutValue") -> bool:
        return not other < self

    def __gt__(self, other: "CutValue") -> bool:
        return other < self

    def __ge__(self, other: "CutValue") -> bool:
        return other <= self

    def __repr__(self) -> str:
        tag = "attained" if self.attained else "approached"
        return f"Cut({self.norm!r}, {tag})"


# ---------------------------------------------------------------------------
# Leading terms


@dataclass(frozen=True, slots=True)
class RVValue:
    """The leading-term datum rv(x): zero, or a norm exponent with a unit.

    For the mixed-characteristic backend the unit is reduced modulo p, so
    that rv(x) = rv(y) iff |x - y| < |x| holds structurally.
    """

    exponent: Fraction | None
    unit: Fraction | None
    prime: int | None = None

    def __post_init__(self):
        if (self.exponent is None) != (self.unit is None):
            raise ValueError("rv value must set both exponent and unit or neither")
        if self.unit is not None:
            if self.unit == 0:
                raise ValueError("rv unit must be nonzero")
            if self.prime is not None:
                digit = _padic_residue(self.unit, self.prime)
                object.__setattr__(self, "unit", Fraction(digit))

    @staticmethod
    def zero() -> "RVValue":
        return RVValue(None, None)

    @property
    def is_zero(self) -> bool:
        return self.exponent is None

    @property
    def norm(self) -> NormValue:
        return NormValue.zero() if self.is_zero else NormValue(self.exponent)

    def __mul__(self, other: "RVValue") -> "RVValue":
        if self.is_zero or other.is_zero:
            return RVValue.zero()
        if self.prime != other.prime:
            raise BackendMismatchError("rv values from different backends")
        return RVValue(self.exponent + other.exponent, self.unit * other.unit, self.prime)

    def __repr__(self) -> str:
        if self.is_zero:
            return "rv(0)"
        return f"rv(exp={self.exponent}, unit={self.unit})"


def _padic_residue(u: Fraction, p: int) -> int:
    """The image of a p-adic unit in the residue field, as an int in 1..p-1."""
    a, b = u.numerator, u.denominator
    if a % p == 0 or b % p == 0:
        raise ValueError(f"{u} is not a unit at p={p}")
    return (a * pow(b, -1, p)) % p


# ---------------------------------------------------------------------------
# Field descriptors and elements

# A generalized polynomial is a tuple of (exponent, coefficient) pairs with
# Fraction entries, sorted by exponent, all coefficients nonzero.
Poly = tuple[tuple[Fraction, Fraction], ...]

_ZERO = Q(0)
_ONE_POLY: Poly = ((_ZERO, Q(1)),)


@dataclass(frozen=True, slots=True)
class FieldDescriptor:
    kind: str
    prime: int | None = None
    # whether the backend is t-adic or puiseux; read by every operation, so
    # it is kept rather than recomputed
    is_series: bool = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.kind == P_ADIC:
            if self.prime is None or not _is_prime(self.prime):
                raise ValueError("p-adic backend needs a prime")
        elif self.prime is not None:
            raise ValueError(f"{self.kind} backend takes no prime")
        object.__setattr__(self, "is_series", self.kind in (T_ADIC, PUISEUX))

    def __hash__(self) -> int:
        # before Python 3.12 hash(None) follows None's address, so hashing
        # the prime as given would order sets of elements differently in
        # every process, even with a fixed PYTHONHASHSEED
        return hash((self.kind, self.prime or 0))

    @property
    def mixed_characteristic(self) -> bool:
        return self.kind == P_ADIC

    @property
    def dense_value_group(self) -> bool:
        return self.kind == PUISEUX

    def check_exponent(self, e: Fraction) -> Fraction:
        if self.kind == T_ADIC and e.denominator != 1:
            raise ValueError(f"t-adic exponents must be integers, got {e}")
        return e

    # -- element constructors ------------------------------------------------

    def zero(self) -> "FieldElement":
        if self.is_series:
            return FieldElement(self, (), _ONE_POLY)
        return FieldElement(self, rational=Q(0))

    def one(self) -> "FieldElement":
        return self.from_rational(Q(1))

    def from_rational(self, q) -> "FieldElement":
        q = _as_fraction(q)
        if self.is_series:
            num = () if q == 0 else ((Q(0), q),)
            return FieldElement(self, num, _ONE_POLY)
        return FieldElement(self, rational=q)

    def from_int(self, n: int) -> "FieldElement":
        return self.from_rational(Q(n))

    def monomial(self, exponent, coefficient=1) -> "FieldElement":
        """c * t^e for series backends, c * p^e for the p-adic backend."""
        e = self.check_exponent(_as_fraction(exponent))
        c = _as_fraction(coefficient)
        if self.is_series:
            num = () if c == 0 else ((e, c),)
            return FieldElement(self, num, _ONE_POLY)
        if e.denominator != 1:
            raise ValueError("p-adic exponents must be integers")
        return FieldElement(self, rational=c * Q(self.prime) ** int(e))

    def from_terms(self, num_terms, den_terms=((0, 1),)) -> "FieldElement":
        """Build a series element from (exponent, coefficient) pairs."""
        if not self.is_series:
            raise ValueError("from_terms applies to series backends only")
        num = _normalize_terms(self, num_terms)
        den = _normalize_terms(self, den_terms)
        if not den:
            raise ZeroDivisionError("zero denominator")
        num, den = _canonical_fraction(num, den)
        return FieldElement(self, num, den)


def _normalize_terms(field: FieldDescriptor, terms) -> Poly:
    acc: dict[Fraction, Fraction] = {}
    for e, c in terms:
        e = field.check_exponent(_as_fraction(e))
        c = _as_fraction(c)
        if c == 0:
            continue
        s = acc.get(e)
        acc[e] = c if s is None else s + c
    return tuple(sorted((e, c) for e, c in acc.items() if c != 0))


# -- polynomial helpers (sparse, Fraction exponents) ------------------------


def _padd(a: Poly, b: Poly) -> Poly:
    acc = dict(a)
    for e, c in b:
        s = acc.get(e)
        if s is None:  # terms are nonzero, so c is stored as it is
            acc[e] = c
        elif (s := s + c) == 0:
            del acc[e]
        else:
            acc[e] = s
    return tuple(sorted(acc.items()))


def _pneg(a: Poly) -> Poly:
    return tuple((e, -c) for e, c in a)


def _pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    acc: dict[Fraction, Fraction] = {}
    for e1, c1 in a:
        for e2, c2 in b:
            e = e1 + e2
            s = acc.get(e)
            if s is None:
                acc[e] = c1 * c2
            elif (s := s + c1 * c2) == 0:
                del acc[e]
            else:
                acc[e] = s
    return tuple(sorted(acc.items()))


def _pshift(a: Poly, d: Fraction) -> Poly:
    return tuple((e + d, c) for e, c in a)


def _pscale(a: Poly, c: Fraction) -> Poly:
    if c == 0:
        return ()
    return tuple((e, k * c) for e, k in a)


def _ord(a: Poly) -> Fraction:
    return a[0][0]


def _pdivmod_int(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Division with remainder for polynomials with nonnegative rational
    exponents, by the highest term.

    The exponents lie in some lattice (1/N)Z, and every step only adds,
    subtracts and compares them, so this is division in Q[t^(1/N)].
    """
    quo: dict[Fraction, Fraction] = {}
    rem = a
    db = b[-1][0]
    lb = b[-1][1]
    while rem and rem[-1][0] >= db:
        da, la = rem[-1]
        k = da - db
        c = la / lb
        quo[k] = c  # the leading exponent falls each step, so k is new
        rem = _padd(rem, _pneg(_pmul(((k, c),), b)))
    return tuple(sorted(quo.items())), rem


def _euclid_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Q by Euclid in Q[t^(1/N)]: _pgcd_int's fallback."""
    while b:
        _, r = _pdivmod_int(a, b)
        a, b = b, r
    return _pscale(a, 1 / a[-1][1])


_P = (1 << 61) - 1  # a Mersenne prime
_IMAGE_CAP = 4096  # the most terms a dense image mod _P may have
_RECONSTRUCTION_BOUND = math.isqrt(_P // 2)


def _image_gcd(a: Poly, b: Poly) -> tuple[list[int], int] | None:
    """The monic gcd, from degree 0 up, of the dense images in GF(_P)[u],
    u = t^(1/N), of a and b scaled to integer coefficients, and N.  None if
    an image would pass _IMAGE_CAP (it is never built) or _P divides a
    leading coefficient; else the gcd over Q keeps its degree (Gauss)."""
    n = math.lcm(*(e.denominator for e, _ in a + b))
    if max(a[-1][0], b[-1][0]) * n >= _IMAGE_CAP:
        return None
    images = [[0] * (int(p[-1][0] * n) + 1) for p in (a, b)]
    for p, image in zip((a, b), images):
        scale = math.lcm(*(c.denominator for _, c in p))
        for e, c in p:
            image[int(e * n)] = c.numerator * (scale // c.denominator) % _P
        if not image[-1]:
            return None
    a, b = images
    while len(b) > 1:  # Euclid over GF(_P)
        a, top, inv = a[:], len(b) - 1, pow(b[-1], -1, _P)
        for i in range(len(a) - 1, top - 1, -1):
            if q := a[i] * inv % _P:
                for j in range(top):
                    a[i - top + j] = (a[i - top + j] - q * b[j]) % _P
        a, b = b, a[:top]
        while len(b) > 1 and not b[-1]:
            b.pop()
    if b[0]:
        return [1], n
    inv = pow(a[-1], -1, _P)
    return [c * inv % _P for c in a], n


def _proved_coprime(a: Poly, b: Poly) -> bool:
    """True when a constant image gcd proves a and b coprime over Q."""
    image = _image_gcd(a, b)
    return image is not None and len(image[0]) == 1


def _reconstruct(c: int) -> Fraction | None:
    """r/s = c mod _P with |r|, s <= the bound, if any (Wang et al.)."""
    r0, r1, s0, s1 = _P, c, 0, 1
    while r1 > _RECONSTRUCTION_BOUND:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    return Q(r1, s1) if abs(s1) <= _RECONSTRUCTION_BOUND else None


def _pgcd_int(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """(g, a/g, b/g) for the monic gcd g over Q of nonzero polynomials with
    nonnegative rational exponents; g is _ONE_POLY when they are coprime.

    Modular first (Brown): a candidate reconstructed from the image gcd has
    at least g's degree, so it is g when it divides both; else Euclid."""
    image = _image_gcd(a, b)
    if image is not None:
        coefficients, n = image
        if len(coefficients) == 1:
            return _ONE_POLY, a, b
        g = tuple((Q(k, n), _reconstruct(c))
                  for k, c in enumerate(coefficients) if c)
        if all(c is not None for _, c in g):
            (qa, ra), (qb, rb) = _pdivmod_int(a, g), _pdivmod_int(b, g)
            if not ra and not rb:
                return g, qa, qb
    if (g := _euclid_gcd(a, b)) == _ONE_POLY:
        return _ONE_POLY, a, b
    return g, _pdivmod_int(a, g)[0], _pdivmod_int(b, g)[0]


def _canonical_fraction(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """Reduce to the canonical form: gcd-free, den of order 0 with constant
    coefficient 1.  Structural equality of canonical forms is field equality.
    """
    if not num:
        return (), _ONE_POLY
    if den is _ONE_POLY:
        return num, den
    # move the denominator's monomial content into the numerator
    d0 = _ord(den)
    if d0 != 0:
        den = _pshift(den, -d0)
        num = _pshift(num, -d0)
    if len(num) > 1 and len(den) > 1:
        n0 = _ord(num)
        g, quotient, den = _pgcd_int(_pshift(num, -n0), den)
        if g is not _ONE_POLY:
            num = _pshift(quotient, n0)
    lead = den[0][1]
    if lead != 1:
        den = _pscale(den, 1 / lead)
        num = _pscale(num, 1 / lead)
    # a one-term canonical denominator equals _ONE_POLY; share that object,
    # so that comparing two such denominators is an identity test
    return num, (_ONE_POLY if len(den) == 1 else den)


class FieldElement:
    """An exact element of a valued field, kept in canonical reduced form.

    Elements are never changed after construction, so the hash is computed
    on first use and kept.  A one-term denominator is always the shared
    _ONE_POLY object.
    """

    __slots__ = ("field", "num", "den", "rational", "_hash")

    def __init__(self, field: FieldDescriptor, num: Poly = None, den: Poly = None,
                 rational: Fraction = None):
        self.field = field
        self._hash = None
        if field.is_series:
            if rational is not None:
                raise ValueError("series element built from a rational")
            self.num = num
            self.den = den
            self.rational = None
        else:
            self.num = None
            self.den = None
            self.rational = rational

    # -- basics --------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        if self.field.is_series:
            return not self.num
        return self.rational == 0

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldElement):
            return NotImplemented
        if other.field is not self.field and self.field != other.field:
            return False
        if self.field.is_series:
            return self.num == other.num and (
                self.den is other.den or self.den == other.den)
        return self.rational == other.rational

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            if self.field.is_series:
                h = hash((self.field, self.num, self.den))
            else:
                h = hash((self.field, self.rational))
            self._hash = h
        return h

    def _check(self, other: "FieldElement"):
        if not isinstance(other, FieldElement) or (
                other.field is not self.field and self.field != other.field):
            raise BackendMismatchError(
                f"mixed backends: {self.field} vs {getattr(other, 'field', other)}")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "FieldElement") -> "FieldElement":
        """The canonical sum.

        Over one denominator the numerators add and the sum is reduced.
        When exactly one operand is a Laurent polynomial P (unit
        denominator) and the other is a canonical N/D, the sum is
        (N + P*D)/D as it stands: gcd(N + P*D, D) = gcd(N, D) = 1, so no
        gcd runs, and the sum is never zero, since N/D with D != 1 is not
        a Laurent polynomial.  Two different non-unit denominators are
        cross-multiplied and the result reduced.
        """
        self._check(other)
        f = self.field
        if not f.is_series:
            return FieldElement(f, rational=self.rational + other.rational)
        if self.den is other.den or self.den == other.den:
            num, den = _canonical_fraction(_padd(self.num, other.num), self.den)
            return FieldElement(f, num, den)
        if self.den is _ONE_POLY:
            return FieldElement(f, _padd(_pmul(self.num, other.den), other.num),
                                other.den)
        if other.den is _ONE_POLY:
            return FieldElement(f, _padd(self.num, _pmul(other.num, self.den)),
                                self.den)
        num = _padd(_pmul(self.num, other.den), _pmul(other.num, self.den))
        num, den = _canonical_fraction(num, _pmul(self.den, other.den))
        return FieldElement(f, num, den)

    def __neg__(self) -> "FieldElement":
        f = self.field
        if not f.is_series:
            return FieldElement(f, rational=-self.rational)
        return FieldElement(f, _pneg(self.num), self.den)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return self + (-other)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        f = self.field
        if not f.is_series:
            return FieldElement(f, rational=self.rational * other.rational)
        num, den = _canonical_fraction(_pmul(self.num, other.num),
                                       _pmul(self.den, other.den))
        return FieldElement(f, num, den)

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError(f"division by zero in the {self.field.kind} field")
        f = self.field
        if not f.is_series:
            return FieldElement(f, rational=self.rational / other.rational)
        num, den = _canonical_fraction(_pmul(self.num, other.den),
                                       _pmul(self.den, other.num))
        return FieldElement(f, num, den)

    def scale(self, q) -> "FieldElement":
        """Multiply by an exact rational.

        Every FieldElement is canonical: each constructor and each operation
        builds a reduced form.  For a canonical N/D and a rational q != 0,
        gcd(q*N, D) = gcd(N, D) = 1 and D keeps order 0 and constant term 1,
        so q*N/D is canonical as it stands and needs no gcd.
        """
        q = _as_fraction(q)
        f = self.field
        if not f.is_series:
            return FieldElement(f, rational=self.rational * q)
        if q == 0:
            return f.zero()
        return FieldElement(f, _pscale(self.num, q), self.den)

    # -- valuation data --------------------------------------------------------

    def norm(self) -> NormValue:
        if self.is_zero:
            return NormValue.zero()
        if self.field.is_series:
            return NormValue(_ord(self.num))  # den has order 0
        return NormValue(Q(_padic_lead(self.rational, self.field.prime)[0]))

    def rv(self) -> RVValue:
        if self.is_zero:
            return RVValue.zero()
        f = self.field
        if f.is_series:
            # den is canonical with constant coefficient 1
            return RVValue(_ord(self.num), self.num[0][1])
        v, digit = _padic_lead(self.rational, f.prime)
        return RVValue(Q(v), Q(digit), f.prime)

    def norm_of_difference(self, other: "FieldElement") -> NormValue:
        """|self - other|, with a scan that avoids building the difference:
        the first term where the numerators differ over one denominator,
        _cross_difference_term's across denominators."""
        self._check(other)
        f = self.field
        if not f.is_series:
            d = self.rational - other.rational
            return NormValue(Q(_padic_lead(d, f.prime)[0])) if d \
                else NormValue.zero()
        if self.den is other.den or self.den == other.den:
            got = _first_diff_term(self.num, other.num)
        else:
            got = _cross_difference_term(self, other)
        return NormValue.zero() if got is None else NormValue(got[0])

    def lead_of_difference(self, other: "FieldElement") -> tuple:
        """The leading term of self - other as (exponent, residue).

        The exponent is the raw valuation, math.inf for a zero difference.
        The residue is the leading coefficient, reduced to its digit mod p
        on the p-adic backend, so two differences with one exponent e have
        the same residue iff they differ by an element of norm below
        theta(e).  Integral values come as ints, which compare and hash
        faster than Fractions.  Same-denominator operands take the
        norm_of_difference term scan.  Operands with different
        denominators take _cross_difference_term: the two numerators'
        leading terms decide it unless they are equal, and only then is
        the cross-multiplied numerator built.  No gcd or canonical form is
        computed.
        """
        self._check(other)
        f = self.field
        if not f.is_series:
            d = self.rational - other.rational
            return _padic_lead(d, f.prime) if d else (math.inf, None)
        if self.den is other.den or self.den == other.den:
            got = _first_diff_term(self.num, other.num)
        else:
            got = _cross_difference_term(self, other)
        if got is None:
            return math.inf, None
        e, ca, cb = got
        c = ca - cb
        return (e.numerator if e.denominator == 1 else e,
                c.numerator if c.denominator == 1 else c)

    # -- text form -------------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form used inside JSON payloads."""
        if not self.field.is_series:
            r = self.rational
            return f"{r.numerator}/{r.denominator}"
        if self.is_zero:
            return "(0)"
        return f"({_terms_text(self.num)})/({_terms_text(self.den)})"

    def __repr__(self) -> str:
        return f"<{self.field.kind} {self.to_text()}>"

    def sort_key(self):
        """Deterministic total order: by norm, then termwise on the form."""
        n = self.norm()
        head = (0, Q(0)) if n.is_zero else (1, -n.exponent)
        if self.field.is_series:
            return head + (self.num, self.den)
        return head + (self.rational,)


def _cross_numerator(a: FieldElement, b: FieldElement) -> Poly:
    """a.num*b.den - b.num*a.den, the unreduced numerator of a - b over
    a.den*b.den; it leads as a - b does (see _cross_difference_term) and is
    empty iff a == b."""
    return _padd(_pmul(a.num, b.den), _pneg(_pmul(b.num, a.den)))


def _cross_difference_term(a: FieldElement, b: FieldElement):
    """The first term of a - b for operands with different denominators,
    as (exponent, ca, cb) with coefficient ca - cb; None if a == b.

    a - b leads as its cross numerator a.num*b.den - b.num*a.den does,
    since the product of canonical denominators has order 0 and constant
    term 1.  For the same reason the two products lead with a.num[0] and
    b.num[0], so unless those two terms are equal they decide the term:
    a zero operand gives the other's term, a lower order wins, and at one
    order the coefficients differ.  Only equal leading terms, which
    cancel, need the cross numerator.
    """
    got = _first_diff_term(a.num[:1], b.num[:1])
    if got is not None:
        return got
    num = _cross_numerator(a, b)
    return (num[0][0], num[0][1], _ZERO) if num else None


def _first_diff_term(a: Poly, b: Poly):
    """The lowest term where a and b differ, as (exponent, coefficient in
    a, coefficient in b) with 0 for a missing term; None if a == b."""
    for (ea, ca), (eb, cb) in zip(a, b):
        if ea < eb:
            return ea, ca, _ZERO
        if eb < ea:
            return eb, _ZERO, cb
        if ca != cb:
            return ea, ca, cb
    k = min(len(a), len(b))
    if len(a) > k:
        return a[k][0], a[k][1], _ZERO
    if len(b) > k:
        return b[k][0], _ZERO, b[k][1]
    return None


def _terms_text(p: Poly) -> str:
    parts = []
    for e, c in p:
        cs = str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
        es = str(e.numerator) if e.denominator == 1 else f"({e.numerator}/{e.denominator})"
        parts.append(f"{cs}*t^{es}")
    return " + ".join(parts)


def _padic_lead(q: Fraction, p: int) -> tuple[int, int]:
    """The valuation of a nonzero rational and the digit mod p of its unit."""
    n, d = q.numerator, q.denominator
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v, n * pow(d, -1, p) % p


# ---------------------------------------------------------------------------
# Points and averages


@dataclass(frozen=True, slots=True)
class Point:
    """A tuple of field elements sharing one backend; norm is the max norm."""

    coords: tuple[FieldElement, ...]

    def __post_init__(self):
        if len(self.coords) < 1:
            raise ValueError("points need at least one coordinate")
        f = self.coords[0].field
        for c in self.coords[1:]:
            if c.field != f:
                raise BackendMismatchError("point coordinates mix backends")

    @property
    def field(self) -> FieldDescriptor:
        return self.coords[0].field

    @property
    def dimension(self) -> int:
        return len(self.coords)

    def norm(self) -> NormValue:
        return max_norms(c.norm() for c in self.coords)

    def norm_of_difference(self, other: "Point") -> NormValue:
        if len(other.coords) != len(self.coords):
            raise ValueError("dimension mismatch")
        return max_norms(a.norm_of_difference(b)
                         for a, b in zip(self.coords, other.coords))

    def sort_key(self):
        return tuple(c.sort_key() for c in self.coords)

    def to_text(self) -> list[str]:
        return [c.to_text() for c in self.coords]


def integer_average(values: Sequence[FieldElement]) -> FieldElement:
    """Sum divided by the count.

    Warns when the count is not a unit in the backend, which happens only
    p-adically; the residue-characteristic-zero norm bound fails there.
    """
    values = list(values)
    if not values:
        raise ValueError("average of an empty sequence")
    average = sum_over_count(values)
    warn_count(values[0].field, len(values))
    return average


def sum_over_count(values: Sequence[FieldElement]) -> FieldElement:
    """The sum of a nonempty sequence scaled by 1/len, with no warning.

    When every value has one series denominator D, the numerators are
    added in one dict (one lookup per term) and the sum over D is reduced
    once, not once per addition.  Any other mix of denominators is folded
    with `+`.
    """
    first = values[0]
    den = first.den
    if den is None or len(values) == 1 or any(
            v.den is not den and v.den != den for v in values):
        total = first
        for v in values[1:]:
            total = total + v
        return total.scale(Q(1, len(values)))
    coefficients: dict[Fraction, list[Fraction]] = {}
    for v in values:
        first._check(v)
        for e, c in v.num:
            coefficients.setdefault(e, []).append(c)
    num = []
    for e, cs in sorted(coefficients.items(), key=itemgetter(0)):
        if len(cs) == 1:
            num.append((e, cs[0]))
        elif s := sum(cs[1:], cs[0]):
            num.append((e, s))
    num, den = _canonical_fraction(tuple(num), den)
    return FieldElement(first.field, num, den).scale(Q(1, len(values)))


def warn_count(field: FieldDescriptor, k: int) -> None:
    """Warn that averaging k values inflates norms when p divides k."""
    if field.mixed_characteristic and k % field.prime == 0:
        warnings.warn(
            f"averaging {k} values with |{k}|_{field.prime} < 1",
            PDivisibleCountWarning, stacklevel=3)
