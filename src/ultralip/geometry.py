"""Balls, annuli, one-dimensional cells, and exact distance cuts.

A one-dimensional cell is a center together with a finite union of
rv-boxes; membership of x is decided from rv(x - center).  Boxes are
either a single rv value (a fiber, geometrically an open ball) or an
annulus of norms with endpoint cuts and an optional unit constraint.
This is the largest class for which membership and distance infima are
exactly decidable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .field import (
    BackendMismatchError,
    CutValue,
    FieldDescriptor,
    FieldElement,
    NormValue,
    Q,
    RVValue,
    _padic_residue,
)


class GeometryError(ValueError):
    pass


class RecenterError(GeometryError):
    """A box translation left the exactly representable class."""


# ---------------------------------------------------------------------------
# Endpoint cuts as annulus bounds
#
# As bounds the attained flag means endpoint inclusion: an attained lower
# cut allows |v| = r, a strict one does not, and symmetrically above.


def satisfies_lower(v: NormValue, cut: CutValue) -> bool:
    if cut.attained:
        return v >= cut.norm
    return v > cut.norm


def satisfies_upper(v: NormValue, cut: CutValue) -> bool:
    if cut.attained:
        return v <= cut.norm
    return v < cut.norm


def realizable_exponent_between(lower: CutValue, upper: CutValue,
                                field: FieldDescriptor) -> Fraction | None:
    """An exponent e with theta(e) inside both bounds, or None.

    Both cuts are inclusion bounds: an attained endpoint is included.
    Realizability depends on the backend: only puiseux has a dense value
    group; t-adic and p-adic exponents are integers.
    """
    if upper.norm.is_zero:
        return None
    qu = upper.norm.exponent  # theta(e) <= upper  <=>  e >= qu (with flag)
    ql = None if lower.norm.is_zero else lower.norm.exponent
    if not field.dense_value_group:
        e_min = math.ceil(qu) if upper.attained else math.floor(qu) + 1
        if ql is None:
            return Q(e_min)
        e_max = math.floor(ql) if lower.attained else math.ceil(ql) - 1
        if e_min > e_max:
            return None
        return Q(e_min)
    # dense exponents
    if ql is None:
        return qu if upper.attained else qu + 1
    if qu > ql:
        return None
    if qu == ql:
        return qu if (upper.attained and lower.attained) else None
    if upper.attained:
        return qu
    if lower.attained:
        return ql
    return Q(qu + ql, 2)


def _norms_meet(field: FieldDescriptor, lowers, uppers) -> Fraction | None:
    """An exponent whose norm satisfies every lower and every upper bound.

    For lower bounds the cut order is the inclusion order, so the largest
    cut is the strictest.  For upper bounds it is not: at one norm r the
    attained cut (|v| <= r) sorts below the unattained one (|v| < r), so
    the strictest upper bound is the least norm, unattained on a tie.
    """
    upper = min(uppers, key=lambda c: (c.norm, c.attained))
    return realizable_exponent_between(max(lowers), upper, field)


# ---------------------------------------------------------------------------
# Boxes


@dataclass(frozen=True, slots=True)
class ExactBox:
    """A single rv value; ExactBox(rv(0)) denotes the center point itself."""

    rv: RVValue


@dataclass(frozen=True, slots=True)
class AnnulusBox:
    """All rv values with norm between two endpoint cuts.

    An optional unit constraint restricts to leading units equal to the
    given nonzero rational; the zero rv belongs to the box only when the
    lower endpoint attains the zero norm and no unit constraint is set.
    """

    lower: CutValue
    upper: CutValue
    unit: Fraction | None = None

    def __post_init__(self):
        if self.upper < self.lower:
            raise GeometryError(f"annulus bounds out of order: {self}")
        if self.upper.norm.is_zero:
            raise GeometryError("annulus upper endpoint at the zero norm")
        if self.unit is not None and self.unit == 0:
            raise GeometryError("annulus unit constraint must be nonzero")

    @property
    def contains_zero(self) -> bool:
        return self.lower.norm.is_zero and self.lower.attained and self.unit is None


RVBox = ExactBox | AnnulusBox


def _units_equal(a: Fraction, b: Fraction, field: FieldDescriptor) -> bool:
    if field.mixed_characteristic:
        return _padic_residue(a, field.prime) == _padic_residue(b, field.prime)
    return a == b


def box_contains_rv(box: RVBox, v: RVValue, field: FieldDescriptor) -> bool:
    if isinstance(box, ExactBox):
        return box.rv == v
    if v.is_zero:
        return box.contains_zero
    n = v.norm
    if not (satisfies_lower(n, box.lower) and satisfies_upper(n, box.upper)):
        return False
    return box.unit is None or _units_equal(box.unit, v.unit, field)


def box_is_empty(box: RVBox, field: FieldDescriptor) -> bool:
    if isinstance(box, ExactBox) or box.contains_zero:
        return False
    return _norms_meet(field, (box.lower,), (box.upper,)) is None


def box_representative_rv(box: RVBox, field: FieldDescriptor) -> RVValue:
    """Some rv value inside the box (the box must be nonempty)."""
    if isinstance(box, ExactBox):
        return box.rv
    e = realizable_exponent_between(box.lower, box.upper, field)
    if e is None:
        if box.contains_zero:
            return RVValue.zero()
        raise GeometryError(f"empty box {box}")
    unit = box.unit if box.unit is not None else Q(1)
    return RVValue(e, unit, field.prime)


def _box_min_cut(box: RVBox) -> CutValue:
    """The infimum cut of norms of members (symbolic endpoint read-off)."""
    if isinstance(box, ExactBox):
        return CutValue(box.rv.norm, True)
    return box.lower


def _box_unit_set_at(box: RVBox, n: NormValue, field: FieldDescriptor):
    """Unit constraints at a given norm: None = all units, () = none, (u,) = one."""
    if isinstance(box, ExactBox):
        if not box.rv.is_zero and box.rv.norm == n:
            return (box.rv.unit,)
        return ()
    if satisfies_lower(n, box.lower) and satisfies_upper(n, box.upper):
        return None if box.unit is None else (box.unit,)
    return ()


def boxes_disjoint(b1: RVBox, b2: RVBox, field: FieldDescriptor) -> bool:
    """Whether two boxes are disjoint as subsets of RV."""
    zero = RVValue.zero()
    if box_contains_rv(b1, zero, field) and box_contains_rv(b2, zero, field):
        return False
    return not _common_rv_exists(b1, b2, field)


# ---------------------------------------------------------------------------
# One-dimensional cells


@dataclass(frozen=True, slots=True)
class Cell1D:
    center: FieldElement
    boxes: tuple[RVBox, ...]

    def __post_init__(self):
        if not self.boxes:
            raise GeometryError("cell needs at least one box")
        field = self.center.field
        for b in self.boxes:
            if box_is_empty(b, field):
                raise GeometryError(f"box {b} is empty over {field.kind}")
        for i, a in enumerate(self.boxes):
            for b in self.boxes[i + 1:]:
                if not boxes_disjoint(a, b, field):
                    raise GeometryError(f"overlapping boxes {a} and {b}")

    @property
    def field(self) -> FieldDescriptor:
        return self.center.field

    def contains(self, x: FieldElement) -> bool:
        if x.field != self.field:
            raise BackendMismatchError("cell and point backends differ")
        v = (x - self.center).rv()
        return any(box_contains_rv(b, v, self.field) for b in self.boxes)


def rho(cell: Cell1D) -> CutValue:
    """The infimum cut of |x - center| over the cell (endpoint read-off)."""
    return min(_box_min_cut(b) for b in cell.boxes)


def cell_member(cell: Cell1D, box_index: int = 0) -> FieldElement:
    """A concrete member of the cell from the given box."""
    field = cell.field
    rv0 = box_representative_rv(cell.boxes[box_index], field)
    if rv0.is_zero:
        return cell.center
    return cell.center + field.monomial(rv0.exponent, rv0.unit)


# ---------------------------------------------------------------------------
# Distance cuts


def _dist_to_box(w: FieldElement, box: RVBox, field: FieldDescriptor) -> CutValue:
    """Infimum cut of |w - v| over rv-fiber members v of the box."""
    vw = w.rv()
    if box_contains_rv(box, vw, field):
        return CutValue(NormValue.zero(), True)
    n = w.norm()
    if isinstance(box, ExactBox):
        if box.rv.is_zero:
            return CutValue(n, True)
        fiber_norm = box.rv.norm
        if n == fiber_norm:
            return CutValue(n, True)
        return CutValue(max(n, fiber_norm), True)
    if w.is_zero:
        return box.lower  # norms of members, read off the lower endpoint
    if not satisfies_upper(n, box.upper):
        return CutValue(n, True)  # every member is smaller in norm
    if satisfies_lower(n, box.lower):
        return CutValue(n, True)  # same norm, unit mismatch
    return box.lower  # w below the norm range


def dist_to_cell(x: FieldElement, cell: Cell1D) -> CutValue:
    w = x - cell.center
    return min(_dist_to_box(w, b, cell.field) for b in cell.boxes)


# ---------------------------------------------------------------------------
# Cell intersection (exactly decidable)


def _common_rv_exists(b1: RVBox, b2: RVBox, field: FieldDescriptor,
                      strictly_above: NormValue | None = None) -> bool:
    """Whether some nonzero rv lies in both boxes (optionally with norm > bound)."""
    if isinstance(b2, ExactBox):
        b1, b2 = b2, b1
    if isinstance(b1, ExactBox):
        v = b1.rv
        return not v.is_zero \
            and (strictly_above is None or v.norm > strictly_above) \
            and box_contains_rv(b2, v, field)
    # units before norms: a constraint that is no p-adic unit raises here,
    # and the generator's retries, hence its output, follow which test raises
    if b1.unit is not None and b2.unit is not None \
            and not _units_equal(b1.unit, b2.unit, field):
        return False
    lowers = [b1.lower, b2.lower]
    if strictly_above is not None:
        lowers.append(CutValue(strictly_above, False))  # exclusive bound
    return _norms_meet(field, lowers, (b1.upper, b2.upper)) is not None


def _shifted_unit_pair_exists(u1_set, u2_set, lam: Fraction,
                              field: FieldDescriptor) -> bool:
    """Whether units a in U1, b in U2 exist with a - lam = b and a != lam."""
    def ok(a: Fraction) -> bool:
        if field.mixed_characteristic:
            p = field.prime
            if (_padic_residue(a, p) - _padic_residue(lam, p)) % p == 0:
                return False
            b = Fraction((_padic_residue(a, p) - _padic_residue(lam, p)) % p)
        else:
            if a == lam:
                return False
            b = a - lam
        if u2_set is None:
            return True
        return _units_equal(b, u2_set[0], field)

    if u1_set == () or u2_set == ():
        return False
    if u1_set is not None:
        return ok(u1_set[0])
    # u1 unconstrained: solve from u2 or pick freely
    if u2_set is not None:
        b = u2_set[0]
        if field.mixed_characteristic:
            p = field.prime
            a = (_padic_residue(b, p) + _padic_residue(lam, p)) % p
            return a != 0
        a = b + lam
        return a != 0
    if field.mixed_characteristic:
        return field.prime > 2  # need a residue distinct from lam
    return True


def cells_intersect(c1: Cell1D, c2: Cell1D) -> bool:
    """Exact intersection test for two cells over the same backend."""
    if c1.field != c2.field:
        raise BackendMismatchError("cells from different backends")
    field = c1.field
    d = c2.center - c1.center
    if d.is_zero:
        return any(not boxes_disjoint(a, b, field)
                   for a in c1.boxes for b in c2.boxes)
    big = d.norm()
    rv_d = d.rv()
    rv_neg_d = (-d).rv()
    lam = d.rv().unit
    below_d = CutValue(big, False)  # exclusive upper bound: norms < |d|
    for b1 in c1.boxes:
        for b2 in c2.boxes:
            # |w| < |d|: then rv(w - d) = rv(-d)
            if box_contains_rv(b2, rv_neg_d, field) \
                    and _box_allows_norm_below(b1, below_d, field):
                return True
            # |w| > |d|: then rv(w - d) = rv(w)
            if _common_rv_exists(b1, b2, field, strictly_above=big):
                return True
            # |w| = |d|, rv(w) = rv(d): w - d is free with norm < |d|
            if box_contains_rv(b1, rv_d, field) \
                    and _box_allows_norm_below(b2, below_d, field):
                return True
            # |w| = |d|, rv(w) != rv(d): leading units subtract
            u1 = _box_unit_set_at(b1, big, field)
            u2 = _box_unit_set_at(b2, big, field)
            if _shifted_unit_pair_exists(u1, u2, lam, field):
                return True
    return False


def first_intersecting_pair(cells) -> tuple[Cell1D, Cell1D] | None:
    """The first two cells of a sequence, in scan order, that intersect."""
    for i, a in enumerate(cells):
        for b in cells[i + 1:]:
            if cells_intersect(a, b):
                return a, b
    return None


def _box_allows_norm_below(box: RVBox, bound: CutValue,
                           field: FieldDescriptor) -> bool:
    """Whether the box has a member with norm strictly below |d| (0 included)."""
    if isinstance(box, ExactBox):
        return box.rv.is_zero or satisfies_upper(box.rv.norm, bound)
    return box.contains_zero \
        or _norms_meet(field, (box.lower,), (box.upper, bound)) is not None


# ---------------------------------------------------------------------------
# Box translation (for skeleton re-centering)


def translate_box(box: RVBox, d: FieldElement) -> tuple[RVBox, ...]:
    """The set {v + d : rv(v) in box} as rv-boxes relative to the new origin.

    Raises RecenterError when the translated set is not a union of boxes,
    which happens exactly when |d| reaches into the box's norm range.
    """
    field = d.field
    if d.is_zero:
        return (box,)
    nd = d.norm()
    if isinstance(box, ExactBox):
        if box.rv.is_zero:
            return (ExactBox(d.rv()),)
        fiber_norm = box.rv.norm
        if nd < fiber_norm:
            return (box,)
        rep = field.monomial(box.rv.exponent, box.rv.unit)
        shifted = rep + d
        if shifted.is_zero or shifted.norm() < fiber_norm:
            # the shifted ball swallows the origin: |w| < fiber_norm
            return (
                ExactBox(RVValue.zero()),
                AnnulusBox(CutValue(NormValue.zero(), False),
                           CutValue(fiber_norm, False)),
            )
        if shifted.norm() == fiber_norm:
            return (ExactBox(shifted.rv()),)
        raise RecenterError(f"translation by {d!r} breaks fiber {box}")
    if CutValue(nd, True) < box.lower:
        return (box,)
    if box.unit is not None and box.lower.attained and nd == box.lower.norm:
        # split off the boundary fiber, which translates like an exact box,
        # and keep the rest of the annulus untouched
        boundary = ExactBox(RVValue(nd.exponent, box.unit, field.prime))
        rest_lower = CutValue(box.lower.norm, False)
        parts = list(translate_box(boundary, d))
        if not (box.upper < rest_lower):
            rest = AnnulusBox(rest_lower, box.upper, box.unit)
            if not box_is_empty(rest, field):
                parts.append(rest)
        return tuple(parts)
    raise RecenterError(f"translation by {d!r} reaches into annulus {box}")


def recenter_cell(cell: Cell1D, new_center: FieldElement) -> Cell1D:
    """Present the same member set relative to a new center."""
    d = cell.center - new_center
    boxes: list[RVBox] = []
    for b in cell.boxes:
        boxes.extend(translate_box(b, d))
    return Cell1D(new_center, tuple(boxes))


# ---------------------------------------------------------------------------
# Balls


@dataclass(frozen=True, slots=True)
class Ball:
    center: FieldElement
    radius: NormValue
    boundary: str = "open"

    def __post_init__(self):
        if self.boundary not in ("open", "closed"):
            raise GeometryError(f"bad boundary {self.boundary!r}")
        if self.boundary == "open" and self.radius.is_zero:
            raise GeometryError("open ball with zero radius is empty")

    @property
    def field(self) -> FieldDescriptor:
        return self.center.field

    def contains(self, x: FieldElement) -> bool:
        d = x.norm_of_difference(self.center)
        if self.boundary == "open":
            return d < self.radius
        return d <= self.radius
