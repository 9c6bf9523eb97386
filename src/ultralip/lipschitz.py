"""Lipschitz-constant measurement, risometry checks, and the reduction
and rescaling transforms that trade a Lipschitz constant for the exact
leading-term condition rv(f(x + y e_i) - f(x)) = rv(y).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .balltree import BallTree
from .field import (
    BackendMismatchError,
    FieldDescriptor,
    FieldElement,
    NormValue,
    Point,
)
from .geometry import Cell1D, cells_intersect

NORM_ONE = NormValue.theta(0)


class NotLipschitzError(ValueError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class RisometryError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class FiniteFunction:
    """A function on a finite set of points, all over one backend."""

    n: int
    entries: tuple[tuple[Point, FieldElement], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("domain dimension must be at least 1")
        seen = set()
        field = None
        for p, v in self.entries:
            if p.dimension != self.n:
                raise ValueError(f"point {p} has dimension {p.dimension}, not {self.n}")
            if field is None:
                field = p.field
            if p.field != field or v.field != field:
                raise BackendMismatchError("entries mix backends")
            if p in seen:
                raise ValueError(f"duplicate domain point {p}")
            seen.add(p)

    @property
    def field(self) -> FieldDescriptor:
        return self.entries[0][0].field

    def domain(self) -> tuple[Point, ...]:
        return tuple(p for p, _ in self.entries)

    def value_at(self, p: Point) -> FieldElement:
        for q, v in self.entries:
            if q == p:
                return v
        raise KeyError(f"{p} not in the domain")

    def map_values(self, fn) -> "FiniteFunction":
        return FiniteFunction(self.n, tuple((p, fn(p, v)) for p, v in self.entries))


def finite_function_1d(field: FieldDescriptor, pairs) -> FiniteFunction:
    """Convenience constructor from (element, element) pairs."""
    return FiniteFunction(1, tuple((Point((x,)), y) for x, y in pairs))


@dataclass(frozen=True, slots=True)
class PiecewiseAffineMap1D:
    """Affine pieces slope*x + intercept over pairwise disjoint cells."""

    pieces: tuple[tuple[Cell1D, FieldElement, FieldElement], ...]

    def __post_init__(self):
        cells = [c for c, _, _ in self.pieces]
        for i, a in enumerate(cells):
            for b in cells[i + 1:]:
                if cells_intersect(a, b):
                    raise ValueError(f"piece cells overlap: {a} and {b}")

    def cells(self) -> tuple[Cell1D, ...]:
        return tuple(c for c, _, _ in self.pieces)

    def evaluate(self, x: FieldElement) -> FieldElement:
        for cell, a, b in self.pieces:
            if cell.contains(x):
                return a * x + b
        raise KeyError(f"{x!r} lies in no piece")

    def slopes_in_one_plus_m(self) -> bool:
        one = self.pieces[0][1].field.one()
        return all((a - one).norm() < NORM_ONE for _, a, _ in self.pieces)


@dataclass(frozen=True, slots=True)
class LipschitzReport:
    constant: NormValue
    witness: tuple[Point, Point] | None
    violations: tuple[tuple[Point, Point], ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def _pair_ratios(f: FiniteFunction):
    entries = f.entries
    for i in range(len(entries)):
        p, fp = entries[i]
        for j in range(i + 1, len(entries)):
            q, fq = entries[j]
            dv = fp.norm_of_difference(fq)
            dx = p.norm_of_difference(q)
            yield p, q, dv / dx


def lipschitz_constant(f: FiniteFunction) -> LipschitzReport:
    """The exact supremum of norm(f(x)-f(y))/norm(x-y), with a witness.

    Constant maps (and singletons) report the zero norm, which lies below
    every positive bound.
    """
    best = NormValue.zero()
    witness = None
    for p, q, ratio in _pair_ratios(f):
        if witness is None or ratio > best:
            best = ratio
            witness = (p, q)
    if witness is not None and best.is_zero:
        witness = None
    return LipschitzReport(best, witness)


def is_lipschitz(f: FiniteFunction, eps: NormValue) -> LipschitzReport:
    """Check every pair ratio against the bound; list all violations."""
    if eps.is_zero:
        raise ValueError("the Lipschitz bound must be a positive norm")
    best = NormValue.zero()
    witness = None
    violations = []
    for p, q, ratio in _pair_ratios(f):
        if witness is None or ratio > best:
            best, witness = ratio, (p, q)
        if ratio > eps:
            violations.append((p, q))
    return LipschitzReport(best, witness, tuple(violations))


def require_one_lipschitz(f: FiniteFunction, what: str = "input") -> None:
    """Raise NotLipschitzError unless f is 1-Lipschitz.

    The ball tree decides; only a failing function is rescanned pair by
    pair, so the witness is the first violating pair of is_lipschitz.
    """
    tree = BallTree(f.domain())
    if tree.lipschitz_ok([v for _, v in f.entries], NORM_ONE.exponent):
        return
    report = is_lipschitz(f, NORM_ONE)
    raise NotLipschitzError(
        f"{what} is not 1-Lipschitz", witness=report.violations[0])


def risometry_check(f, axes: Iterable[int] | None = None):
    """Exact risometry test.

    For a finite function the check runs over all pairs differing in
    exactly one coordinate from the axis set; for affine pieces it checks
    slope - 1 has norm below one.  Returns (ok, counterexample).
    """
    if isinstance(f, PiecewiseAffineMap1D):
        one = f.pieces[0][1].field.one()
        for cell, a, b in f.pieces:
            if not (a - one).norm() < NORM_ONE:
                return False, (cell, a)
        return True, None
    axis_set = set(axes) if axes is not None else set(range(1, f.n + 1))
    entries = f.entries
    for i in range(len(entries)):
        p, fp = entries[i]
        for j in range(i + 1, len(entries)):
            q, fq = entries[j]
            diff_axes = [k for k in range(f.n)
                         if p.coords[k] != q.coords[k]]
            if len(diff_axes) != 1 or diff_axes[0] + 1 not in axis_set:
                continue
            y = q.coords[diff_axes[0]] - p.coords[diff_axes[0]]
            if (fq - fp).rv() != y.rv():
                return False, (p, q)
    return True, None


def reduce_to_risometry(f: FiniteFunction, eps: NormValue,
                        eps_elt: FieldElement,
                        axes: Sequence[int]) -> FiniteFunction:
    """g(x) = sum_{i in axes} x_i + (1/eps_elt) f(x).

    Divides the oscillation of f below the coordinate increments, so g is
    a 1-Lipschitz risometry along the chosen axes whenever f is
    1-Lipschitz and |eps_elt| = eps > 1.
    """
    if not eps > NORM_ONE:
        raise ValueError(f"eps must exceed one, got {eps!r}")
    if eps_elt.norm() != eps:
        raise ValueError(f"|eps_elt| = {eps_elt.norm()!r} does not match {eps!r}")
    require_one_lipschitz(f)
    inv = f.field.one() / eps_elt

    def transform(p: Point, v: FieldElement) -> FieldElement:
        acc = inv * v
        for i in axes:
            acc = acc + p.coords[i - 1]
        return acc

    return f.map_values(transform)


def restore_from_risometry(g: FiniteFunction, eps_elt: FieldElement,
                           axes: Sequence[int]) -> FiniteFunction:
    """F(x) = eps_elt * (g(x) - sum_{i in axes} x_i); inverse of the reduction."""

    def transform(p: Point, v: FieldElement) -> FieldElement:
        acc = v
        for i in axes:
            acc = acc - p.coords[i - 1]
        return eps_elt * acc

    return g.map_values(transform)


def restore_value(gx: FieldElement, x: Point, eps_elt: FieldElement,
                  axes: Sequence[int]) -> FieldElement:
    """Pointwise form of the restore transform, for composed evaluators."""
    acc = gx
    for i in axes:
        acc = acc - x.coords[i - 1]
    return eps_elt * acc


def rescale(f: FiniteFunction, eps_elt: FieldElement) -> FiniteFunction:
    """f1(x) = eps_elt * f(x / eps_elt): same Lipschitz constant, same
    risometry axes, domain dilated by eps_elt."""
    if eps_elt.is_zero:
        raise ZeroDivisionError("rescaling by zero")
    entries = tuple(
        (Point(tuple(eps_elt * c for c in p.coords)), eps_elt * v)
        for p, v in f.entries)
    return FiniteFunction(f.n, entries)
