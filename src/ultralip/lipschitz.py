"""Lipschitz-constant measurement, risometry checks, and the reduction
that trades a Lipschitz constant for the exact leading-term condition
rv(f(x + y e_i) - f(x)) = rv(y), with its pointwise inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .balltree import BallTree
from .field import (
    NORM_ONE,
    BackendMismatchError,
    FieldDescriptor,
    FieldElement,
    NormValue,
    Point,
)


class NotLipschitzError(ValueError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


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

    def map_values(self, fn) -> "FiniteFunction":
        return FiniteFunction(self.n, tuple((p, fn(p, v)) for p, v in self.entries))


def finite_function_1d(field: FieldDescriptor, pairs) -> FiniteFunction:
    """Convenience constructor from (element, element) pairs."""
    return FiniteFunction(1, tuple((Point((x,)), y) for x, y in pairs))


@dataclass(frozen=True, slots=True)
class LipschitzReport:
    constant: NormValue
    witness: tuple[Point, Point] | None
    violations: tuple[tuple[Point, Point], ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def _pair_ratios(pairs: Sequence[tuple]):
    """Each pair of (key, value) pairs, in order, with the ratio
    |value difference| / |key difference|.  Pairs of equal keys are
    skipped: callers give one value per key."""
    for (p, fp), (q, fq) in combinations(pairs, 2):
        dx = p.norm_of_difference(q)
        if not dx.is_zero:
            yield (p, fp), (q, fq), fp.norm_of_difference(fq) / dx


def first_violation(pairs: Sequence[tuple], eps: NormValue, tree=None):
    """The first two (key, value) pairs whose ratio exceeds eps, or None;
    the ball tree decides, and only a failing set is scanned pair by pair.
    A given tree must be the ball tree of the keys, in pair order."""
    if tree is None:
        tree = BallTree([p for p, _ in pairs])
    if tree.lipschitz_ok([v for _, v in pairs], eps.exponent):
        return None
    return next(((a, b) for a, b, ratio in _pair_ratios(pairs)
                 if ratio > eps), None)


def is_lipschitz(f: FiniteFunction, eps: NormValue) -> LipschitzReport:
    """Check every pair ratio against the bound; list all violations.

    The report also carries the exact constant, the supremum of
    norm(f(x)-f(y))/norm(x-y), with the first pair that attains it.
    Constant maps (and singletons) have the zero constant, which lies
    below every positive bound, and no witness.
    """
    if eps.is_zero:
        raise ValueError("the Lipschitz bound must be a positive norm")
    best = NormValue.zero()
    witness = None
    violations = []
    for (p, _), (q, _), ratio in _pair_ratios(f.entries):
        if witness is None or ratio > best:
            best, witness = ratio, (p, q)
        if ratio > eps:
            violations.append((p, q))
    if best.is_zero:
        witness = None
    return LipschitzReport(best, witness, tuple(violations))


def require_one_lipschitz(f: FiniteFunction, what: str = "input",
                          tree=None) -> None:
    """Raise NotLipschitzError unless f is 1-Lipschitz; the witness is
    the first violating pair.  A given tree must be the ball tree of
    f's domain, in entry order."""
    violation = first_violation(f.entries, NORM_ONE, tree)
    if violation is not None:
        (p, _), (q, _) = violation
        raise NotLipschitzError(f"{what} is not 1-Lipschitz", witness=(p, q))


def risometry_check(f: FiniteFunction, axes: Iterable[int] | None = None):
    """Exact risometry test of a finite function.

    The check runs over all pairs differing in exactly one coordinate
    from the axis set.  Returns (ok, counterexample).
    """
    axis_set = set(axes) if axes is not None else set(range(1, f.n + 1))
    for (p, fp), (q, fq) in combinations(f.entries, 2):
        diff_axes = [k for k in range(f.n) if p.coords[k] != q.coords[k]]
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


def restore_value(gx: FieldElement, x: Point, eps_elt: FieldElement,
                  axes: Sequence[int]) -> FieldElement:
    """F(x) = eps_elt * (g(x) - sum_{i in axes} x_i), the pointwise
    inverse of the reduction, for composed evaluators."""
    acc = gx
    for i in axes:
        acc = acc - x.coords[i - 1]
    return eps_elt * acc

