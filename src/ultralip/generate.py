"""Seeded generation of valid instances and of verification samples.

Values on finite domains are assigned down the ultrametric ball tree of
the points: one value per ball, perturbed in each child ball by an
element bounded by the ball's diameter.  That makes the data 1-Lipschitz
by construction, and every emitted instance is still checked exactly by
require_one_lipschitz, the guard each construction runs on its input, in
O(n * depth) on the ball tree; an instance that fails is regenerated
under a chained sub-seed.  All randomness flows from the seed.
"""

from __future__ import annotations

import random

from .balltree import BallTree
from .field import (
    CutValue,
    FieldDescriptor,
    FieldElement,
    NormValue,
    Point,
    Q,
)
from .geometry import AnnulusBox, Cell1D, ExactBox, first_intersecting_pair
from .lipschitz import FiniteFunction, require_one_lipschitz
from .extension import GraphBranch, GraphFamily
from .serialize import Instance, emit_instance

PROFILES = ("finite-line", "finite-plane", "finite-nd", "cells-line", "graphs")
# finite profile -> (dimension, largest size drawn when none is given)
_FINITE = {"finite-line": (1, 8), "finite-plane": (2, 6), "finite-nd": (3, 5)}


def random_element(rng: random.Random, field: FieldDescriptor,
                   window: tuple[int, int]) -> FieldElement:
    """Zero one time in ten, else one or two terms in the window."""
    lo, hi = window
    if rng.random() < 0.1:
        return field.zero()
    k = rng.randint(1, 2)
    if field.is_series:
        pool = list(range(lo, hi + 1))
        exps = rng.sample(pool, min(k, len(pool)))
        parts = [(e, rng.choice([-3, -2, -1, 1, 2, 3])) for e in exps]
        return field.from_terms(parts)
    p = field.prime
    e = rng.randint(lo, hi)
    unit = rng.randint(1, p - 1) + p * rng.randint(0, 3)
    return field.monomial(e, unit)


def small_perturbation(rng: random.Random, field: FieldDescriptor,
                       at_or_below: NormValue, depth: int = 3) -> FieldElement:
    """A random element of norm at most the given bound (possibly zero)."""
    if at_or_below.is_zero or rng.random() < 0.25:
        return field.zero()
    e = at_or_below.exponent + rng.randint(0, depth)
    coeff = rng.choice([-2, -1, 1, 2])
    return field.monomial(e, coeff)


def _distinct_points(rng, field, n, count, window) -> list[Point]:
    pts: list[Point] = []
    seen = set()
    guard = 0
    while len(pts) < count:
        guard += 1
        if guard > 200 * count:
            raise RuntimeError("could not draw enough distinct points")
        p = Point(tuple(random_element(rng, field, window)
                        for _ in range(n)))
        if p not in seen:
            seen.add(p)
            pts.append(p)
    return pts


def _finite_instance(rng, field, n, size, window) -> Instance:
    points = _distinct_points(rng, field, n, size, window)
    entries, tree = vanishing_values(rng, points, [], window)
    fn = FiniteFunction(n, entries)
    require_one_lipschitz(fn, "generated data", tree)
    return Instance("extend-finite", field, function=fn)


def vanishing_values(rng: random.Random, a_points: list[Point],
                     b_points: list[Point],
                     window: tuple[int, int]) -> tuple[tuple, BallTree]:
    """1-Lipschitz values on A u B that vanish on B (any values when B is
    empty), assigned depth-first down the ball tree of the points sorted
    by sort_key: a ball holding a B-point is pinned at zero, any other
    child takes its parent's value perturbed within the parent's radius,
    which is the parent's diameter.  Returns the (point, value) entries in
    sort_key order and that tree, the ball tree of the entries in order."""
    b_set = set(b_points)
    pts = sorted(set(a_points) | b_set, key=lambda p: p.sort_key())
    field = pts[0].field
    values: list = [None] * len(pts)

    def pinned(ball):
        return any(pts[m] in b_set for m in ball.members)

    def assign(ball, value):
        if not ball.children:
            values[ball.center] = value
        for child in ball.children.values():
            assign(child, field.zero() if pinned(child) else
                   value + small_perturbation(
                       rng, field, NormValue.theta(ball.radius)))

    tree = BallTree(pts)
    assign(tree.root, field.zero() if b_points else
           random_element(rng, field, window))
    return tuple(zip(pts, values)), tree


# ---------------------------------------------------------------------------
# Cell families


def _cluster_cells(rng, field, base: FieldElement, level: int,
                   count: int) -> list[Cell1D]:
    """Disjoint fiber-ball cells around one base point at one radius level."""
    shifts = rng.sample(range(-4, 5), count)
    units = [rng.choice([1, 2, 3, -1, -2]) for _ in range(count)]
    # distinct center + unit sums keep the balls disjoint
    while len({s + u for s, u in zip(shifts, units)}) < count \
            or any(u == 0 for u in units):
        units = [rng.choice([1, 2, 3, -1, -2]) for _ in range(count)]
    cells = []
    for s, u in zip(shifts, units):
        center = base + field.monomial(level, s) if s else base
        cells.append(Cell1D(center, (ExactBox(
            field.monomial(level, u).rv()),)))
    return cells


def _annulus_cell(rng, field, base: FieldElement, level: int) -> Cell1D:
    outer = level - rng.randint(0, 1)
    lower = CutValue(NormValue.theta(level), rng.random() < 0.8
                     or not field.dense_value_group)
    if not lower.attained and not field.dense_value_group:
        lower = CutValue(NormValue.theta(level), True)
    upper = CutValue(NormValue.theta(outer), True)
    unit = Q(rng.choice([1, 2, 3])) if rng.random() < 0.3 else None
    return Cell1D(base, (AnnulusBox(lower, upper, unit),))


def random_cell_family(rng, field, window: tuple[int, int],
                       max_cells: int = 6) -> list[Cell1D]:
    lo, hi = window
    cells: list[Cell1D] = []
    n_clusters = rng.randint(1, 2)
    # coarse separation keeps clusters pairwise far apart
    anchors = rng.sample(range(1, 9), n_clusters)
    for ai, a in enumerate(anchors):
        base = field.monomial(lo - 2, a)
        level = rng.randint(max(lo, 0) + 1, hi)
        room = max_cells - len(cells)
        if room <= 0:
            break
        kind = rng.random()
        if kind < 0.6:
            cells.extend(_cluster_cells(rng, field, base, level,
                                        rng.randint(1, min(3, room))))
        elif kind < 0.8:
            cells.append(_annulus_cell(rng, field, base, level))
        else:
            # a removal pattern: a fine cell plus a coarser one re-attachable
            # to the fine cell's skeleton point
            fine = Cell1D(base, (ExactBox(field.monomial(level + 3, 1).rv()),))
            coarse_center = base + field.monomial(level + 3,
                                                  rng.choice([1, 2, -1]))
            coarse = Cell1D(coarse_center,
                            (ExactBox(field.monomial(level, 2).rv()),))
            cells.extend([fine, coarse][:room])
    if first_intersecting_pair(cells) is not None:
        raise RuntimeError("generator produced intersecting cells")
    return cells


def random_risometry_pieces(rng, field, window, count):
    lo, hi = window
    slope = field.one() + small_perturbation(
        rng, field, NormValue.theta(1), depth=max(1, hi))
    intercept = random_element(rng, field, window)
    return [(slope, intercept)] * count


def _cells_instance(rng, field, size, window) -> Instance:
    cells = random_cell_family(rng, field, window, max_cells=size)
    pieces = random_risometry_pieces(rng, field, window, len(cells))
    return Instance("extend-cell", field, cells=tuple(cells),
                    pieces=tuple(pieces))


def _graphs_instance(rng, field, size, window) -> Instance:
    lo, hi = window
    n_cells = rng.randint(1, 2)
    anchors = rng.sample(range(1, 7), n_cells)
    cells = []
    branch_rows = []
    for a in anchors:
        base = field.monomial(lo - 2, a)
        level = rng.randint(max(lo, 0) + 1, hi)
        cells.append(Cell1D(base, (ExactBox(
            field.monomial(level, rng.choice([1, 2])).rv()),)))
        n_br = rng.randint(1, 2)
        row = []
        for bi in range(n_br):
            phi_slope = field.monomial(rng.randint(0, 2), rng.choice([1, -1])) \
                if rng.random() < 0.7 else field.zero()
            # branch intercepts far apart so the graphs cannot cross
            phi_intercept = field.monomial(lo - 4, bi + 1)
            value_slope = field.monomial(rng.randint(1, 3), rng.choice([1, -1])) \
                if rng.random() < 0.8 else field.zero()
            value_intercept = small_perturbation(
                rng, field, NormValue.theta(max(0, lo)), depth=hi - lo)
            row.append(GraphBranch(phi_slope, phi_intercept,
                                   value_slope, value_intercept))
        branch_rows.append(tuple(row))
    family = GraphFamily(tuple(cells), tuple(branch_rows))
    return Instance("extend-graphs", field, family=family)


def generate_instance(seed: int, profile: str,
                      field: FieldDescriptor | None = None,
                      size: int | None = None,
                      window: tuple[int, int] = (-6, 6)) -> Instance:
    """Produce a valid typed instance; fully seed-determined."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; expected one of {PROFILES}")
    if size is not None and size < 1:
        raise ValueError(f"instance size must be at least 1, got {size}")
    if field is None:
        field = FieldDescriptor("t-adic")
    if size is not None and profile in _FINITE and not field.is_series:
        # a p-adic draw is 0 or u * p^e with e in the window and one of
        # 4 * (p - 1) units u, so a point has one of count^n values
        lo, hi = window
        count = ((hi - lo + 1) * (field.prime - 1) * 4 + 1) ** _FINITE[profile][0]
        if size > count:
            raise ValueError(
                f"{profile} over p-adic {field.prime} in the window {lo},{hi} "
                f"can draw only {count} distinct points, fewer than size {size}")
    profile_index = PROFILES.index(profile)
    for attempt in range(50):
        # integer-only seed derivation: string hashes are salted per process
        rng = random.Random(seed * 1_000_003 + profile_index * 7919 + attempt)
        try:
            if profile in _FINITE:
                n, most = _FINITE[profile]
                return _finite_instance(rng, field, n,
                                        size or rng.randint(2, most), window)
            if profile == "cells-line":
                return _cells_instance(rng, field, size or 6, window)
            return _graphs_instance(rng, field, size, window)
        except (RuntimeError, ValueError):
            continue
    raise RuntimeError(f"generation failed for seed {seed}, profile {profile}")


def generate_vanishing_pair(seed: int, field: FieldDescriptor | None = None,
                            n: int = 1, a_size: int = 4, b_size: int = 2,
                            window: tuple[int, int] = (-6, 6)) -> Instance:
    """A glue instance: values on A u B that are 1-Lipschitz and zero on B."""
    if field is None:
        field = FieldDescriptor("t-adic")
    for attempt in range(50):
        rng = random.Random(seed * 999_983 + attempt * 101 + 5)
        try:
            pts = _distinct_points(rng, field, n, a_size + b_size, window)
            a_points, b_points = pts[:a_size], pts[a_size:]
            entries, tree = vanishing_values(rng, a_points, b_points, window)
            require_one_lipschitz(FiniteFunction(n, entries),
                                  "generated data", tree)
            b_set = set(b_points)
            fn = FiniteFunction(n, tuple(kv for kv in entries
                                         if kv[0] not in b_set))
            return Instance("glue", field, glue_a=fn, glue_b=tuple(b_points))
        except (RuntimeError, ValueError):
            continue
    raise RuntimeError(f"vanishing-pair generation failed for seed {seed}")


def generate(seed: int, profile: str, field: FieldDescriptor | None = None,
             size: int | None = None,
             window: tuple[int, int] = (-6, 6)) -> dict:
    """Produce a valid instance as a JSON-ready dict; fully seed-determined."""
    return emit_instance(generate_instance(seed, profile, field, size, window))


# ---------------------------------------------------------------------------
# Verification samples


def sample_points(rng: random.Random, field: FieldDescriptor, n: int,
                  anchors: list[Point], window: tuple[int, int],
                  count: int) -> list[Point]:
    """Anchor points, near-anchor points per radius scale, and far points."""
    lo, hi = window
    out = list(anchors)
    scales = list(range(lo - 1, hi + 1))
    i = 0
    while len(out) < len(anchors) + count:
        scale = scales[i % len(scales)]
        i += 1
        if anchors and rng.random() < 0.7:
            base = rng.choice(anchors)
        else:
            base = Point(tuple(field.zero() for _ in range(n)))
        coords = list(base.coords)
        for axis in range(n):
            if rng.random() < 0.7:
                coords[axis] = coords[axis] + field.monomial(
                    scale, rng.choice([1, 2, 3, -1]))
        candidate = Point(tuple(coords))
        out.append(candidate)
    seen = set()
    unique = []
    for p in out:
        if p not in seen:
            seen.add(p)
            unique.append(p)
    return unique
