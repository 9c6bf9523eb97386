"""Canonical skeletons of finite families of 1-D cells.

The skeleton of a cell family is a finite set of modified centers, built
level by level over the ascending distance cuts of the family, so that
every cell re-attaches to a skeleton point at its own level and distinct
skeleton points stay farther apart than the higher of their levels.
Risometries transport skeletons level-by-level without changing the
discrete configuration of the family.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import (
    NORM_ONE,
    BackendMismatchError,
    CutValue,
    FieldElement,
    NormValue,
    Q,
    RVValue,
    integer_average,
)
from .geometry import (
    AnnulusBox,
    Ball,
    Cell1D,
    ExactBox,
    dist_to_cell,
    recenter_cell,
    rho,
)


class SkeletonError(ValueError):
    pass


class BallConditionError(ValueError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class TransportError(ValueError):
    pass


class RisometrySlopeError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class SkeletonLevel:
    radius: CutValue
    points: tuple[FieldElement, ...]


@dataclass(frozen=True, slots=True)
class Skeleton:
    """Levels of skeleton points plus the re-attachment of every input cell.

    attachments pairs each original cell with its skeleton point, in input
    order; recentered holds the same member sets presented relative to the
    attachment points; groups records which input indices share a point.
    """

    levels: tuple[SkeletonLevel, ...]
    attachments: tuple[tuple[Cell1D, FieldElement], ...]
    recentered: tuple[Cell1D, ...]
    groups: tuple[tuple[FieldElement, frozenset], ...]

    def points(self) -> tuple[FieldElement, ...]:
        return tuple(p for lv in self.levels for p in lv.points)

    def level_of(self, point: FieldElement) -> CutValue:
        for lv in self.levels:
            if point in lv.points:
                return lv.radius
        raise KeyError(f"{point!r} is not a skeleton point")


def build_skeleton(cells) -> Skeleton:
    """Run the canonical level-by-level center modification.

    Levels are the distinct distance cuts of the family in ascending
    order.  At each level, centers within the level radius of an existing
    lower-level skeleton point are removed and their cells re-attached
    there; the remaining centers split into equivalence classes of the
    relation |a - b| <= r, and each class contributes one point: the
    arithmetic average when it sits inside no class cell's open r-ball,
    otherwise the center of the unique such cell.  The output is a pure
    function of the input as a set: processing is by radius and averages
    are symmetric.
    """
    cells = list(cells)
    if not cells:
        raise SkeletonError("skeleton of an empty family")
    field = cells[0].field
    for c in cells:
        if c.field != field:
            raise BackendMismatchError("cells mix backends")

    # group cells sharing a center: they act as one center whose cut is
    # the minimum over the group
    by_center: dict[FieldElement, list[int]] = {}
    for i, c in enumerate(cells):
        by_center.setdefault(c.center, []).append(i)
    center_rho = {c: min(rho(cells[i]) for i in idxs)
                  for c, idxs in by_center.items()}

    level_cuts = sorted(set(center_rho.values()))
    placed: dict[FieldElement, FieldElement] = {}  # center -> skeleton point
    point_level: dict[FieldElement, int] = {}
    level_points: list[list[FieldElement]] = [[] for _ in level_cuts]

    for li, r in enumerate(level_cuts):
        centers = sorted((c for c, cut in center_rho.items() if cut == r),
                         key=lambda c: c.sort_key())
        remaining = []
        for c in centers:
            # removal against the already-built lower-level skeleton
            near = [s for s in point_level
                    if CutValue(c.norm_of_difference(s), True) <= r]
            if near:
                placed[c] = min(near, key=lambda s: (
                    _norm_key(c.norm_of_difference(s)), s.sort_key()))
            else:
                remaining.append(c)

        for cls in _equivalence_classes(remaining, r):
            pts = sorted(cls, key=lambda c: c.sort_key())
            class_cells = [cells[i] for c in pts for i in by_center[c]]
            point = _class_point(field, pts, class_cells, r)
            for c in pts:
                placed[c] = point
            if point not in point_level:
                point_level[point] = li
                level_points[li].append(point)

    levels = tuple(
        SkeletonLevel(level_cuts[li],
                      tuple(sorted(level_points[li], key=lambda p: p.sort_key())))
        for li in range(len(level_cuts)))

    attachments = tuple((cells[i], placed[cells[i].center])
                        for i in range(len(cells)))
    recentered = tuple(recenter_cell(cell, pt) for cell, pt in attachments)

    group_map: dict[FieldElement, set] = {}
    for i, (_, pt) in enumerate(attachments):
        group_map.setdefault(pt, set()).add(i)
    groups = tuple(sorted(((p, frozenset(s)) for p, s in group_map.items()),
                          key=lambda kv: kv[0].sort_key()))

    skel = Skeleton(levels, attachments, recentered, groups)
    _assert_metric_condition(skel, cells)
    return skel


def _norm_key(n: NormValue):
    return (0, Q(0)) if n.is_zero else (1, -n.exponent)


def _class_point(field, centers, class_cells, r: CutValue) -> FieldElement:
    """The replacement point of one equivalence class at level r.

    The arithmetic average is used when it keeps distance-cut at least r
    to every class cell; otherwise the class centers are tried, the cell
    hit by the average first.  A center can be swallowed by a sibling
    cell's fiber, so validity against the whole class is what decides.
    As a last resort a fresh point is built next to the least center by
    dodging the finitely many occupied residue directions.
    """
    def valid(s: FieldElement) -> bool:
        return all(not dist_to_cell(s, cell) < r for cell in class_cells)

    avg = integer_average(centers)
    if valid(avg):
        return avg
    hit = [c.center for c in class_cells if dist_to_cell(avg, c) < r]
    ordered = sorted(set(hit), key=lambda c: c.sort_key()) + \
        [c for c in centers if c not in hit]
    for candidate in ordered:
        if valid(candidate):
            return candidate
    if r.norm.is_zero:
        raise SkeletonError("no class point exists at the zero level")
    # dodge the finitely many occupied residue directions next to the
    # least center; each class box can block at most one direction
    anchor = centers[0]
    exponent = r.norm.exponent
    bound = 3 + sum(len(c.boxes) for c in class_cells)
    if field.mixed_characteristic:
        bound = min(bound, field.prime)
    u = 1
    while u < bound:
        candidate = anchor + field.monomial(exponent, u)
        if valid(candidate):
            return candidate
        u += 1
    raise SkeletonError(
        "no admissible class point at level "
        f"{r!r} near {anchor!r}; the residue directions are occupied")


def _equivalence_classes(centers, r: CutValue):
    """Classes of |a - b| <= r; ultrametric transitivity is asserted."""
    classes: list[list[FieldElement]] = []
    for c in centers:
        for cls in classes:
            if CutValue(c.norm_of_difference(cls[0]), True) <= r:
                cls.append(c)
                break
        else:
            classes.append([c])
    for cls in classes:
        for a in cls:
            for b in cls:
                if CutValue(a.norm_of_difference(b), True) > r:
                    raise SkeletonError(
                        "level relation is not transitive; ultrametric "
                        f"violation between {a!r} and {b!r}")
    classes.sort(key=lambda cls: min(c.sort_key() for c in cls))
    return classes


def _assert_metric_condition(skel: Skeleton, cells):
    # re-centering keeps every cell's distance cut, and the attached cells
    # of each skeleton point realize the point's level as their minimum
    per_point_min: dict[FieldElement, CutValue] = {}
    for (cell, pt), moved in zip(skel.attachments, skel.recentered):
        orig, got = rho(cell), rho(moved)
        if got != orig:
            raise SkeletonError(
                f"re-attachment changed the distance cut: {orig!r} -> {got!r}")
        cur = per_point_min.get(pt)
        per_point_min[pt] = got if cur is None or got < cur else cur
    for p in skel.points():
        lvl = skel.level_of(p)
        if per_point_min[p] != lvl:
            raise SkeletonError(
                f"point {p!r} at level {lvl!r} has attached cut "
                f"{per_point_min[p]!r}")
    # distinct points are separated beyond the higher of their levels
    pts = [(p, skel.level_of(p)) for p in skel.points()]
    for i, (p, rp) in enumerate(pts):
        for q, rq in pts[i + 1:]:
            hi = max(rp, rq)
            if not CutValue(p.norm_of_difference(q), True) > hi:
                raise SkeletonError(
                    f"skeleton points {p!r}, {q!r} too close for level {hi!r}")
    # the skeleton avoids the family
    for p, _ in pts:
        for cell in cells:
            if cell.contains(p):
                raise SkeletonError(f"skeleton point {p!r} lies inside {cell!r}")


def check_skeleton(skel: Skeleton, cells) -> list[tuple[str, bool, str]]:
    """Re-run the output conditions as named verdicts (for reports)."""
    verdicts = []
    try:
        _assert_metric_condition(skel, list(cells))
        verdicts.append(("skeleton-metric-condition", True, ""))
    except SkeletonError as e:
        verdicts.append(("skeleton-metric-condition", False, str(e)))
    return verdicts


# ---------------------------------------------------------------------------
# Configurations


@dataclass(frozen=True, slots=True)
class Configuration:
    """The discrete comparison pattern of a tuple of (center, cut) pairs.

    Records the three-way comparison of every pairwise center distance
    against every cut, and of the cuts among themselves.  Tuples with the
    same configuration run the skeleton construction along the same
    branches.
    """

    size: int
    distance_vs_cut: tuple
    cut_vs_cut: tuple


def _cmp_cuts(a: CutValue, b: CutValue) -> int:
    if a < b:
        return -1
    if b < a:
        return 1
    return 0


def configuration_of(pairs) -> Configuration:
    pairs = list(pairs)
    d = len(pairs)
    dist_rows = []
    for i in range(d):
        for j in range(i + 1, d):
            # a norm compares with a cut like the cut (norm, attained)
            dist = CutValue(pairs[i][0].norm_of_difference(pairs[j][0]), True)
            dist_rows.append(tuple(_cmp_cuts(dist, cut) for _, cut in pairs))
    cut_rows = tuple(tuple(_cmp_cuts(a, b) for _, b in pairs)
                     for _, a in pairs)
    return Configuration(d, tuple(dist_rows), cut_rows)


# ---------------------------------------------------------------------------
# One-cell detection for ball families


def _open_normalize(ball: Ball) -> Ball:
    if ball.boundary == "open":
        return ball
    field = ball.field
    if field.dense_value_group:
        raise BallConditionError(
            "closed balls are not single rv-fibers over a dense value group")
    if ball.radius.is_zero:
        raise BallConditionError("a single point is not an open ball")
    return Ball(ball.center, NormValue.theta(ball.radius.exponent - 1), "open")


def one_cell(balls) -> Cell1D:
    """Present a family of disjoint open balls as a single cell.

    Requires the distance between any two member points of distinct balls
    to equal the larger of the two radii; verified on center
    representatives, which is exact by ultrametricity.  The common center
    is placed at distance exactly r from the smallest ball by subtracting
    a unit monomial whose leading term dodges the other balls.
    """
    balls = [_open_normalize(b) for b in balls]
    if not balls:
        raise BallConditionError("empty ball family")
    field = balls[0].field
    for b in balls:
        if b.field != field:
            raise BackendMismatchError("balls mix backends")
    for i, b1 in enumerate(balls):
        for b2 in balls[i + 1:]:
            d = b1.center.norm_of_difference(b2.center)
            if d < max(b1.radius, b2.radius):
                raise BallConditionError(
                    "balls are nested or equal, not disjoint",
                    witness=(b1, b2))
            expected = max(b1.radius, b2.radius)
            if d != expected:
                raise BallConditionError(
                    f"|b1 - b2| = {d!r} but max radius is {expected!r}",
                    witness=(b1, b2))

    # anchor at the smallest radius, i.e. the largest exponent
    max_exp = max(b.radius.exponent for b in balls)
    anchor = min((b for b in balls if b.radius.exponent == max_exp),
                 key=lambda b: b.center.sort_key())
    peers = [b for b in balls if b.radius == anchor.radius and b is not anchor]
    forbidden = set()
    for b in peers:
        # z - b = (anchor - b) - u*pi^m cancels iff rv(anchor - b) = rv(u*pi^m)
        r = (anchor.center - b.center).rv()
        if r.norm == anchor.radius:
            forbidden.add(r.unit)
    u = Q(1)
    while True:
        if field.mixed_characteristic and u >= field.prime:
            raise BallConditionError(
                "all residue directions at the anchor radius are occupied")
        candidate = RVValue(anchor.radius.exponent, u, field.prime)
        if candidate.unit not in forbidden:
            break
        u += 1
    z = anchor.center - field.monomial(anchor.radius.exponent, u)

    boxes = []
    for b in sorted(balls, key=lambda b: b.center.sort_key()):
        w = b.center - z
        if w.norm() != b.radius:
            raise BallConditionError(
                f"no common center at exact distances: |{b.center!r} - z| = "
                f"{w.norm()!r} != {b.radius!r}", witness=(anchor, b))
        boxes.append(ExactBox(w.rv()))
    return Cell1D(z, tuple(boxes))


# ---------------------------------------------------------------------------
# Risometry images and transport


def risometry_image_cell(cell: Cell1D, slope: FieldElement,
                         intercept: FieldElement) -> Cell1D:
    """Image of a cell under x -> slope*x + intercept with slope in 1 + M.

    The image is the cell with center slope*center + intercept and the
    identical box set: rv(slope * v) = rv(v) for slopes in 1 + M.
    """
    one = slope.field.one()
    if not (slope - one).norm() < NORM_ONE:
        raise RisometrySlopeError(f"slope {slope!r} is not in 1 + M")
    return Cell1D(slope * cell.center + intercept, cell.boxes)


def affine_image_cell(cell: Cell1D, slope: FieldElement,
                      intercept: FieldElement) -> Cell1D:
    """Image of a cell under any invertible affine map.

    Boxes transform multiplicatively by rv(slope): exact fibers multiply,
    annulus endpoints scale by the slope norm with flags kept, and unit
    constraints pick up the slope's leading unit.
    """
    if slope.is_zero:
        raise ValueError("affine image needs a nonzero slope")
    s_rv = slope.rv()
    s_norm = slope.norm()
    boxes = []
    for b in cell.boxes:
        if isinstance(b, ExactBox):
            if b.rv.is_zero:
                boxes.append(b)
            else:
                boxes.append(ExactBox(s_rv * b.rv))
        else:
            unit = None if b.unit is None else b.unit * s_rv.unit
            boxes.append(AnnulusBox(
                CutValue(b.lower.norm * s_norm, b.lower.attained),
                CutValue(b.upper.norm * s_norm, b.upper.attained),
                unit))
    return Cell1D(slope * cell.center + intercept, tuple(boxes))


@dataclass(frozen=True, slots=True)
class Transport:
    source: Skeleton
    image: Skeleton
    image_cells: tuple[Cell1D, ...]
    point_map: tuple[tuple[FieldElement, FieldElement], ...]

    def map_point(self, p: FieldElement) -> FieldElement:
        for a, b in self.point_map:
            if a == p:
                return b
        raise KeyError(f"{p!r} is not a source skeleton point")


def transport_skeleton(cells, pieces) -> Transport:
    """Build source and image skeletons and match their points.

    pieces is one (slope, intercept) pair per cell, each a risometry on
    its cell.  The image skeleton is recomputed from scratch on the image
    cells; points are matched through the groups of attached cell indices
    and the matching must respect levels, otherwise the configurations of
    source and image disagree and the transport is refused.
    """
    cells = list(cells)
    pieces = list(pieces)
    if len(cells) != len(pieces):
        raise TransportError("one affine piece per cell required")
    source = build_skeleton(cells)
    image_cells = tuple(risometry_image_cell(c, a, b)
                        for c, (a, b) in zip(cells, pieces))
    image = build_skeleton(image_cells)

    src_pairs = [(c.center, rho(c)) for c in cells]
    img_pairs = [(c.center, rho(c)) for c in image_cells]
    if configuration_of(src_pairs) != configuration_of(img_pairs):
        raise TransportError("source and image configurations differ")

    img_groups = {idx: p for p, idx in image.groups}
    pairs = []
    for p, idx in source.groups:
        q = img_groups.get(idx)
        if q is None:
            raise TransportError(
                f"no image skeleton point carries the cells {sorted(idx)}")
        if source.level_of(p) != image.level_of(q):
            raise TransportError("transport does not respect levels")
        pairs.append((p, q))
    return Transport(source, image, image_cells, tuple(pairs))
