"""Extension operators for exactly presented data.

Every operator returns a total evaluator on the ambient affine space that
agrees with its source data exactly.  Constructions follow the canonical
recipes: nearest-point averaging on the line, condition-table gluing for
partitions, a distance-ladder over the first coordinate for finite sets
in dimension two and above, skeleton-average extension for risometric
cell data, and a fiberwise formula for graph families.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Callable, Sequence

from .field import (
    CutValue,
    FieldDescriptor,
    FieldElement,
    NormValue,
    Point,
    integer_average,
    value_gt_cut,
)
from .geometry import (
    Cell1D,
    cells_intersect,
    dist_to_cell,
    dist_to_points,
)
from .balltree import Ball, BallTree
from .lipschitz import (
    FiniteFunction,
    require_one_lipschitz,
    reduce_to_risometry,
    restore_value,
)
from .skeleton import affine_image_cell, build_skeleton, transport_skeleton

NORM_ONE = NormValue.theta(0)


class ExtensionError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class ExtendedFunction:
    """A total evaluator K^n -> K with provenance and source data."""

    n: int
    backend: FieldDescriptor
    provenance: str
    evaluator: Callable[[Point], FieldElement]
    description: dict = dc_field(default_factory=dict)
    extras: dict = dc_field(default_factory=dict)

    def __call__(self, x) -> FieldElement:
        if isinstance(x, FieldElement):
            x = Point((x,))
        if x.dimension != self.n:
            raise ExtensionError(f"expected dimension {self.n}, got {x.dimension}")
        return self.evaluator(x)


def ext_sum(a: ExtendedFunction, b: ExtendedFunction,
            provenance: str) -> ExtendedFunction:
    if a.n != b.n or a.backend != b.backend:
        raise ExtensionError("summands do not match")
    return ExtendedFunction(a.n, a.backend, provenance,
                            lambda x: a.evaluator(x) + b.evaluator(x))


# ---------------------------------------------------------------------------
# Nearest-point averaging (the line formula and its fiber version)


class _NearestAverage:
    """x -> the average of the values over the keys nearest to x."""

    def __init__(self, data: dict):
        self.values = list(data.values())
        self.tree = BallTree(list(data))

    def __call__(self, x) -> FieldElement:
        return integer_average([self.values[i] for i in self.tree.nearest(x)])


def _sort_key(k):
    return k.sort_key()


def extend_finite_line(f: FiniteFunction) -> ExtendedFunction:
    """Average the values over the nearest-point set of the domain."""
    if f.n != 1:
        raise ExtensionError("the line extension needs one variable")
    require_one_lipschitz(f)
    average = _NearestAverage({p.coords[0]: v for p, v in f.entries})
    return ExtendedFunction(
        1, f.field, "finite-line-average", lambda x: average(x.coords[0]),
        description={"points": len(average.values)})


# ---------------------------------------------------------------------------
# Gluing with a vanishing part


def _dist_or_none(x: Point, targets) -> CutValue | None:
    targets = list(targets)
    if not targets:
        return None
    if isinstance(targets[0], Cell1D):
        if x.dimension != 1:
            raise ExtensionError("cell targets are one-dimensional")
        return min(dist_to_cell(x.coords[0], c) for c in targets)
    return dist_to_points(x, targets)


def _all_strictly_above(cut_a: CutValue, cut_b: CutValue) -> bool:
    """Whether every distance behind cut_b strictly exceeds the cut_a infimum."""
    if cut_b.attained:
        return value_gt_cut(cut_b.norm, cut_a)
    return cut_a <= cut_b


def glue_conditions(x: Point, a_set, b_set) -> tuple[bool, bool]:
    """The two symmetric nearness conditions, decided through distance cuts."""
    da = _dist_or_none(x, a_set)
    db = _dist_or_none(x, b_set)
    cond1 = True if db is None else (da is not None and _all_strictly_above(da, db))
    cond2 = True if da is None else (db is not None and _all_strictly_above(db, da))
    return cond1, cond2


def glue_conditions_pointwise(x: Point, a_points, b_points) -> tuple[bool, bool]:
    """Quantifier evaluation over finite sets; must agree with the cut route."""
    def strictly_nearer_exists(pool, bound):
        return any(x.norm_of_difference(p) < bound for p in pool)

    cond1 = all(strictly_nearer_exists(a_points, x.norm_of_difference(b))
                for b in b_points)
    cond2 = all(strictly_nearer_exists(b_points, x.norm_of_difference(a))
                for a in a_points)
    return cond1, cond2


def glue_vanishing(a_data, b_set, extension_of_a: ExtendedFunction,
                   check: bool = True) -> ExtendedFunction:
    """Glue an extension of f|A with the zero function across B.

    a_data is a FiniteFunction (or a list of cells); b_set is a finite
    point list or cell list on which the glued function vanishes.  The
    result follows the condition table: the extension value where A is
    strictly nearer, zero where B is at least tied.
    """
    F = extension_of_a
    if isinstance(a_data, FiniteFunction):
        a_targets: Sequence = a_data.domain()
        if check:
            for p, v in a_data.entries:
                if F(p) != v:
                    raise ExtensionError(
                        f"the given extension disagrees with f at {p}")
    else:
        a_targets = list(a_data)
    b_targets = list(b_set)

    def evaluate(x: Point) -> FieldElement:
        cond1, cond2 = glue_conditions(x, a_targets, b_targets)
        if cond1 and not cond2:
            return F.evaluator(x)
        return F.backend.zero()

    return ExtendedFunction(
        F.n, F.backend, "glue-vanishing", evaluate,
        description={"a_size": len(list(a_targets)), "b_size": len(b_targets)})


def _default_extender(f: FiniteFunction) -> ExtendedFunction:
    if f.n == 1:
        return extend_finite_line(f)
    return extend_finite_nd(f)


def union_function(parts: Sequence[FiniteFunction]) -> FiniteFunction:
    n = parts[0].n
    merged: dict[Point, FieldElement] = {}
    for part in parts:
        if part.n != n:
            raise ExtensionError("parts mix dimensions")
        for p, v in part.entries:
            if p in merged and merged[p] != v:
                raise ExtensionError(f"conflicting values at {p}")
            merged[p] = v
    entries = tuple(sorted(merged.items(), key=lambda kv: kv[0].sort_key()))
    return FiniteFunction(n, entries)


def glue_union(parts: Sequence[FiniteFunction],
               extender: Callable[[FiniteFunction], ExtendedFunction] | None = None,
               ) -> ExtendedFunction:
    """Extend a function given piecewise on finitely many parts.

    Follows the inductive composition: extend the last part, subtract it,
    glue the difference (which vanishes there) against the rest, and sum.
    The order of the parts is part of the construction; the result is
    deterministic for a fixed order.
    """
    parts = list(parts)
    if not parts:
        raise ExtensionError("no parts to glue")
    if extender is None:
        extender = _default_extender
    combined = union_function(parts)
    require_one_lipschitz(combined, "the combined function")
    if len(parts) == 1:
        return extender(parts[0])

    last = parts[-1]
    f_last = extender(last)
    rest_parts = []
    for part in parts[:-1]:
        entries = tuple((p, v - f_last(p)) for p, v in part.entries)
        rest_parts.append(FiniteFunction(part.n, entries))
    f_rest = glue_union(rest_parts, extender)
    rest_domain = union_function(rest_parts)
    glued = glue_vanishing(rest_domain, last.domain(), f_rest, check=False)
    out = ext_sum(glued, f_last, "glue-union")
    return ExtendedFunction(out.n, out.backend, "glue-union", out.evaluator,
                            description={"parts": len(parts)})


# ---------------------------------------------------------------------------
# The distance ladder over the first coordinate


def _combine(privileged: dict, others: Sequence[dict], delta: NormValue) -> dict:
    """Merge sibling fiber data around a privileged fiber at one scale.

    Privileged entries are kept verbatim; foreign points within the open
    delta-neighbourhood of the privileged fiber are dropped, and the rest
    are averaged over open delta-balls, every point of a ball receiving
    the ball average (counted with multiplicity across siblings).
    """
    merged = dict(privileged)
    kept = []
    for data in others:
        for w in sorted(data, key=_sort_key):
            if all(not w.norm_of_difference(e) < delta for e in privileged):
                kept.append((w, data[w]))
    balls: list[tuple[list, list]] = []
    for w, val in kept:
        for pts, vals in balls:
            if w.norm_of_difference(pts[0]) < delta:
                pts.append(w)
                vals.append(val)
                break
        else:
            balls.append(([w], [val]))
    for pts, vals in balls:
        avg = integer_average(vals)
        for w in pts:
            merged[w] = avg
    return merged


class _Ladder:
    """Staged fiber data along the ball tree of the base points.

    Every node carries a frozen combined fiber (its class data).  A stage
    piece is indexed by a parent node and one of its children: it applies
    when the base coordinate lies in the child's open strip at the parent
    scale and the fiber coordinate lies within the parent scale of the
    class grid.  Evaluation walks to the finest applicable piece; when no
    piece below the root applies, the root's frozen data decides, making
    the value independent of the base coordinate far out.  Each piece's
    data is extended along the fiber once, by extend_fiber.
    """

    def __init__(self, bases: list, fibers: list[dict], extend_fiber):
        # bases are sorted by sort_key, so every node's center (its first
        # member) is its rep: the member with the smallest sort_key
        self.fibers = fibers
        self.extend_fiber = extend_fiber
        self.tree = BallTree(bases)
        self._data: dict[int, dict] = {}
        self._grid: dict[int, BallTree] = {}
        self._pieces: dict[tuple, Callable] = {}

    def _data_of(self, node: Ball) -> dict:
        got = self._data.get(id(node))
        if got is not None:
            return got
        if not node.children:
            data = self.fibers[node.center]
        else:
            children = list(node.children.values())
            others = [self._data_of(c) for c in children[1:]]
            data = _combine(self._data_of(children[0]), others,
                            NormValue.theta(node.radius))
        self._data[id(node)] = data
        return data

    def _grid_of(self, node: Ball) -> BallTree:
        got = self._grid.get(id(node))
        if got is None:
            keys = set()
            for i in node.members:
                keys.update(self.fibers[i])
            got = BallTree(sorted(keys, key=_sort_key))
            self._grid[id(node)] = got
        return got

    def view(self, u, v) -> Callable:
        """The fiber extension that answers at base u and fiber point v."""
        parent = None
        current = self.tree.root
        while current.children:
            child = self.tree.child_toward(current, u)
            if child is None:
                break
            _, d = self._grid_of(current).locate(v)
            if not d > current.radius:
                break
            parent, current = current, child
        key = (id(parent), id(current))
        got = self._pieces.get(key)
        if got is None:
            if parent is None:
                data = self._data_of(current)
            else:
                others = [self._data_of(c) for c in parent.children.values()
                          if c is not current]
                data = _combine(self._data_of(current), others,
                                NormValue.theta(parent.radius))
            got = self.extend_fiber(data)
            self._pieces[key] = got
        return got


def _fiber_map(f: FiniteFunction, rest) -> tuple[list, list[dict]]:
    """The base points in sort_key order and the fiber data over each."""
    fiber_map: dict = {}
    for p, v in f.entries:
        fiber_map.setdefault(p.coords[0], {})[rest(p)] = v
    bases = sorted(fiber_map, key=_sort_key)
    return bases, [fiber_map[b] for b in bases]


def extend_finite_plane_ladder(f: FiniteFunction) -> ExtendedFunction:
    """The staged construction for finite plane data.

    Builds the increasing ladder of first-coordinate distances, combines
    fibers per ladder class around the fiber nearest the evaluation
    point, and extends the combined fiber along the second coordinate by
    nearest-point averaging.
    """
    if f.n != 2:
        raise ExtensionError("the plane ladder needs two variables")
    require_one_lipschitz(f)
    bases, fibers = _fiber_map(f, lambda p: p.coords[1])
    ladder = _Ladder(bases, fibers, _NearestAverage)

    def evaluate(x: Point) -> FieldElement:
        return ladder.view(x.coords[0], x.coords[1])(x.coords[1])

    return ExtendedFunction(
        2, f.field, "plane-ladder", evaluate,
        description={"points": len(f.entries), "bases": len(bases)})


def extend_finite_nd(f: FiniteFunction) -> ExtendedFunction:
    """Recursive ladder: fibers over the first coordinate are extended by
    the construction one dimension down, bottoming out at the line."""
    if f.n == 1:
        return extend_finite_line(f)
    require_one_lipschitz(f)
    bases, fibers = _fiber_map(f, lambda p: Point(p.coords[1:]))

    def extend_fiber(data: dict) -> Callable:
        entries = tuple(sorted(data.items(), key=lambda kv: kv[0].sort_key()))
        return extend_finite_nd(FiniteFunction(f.n - 1, entries)).evaluator

    ladder = _Ladder(bases, fibers, extend_fiber)

    def evaluate(x: Point) -> FieldElement:
        rest = Point(x.coords[1:])
        return ladder.view(x.coords[0], rest)(rest)

    return ExtendedFunction(
        f.n, f.field, "nd-ladder", evaluate,
        description={"points": len(f.entries), "bases": len(bases)})


def extend_finite(f: FiniteFunction) -> ExtendedFunction:
    if f.n == 1:
        return extend_finite_line(f)
    if f.n == 2:
        return extend_finite_plane_ladder(f)
    return extend_finite_nd(f)


# ---------------------------------------------------------------------------
# Extension of risometric data on a family of 1-D cells


def extend_cell_risometry_line(cells: Sequence[Cell1D],
                               pieces: Sequence[tuple[FieldElement, FieldElement]],
                               ) -> ExtendedFunction:
    """Extend affine risometric values from a disjoint cell family.

    Builds the family skeleton and its transported image, maps the cells
    by their pieces and the skeleton points by the induced point map, and
    averages over nearest skeleton points elsewhere.  The equivalent
    two-step route (skeleton-average part plus a zero-extension of the
    remainder) is exposed as the 'split' extra and must agree pointwise.
    """
    cells = list(cells)
    pieces = list(pieces)
    for i, a in enumerate(cells):
        for b in cells[i + 1:]:
            if cells_intersect(a, b):
                raise ExtensionError(f"cells overlap: {a!r} and {b!r}")
    transport = transport_skeleton(cells, pieces)
    field = cells[0].field
    skel_points = list(transport.source.points())

    def tilde(x: FieldElement) -> FieldElement | None:
        for cell, (a, b) in zip(cells, pieces):
            if cell.contains(x):
                return a * x + b
        for p, q in transport.point_map:
            if p == x:
                return q
        return None

    skeleton_average = _NearestAverage(
        {p: transport.map_point(p) for p in skel_points})

    def evaluate(x: Point) -> FieldElement:
        v = tilde(x.coords[0])
        if v is not None:
            return v
        return skeleton_average(x.coords[0])

    def evaluate_split(x: Point) -> FieldElement:
        g = skeleton_average(x.coords[0])
        v = tilde(x.coords[0])
        remainder = (v - g) if v is not None else field.zero()
        return g + remainder

    return ExtendedFunction(
        1, field, "cell-risometry", evaluate,
        description={"cells": len(cells),
                     "skeleton": [p.to_text() for p in skel_points]},
        extras={"split": evaluate_split, "transport": transport})


# ---------------------------------------------------------------------------
# Graph families over 1-D base cells


@dataclass(frozen=True, slots=True)
class GraphBranch:
    """An affine graph map into the last coordinate with an affine value."""

    phi_slope: FieldElement
    phi_intercept: FieldElement
    value_slope: FieldElement
    value_intercept: FieldElement

    def phi(self, x1: FieldElement) -> FieldElement:
        return self.phi_slope * x1 + self.phi_intercept

    def value(self, x1: FieldElement) -> FieldElement:
        return self.value_slope * x1 + self.value_intercept


@dataclass(frozen=True, slots=True)
class GraphFamily:
    base_cells: tuple[Cell1D, ...]
    branches: tuple[tuple[GraphBranch, ...], ...]

    def __post_init__(self):
        if len(self.base_cells) != len(self.branches):
            raise ExtensionError("one branch tuple per base cell required")
        for i, a in enumerate(self.base_cells):
            for b in self.base_cells[i + 1:]:
                if cells_intersect(a, b):
                    raise ExtensionError("base cells overlap")
        for cell, brs in zip(self.base_cells, self.branches):
            if not brs:
                raise ExtensionError("a base cell without branches")
            for br in brs:
                if br.phi_slope.norm() > NORM_ONE:
                    raise ExtensionError(
                        f"graph map slope {br.phi_slope!r} is not 1-Lipschitz")
            for j, b1 in enumerate(brs):
                for b2 in brs[j + 1:]:
                    if _graphs_cross(cell, b1, b2):
                        raise ExtensionError("branch graphs intersect")

    @property
    def field(self) -> FieldDescriptor:
        return self.base_cells[0].field


def _graphs_cross(cell: Cell1D, b1: GraphBranch, b2: GraphBranch) -> bool:
    ds = b1.phi_slope - b2.phi_slope
    di = b1.phi_intercept - b2.phi_intercept
    if ds.is_zero:
        return di.is_zero
    return cell.contains(-di / ds)


def origins(family: GraphFamily):
    """The finite origin set of the family and its image-center values.

    Origins pair each base skeleton point with the branch values of the
    graph maps there; the value of the extended function at an origin is
    the common center of the affine images of the attached cells.
    """
    skel = build_skeleton(family.base_cells)
    field = family.field
    grouped: dict[Point, list[tuple[Cell1D, GraphBranch]]] = {}
    for (cell, point), brs in zip(skel.attachments, family.branches):
        for br in brs:
            origin = Point((point, br.phi(point)))
            grouped.setdefault(origin, []).append((cell, br))
    out = []
    for origin in sorted(grouped, key=lambda p: p.sort_key()):
        images = []
        constants = []
        for cell, br in grouped[origin]:
            if br.value_slope.is_zero:
                constants.append(br.value_intercept)
            else:
                images.append(affine_image_cell(cell, br.value_slope,
                                                br.value_intercept))
        if images and constants:
            raise ExtensionError(
                f"mixed constant and moving values at origin {origin}")
        if constants:
            if any(c != constants[0] for c in constants):
                raise ExtensionError(
                    f"conflicting constant values at origin {origin}")
            e = constants[0]
        else:
            image_skel = build_skeleton(images)
            pts = image_skel.points()
            if len(pts) != 1:
                raise ExtensionError(
                    f"image cells at origin {origin} have no common center")
            e = pts[0]
        out.append((origin, e))
    return out, skel


def _fiberwise(family: GraphFamily, value_fn) -> ExtendedFunction:
    field = family.field

    def evaluate(x: Point) -> FieldElement:
        x1, x2 = x.coords
        for ci, cell in enumerate(family.base_cells):
            if cell.contains(x1):
                data = {}
                for bi, br in enumerate(family.branches[ci]):
                    data[br.phi(x1)] = value_fn(ci, bi, x1)
                return _NearestAverage(data)(x2)
        return field.zero()

    return ExtendedFunction(2, field, "graph-fiberwise", evaluate,
                            description={"cells": len(family.base_cells)})


def extend_graph_family(family: GraphFamily) -> ExtendedFunction:
    """The fiberwise nearest-average extension of a vanishing graph family.

    Requires the origin values to vanish; use the reduction pipeline for
    families that do not vanish at their origins.
    """
    olist, skel = origins(family)
    for origin, e in olist:
        if not e.is_zero:
            raise ExtensionError(
                f"value does not vanish at origin {origin}: {e!r}")
    _check_graph_estimates(family, skel)
    return _fiberwise(family, lambda ci, bi, x1: family.branches[ci][bi].value(x1))


def _check_graph_estimates(family: GraphFamily, skel):
    """Sampled exact check of the vanishing bound |f(x)| <= |x1 - center|."""
    for (cell, point), moved, brs in zip(skel.attachments, skel.recentered,
                                         family.branches):
        for bi in range(len(moved.boxes)):
            from .geometry import cell_member
            x1 = cell_member(moved, bi)
            for br in brs:
                if br.value(x1).norm() > x1.norm_of_difference(point):
                    raise ExtensionError(
                        f"value at {x1!r} exceeds the distance to the "
                        f"attached skeleton point {point!r}")


def extend_graph_family_via_reduction(family: GraphFamily) -> ExtendedFunction:
    """Subtract a finite extension of the origin values, extend fiberwise,
    and add it back; the reduced family vanishes at the origins."""
    olist, skel = origins(family)
    if all(e.is_zero for _, e in olist):
        return extend_graph_family(family)
    origin_fun = FiniteFunction(2, tuple((o, e) for o, e in olist))
    g = extend_finite_nd(origin_fun)
    for o, e in olist:
        if g(o) != e:
            raise ExtensionError(
                f"the origin extension misses the value at {o}")

    def reduced_value(ci, bi, x1):
        br = family.branches[ci][bi]
        return br.value(x1) - g(Point((x1, br.phi(x1))))

    reduced = _fiberwise(family, reduced_value)
    total = ext_sum(reduced, g, "graph-fiberwise-reduced")
    return ExtendedFunction(2, family.field, "graph-fiberwise-reduced",
                            total.evaluator,
                            description={"origins": len(olist)})


# ---------------------------------------------------------------------------
# The constant-scaling pipeline


def epsilon_pipeline(f: FiniteFunction, q: Fraction) -> ExtendedFunction:
    """Reduce to a risometry with |eps| = theta(-q), extend, and restore.

    The restored extension is eps-Lipschitz; on a dense value group q may
    be any positive rational, on a discrete one it must be realizable.
    """
    q = Fraction(q)
    if q <= 0:
        raise ExtensionError("the scaling exponent must be positive")
    field = f.field
    eps_elt = field.monomial(-q)
    eps = NormValue.theta(-q)
    axes = list(range(1, f.n + 1))
    g = reduce_to_risometry(f, eps, eps_elt, axes)
    G = extend_finite(g)

    def evaluate(x: Point) -> FieldElement:
        return restore_value(G.evaluator(x), x, eps_elt, axes)

    return ExtendedFunction(
        f.n, field, "reduce-extend-restore", evaluate,
        description={"epsilon_exponent": str(-q)},
        extras={"epsilon": eps})
