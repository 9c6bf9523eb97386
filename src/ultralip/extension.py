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
    NORM_ONE,
    CutValue,
    FieldDescriptor,
    FieldElement,
    NormValue,
    Point,
    integer_average,
    sum_over_count,
    warn_count,
)
from .geometry import Cell1D, cell_member, dist_to_set, first_intersecting_pair
from .balltree import Ball, BallTree
from .lipschitz import (
    FiniteFunction,
    NotLipschitzError,
    require_one_lipschitz,
    reduce_to_risometry,
    restore_value,
)
from .skeleton import affine_image_cell, build_skeleton, transport_skeleton


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


def ext_sum(a: ExtendedFunction, b: ExtendedFunction, provenance: str,
            description: dict) -> ExtendedFunction:
    if a.n != b.n or a.backend != b.backend:
        raise ExtensionError("summands do not match")
    return ExtendedFunction(a.n, a.backend, provenance,
                            lambda x: a.evaluator(x) + b.evaluator(x),
                            description)


# ---------------------------------------------------------------------------
# Nearest-point averaging (the line formula and its fiber version)


class _NearestAverage:
    """x -> the average of the values over the keys nearest to x.

    The nearest-point set is a node of the ball tree, so each node's
    average is computed on first use and kept, keyed by the node; the
    p-divisible-count warning still fires on every evaluation.

    With value_of given, data maps each key to what value_of turns into
    its value, and value_of is called only for the keys of the nodes that
    some query reaches.
    """

    def __init__(self, data: dict, value_of: Callable | None = None):
        self.values = list(data.values())
        self.value_of = value_of
        self.tree = BallTree(list(data))
        self.averages: dict[Ball, FieldElement] = {}

    def __call__(self, x) -> FieldElement:
        if self.tree.root is None:
            raise ValueError("average of an empty sequence")
        ball = self.tree.locate(x)[0]
        average = self.averages.get(ball)
        if average is None:
            values = [self.values[i] for i in ball.members]
            if self.value_of is not None:
                values = [self.value_of(v) for v in values]
            average = self.averages[ball] = sum_over_count(values)
        warn_count(average.field, len(ball.members))
        return average


def extend_finite_line(f: FiniteFunction) -> ExtendedFunction:
    """Average the values over the nearest-point set of the domain."""
    if f.n != 1:
        raise ExtensionError("the line extension needs one variable")
    # FiniteFunction rejects duplicate points, so the average's keys are
    # the domain in entry order and its tree serves the guard
    average = _NearestAverage({p.coords[0]: v for p, v in f.entries})
    require_one_lipschitz(f, tree=average.tree)
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
        x = x.coords[0]
    return dist_to_set(x, targets)


def _all_strictly_above(cut_a: CutValue, cut_b: CutValue) -> bool:
    """Whether every distance behind cut_b strictly exceeds the cut_a infimum."""
    if cut_b.attained:
        return cut_a < cut_b
    return cut_a <= cut_b


def glue_conditions(x: Point, a_set, b_set) -> tuple[bool, bool]:
    """The two symmetric nearness conditions, decided through distance cuts.

    cond1 holds when every point of B has a point of A strictly nearer to
    x, cond2 when every point of A has a point of B strictly nearer, so
    cond1 holds for an empty B and cond2 for an empty A.  glue_vanishing
    takes this route for cell targets, alone or mixed with points.
    """
    da = _dist_or_none(x, a_set)
    db = _dist_or_none(x, b_set)
    cond1 = True if db is None else (da is not None and _all_strictly_above(da, db))
    cond2 = True if da is None else (db is not None and _all_strictly_above(db, da))
    return cond1, cond2


def glue_conditions_pointwise(x: Point, a_points, b_points) -> tuple[bool, bool]:
    """Quantifier evaluation over finite sets, the reference for the cut
    and tree routes.  Each distance to x is computed once, so the cost is
    |A| + |B| differences and |A|·|B| norm comparisons."""
    da = [x.norm_of_difference(a) for a in a_points]
    db = [x.norm_of_difference(b) for b in b_points]
    cond1 = all(any(d < bound for d in da) for bound in db)
    cond2 = all(any(d < bound for d in db) for bound in da)
    return cond1, cond2


def _tree_conditions(a_points: Sequence[Point], b_points: Sequence[Point]):
    """The glue conditions on finite point sets, from one ball tree.

    The nearest-point set of x in A + B is one node of its ball tree, so
    cond1 (every point of B has a point of A strictly nearer) holds iff
    that node holds no point of B, and cond2 iff it holds no point of A;
    a shared point or a tie gives (False, False).  A node's members are
    indices in input order, A's first, so its first and last member
    decide.  With A + B empty both conditions hold, as on the cut route.
    """
    split = len(a_points)
    tree = BallTree([*a_points, *b_points])

    def conditions(x: Point) -> tuple[bool, bool]:
        if tree.root is None:
            return True, True
        members = tree.locate(x)[0].members
        return members[-1] < split, members[0] >= split

    return conditions


def glue_vanishing(a_data, b_set, extension_of_a: ExtendedFunction,
                   check: bool = True) -> ExtendedFunction:
    """Glue an extension of f|A with the zero function across B.

    a_data is a FiniteFunction (or a list of cells); b_set is a finite
    point list or cell list on which the glued function vanishes.  The
    result follows the condition table: the extension value where A is
    strictly nearer, zero where B is at least tied.  When both sides are
    finite point sets, the conditions are read off one ball tree of A + B
    built here, one walk per evaluation; cell targets take the cut route
    of glue_conditions.  The condition function is the 'conditions' extra.
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
    if all(isinstance(p, Point) for p in (*a_targets, *b_targets)):
        conditions = _tree_conditions(a_targets, b_targets)
    else:
        def conditions(x: Point) -> tuple[bool, bool]:
            return glue_conditions(x, a_targets, b_targets)

    def evaluate(x: Point) -> FieldElement:
        cond1, cond2 = conditions(x)
        if cond1 and not cond2:
            return F.evaluator(x)
        return F.backend.zero()

    return ExtendedFunction(
        F.n, F.backend, "glue-vanishing", evaluate,
        description={"a_size": len(a_targets), "b_size": len(b_targets)},
        extras={"conditions": conditions})


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


def glue_union(parts: Sequence[FiniteFunction]) -> ExtendedFunction:
    """Extend a function given piecewise on finitely many parts.

    Follows the inductive composition: extend the last part, subtract it,
    glue the difference (which vanishes there) against the rest, and sum.
    The order of the parts is part of the construction; the result is
    deterministic for a fixed order.
    """
    parts = list(parts)
    if not parts:
        raise ExtensionError("no parts to glue")
    combined = union_function(parts)
    require_one_lipschitz(combined, "the combined function")
    if len(parts) == 1:
        return extend_finite_nd(parts[0])

    last = parts[-1]
    f_last = extend_finite_nd(last)
    rest_parts = []
    for part in parts[:-1]:
        entries = tuple((p, v - f_last(p)) for p, v in part.entries)
        rest_parts.append(FiniteFunction(part.n, entries))
    f_rest = glue_union(rest_parts)
    rest_domain = union_function(rest_parts)
    glued = glue_vanishing(rest_domain, last.domain(), f_rest, check=False)
    return ext_sum(glued, f_last, "glue-union", {"parts": len(parts)})


# ---------------------------------------------------------------------------
# The distance ladder over the first coordinate


def _combine(privileged: dict, others: Sequence[dict], ball_of: dict) -> dict:
    """Merge sibling fiber data around a privileged fiber at one scale.

    ball_of labels every key with (its index in sort_key order, its open
    ball at the scale), so each sibling's keys are sorted by index, not by
    sort_key, and no ordering of elements runs.  Privileged
    entries are kept verbatim; foreign keys in a ball that holds a
    privileged key are dropped, and the rest are averaged by ball, every
    key of a ball receiving the ball average (counted with multiplicity
    across siblings).
    """
    merged = dict(privileged)
    held = {ball_of[e][1] for e in privileged}
    balls: dict[Ball, tuple[list, list]] = {}
    for data in others:
        # indices are unique, so the sort never compares keys or values
        for (_, ball), w, val in sorted([(ball_of[w], w, val)
                                         for w, val in data.items()]):
            if ball not in held:
                pts, vals = balls.setdefault(ball, ([], []))
                pts.append(w)
                vals.append(val)
    for pts, vals in balls.values():
        avg = integer_average(vals)
        for w in pts:
            merged[w] = avg
    return merged


class _Ladder:
    """Staged fiber data along the ball tree of the base points.

    A stage piece is indexed by a parent node and one of its children: it
    applies when the base coordinate lies in the child's open strip at the
    parent scale and the fiber coordinate lies within the parent scale of
    the class grid.  Its data is the child's class data combined with its
    siblings' at the parent scale; a node's class data is the data of its
    piece at its first child, or its fiber for a leaf.  Evaluation walks
    to the finest applicable piece; when no piece below the root applies,
    the piece (None, root), the root's class data, decides, making the
    value independent of the base coordinate far out.  Each data dict is
    extended along the fiber once, by extend_fiber.

    All fiber keys share one ball tree, and every scale's open balls of
    keys are nodes of it, read off each key's root-to-leaf path.  So an
    evaluation walks the base tree once and the key tree once, the latter
    only as deep as the base scale reached.
    """

    def __init__(self, bases: list, fibers: list[dict], extend_fiber):
        # bases are sorted by sort_key, so every node's center (its first
        # member) is its rep: the member with the smallest sort_key
        self.fibers = fibers
        self.extend_fiber = extend_fiber
        self.tree = BallTree(bases)
        # the keys in sort_key order, and each fiber's keys as indices into
        # them: every key is hashed once per fiber that holds it
        first: dict = {}
        held = [[first.setdefault(k, len(first)) for k in fiber]
                for fiber in fibers]
        seen = list(first)
        order = sorted(range(len(seen)), key=lambda j: seen[j].sort_key())
        rank = {j: i for i, j in enumerate(order)}
        self.keys = [seen[j] for j in order]
        self._fiber_keys = [[rank[j] for j in js] for js in held]
        self.key_tree = BallTree(self.keys)
        # key index -> the key-tree nodes from the root to its leaf
        self._paths: list[list[Ball]] = [[] for _ in self.keys]
        stack = [(self.key_tree.root, [])]
        while stack:
            ball, path = stack.pop()
            path = path + [ball]
            if ball.children:
                stack.extend((c, path) for c in ball.children.values())
            else:
                for m in ball.members:
                    self._paths[m] = path
        self._data: dict[tuple, dict] = {}
        self._grid: dict[int, tuple[frozenset, dict]] = {}
        self._pieces: dict[int, Callable] = {}  # by id of the data dict

    def _data_of(self, parent: Ball | None, node: Ball) -> dict:
        """The data of the piece (parent, node), built once."""
        if parent is None:
            if not node.children:
                return self.fibers[node.center]
            parent, node = node, next(iter(node.children.values()))
        key = (id(parent), id(node))
        got = self._data.get(key)
        if got is None:
            others = [self._data_of(None, c) for c in parent.children.values()
                      if c is not node]
            got = _combine(self._data_of(None, node), others,
                           self._grid_of(parent)[1])
            self._data[key] = got
        return got

    def _grid_of(self, node: Ball) -> tuple[frozenset, dict]:
        """The open balls of radius theta(node.radius) that hold a fiber key
        over node, and each such key's index in self.keys and ball: the
        first key-tree node on the key's path whose radius exponent exceeds
        node.radius."""
        got = self._grid.get(id(node))
        if got is None:
            r = node.radius
            ball_of = {}
            for j in {j for i in node.members for j in self._fiber_keys[i]}:
                ball_of[self.keys[j]] = j, next(
                    b for b in self._paths[j] if b.radius > r)
            got = self._grid[id(node)] = (
                frozenset(b for _, b in ball_of.values()), ball_of)
        return got

    def view(self, u, v) -> Callable:
        """The fiber extension that answers at base u and fiber point v.

        The walk goes down the base tree toward u, and down the key tree
        toward v as far as each base scale r needs: there v's open ball of
        radius theta(r) is the first node on v's way whose radius exceeds
        r, if v lies within theta(r) of that node's center, and the base
        walk goes on while a key over the base node lies in that ball.
        """
        key_tree = self.key_tree
        ball, step = key_tree.root, None  # entered, and its step once taken
        parent = None
        current = self.tree.root
        while current.children:
            child = self.tree.child_toward(current, u)
            if child is None:
                break
            r = current.radius
            while True:
                if step is None:
                    step = key_tree._step(ball, v)
                if ball.radius > r or step[1] is None:
                    break
                ball, step = step[1], None
            # step[0] is v's distance exponent to the ball's center, or the
            # ball's radius when v lies in one of its children
            if not (ball.radius > r and step[0] > r
                    and ball in self._grid_of(current)[0]):
                break
            parent, current = current, child
        # (None, root) and (root, first child) share one data dict
        data = self._data_of(parent, current)
        got = self._pieces.get(id(data))
        if got is None:
            got = self._pieces[id(data)] = self.extend_fiber(data)
        return got


def _fiber_map(f: FiniteFunction, rest) -> tuple[list, list[dict]]:
    """The base points in sort_key order and the fiber data over each."""
    fiber_map: dict = {}
    for p, v in f.entries:
        fiber_map.setdefault(p.coords[0], {})[rest(p)] = v
    bases = sorted(fiber_map, key=lambda k: k.sort_key())
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
        try:
            return extend_finite_nd(FiniteFunction(f.n - 1, entries)).evaluator
        except NotLipschitzError as e:  # f passed, so averaging broke it
            fiber = [p.to_text() for p, _ in entries]
            raise NotLipschitzError(
                f"the ladder's combined fiber {fiber} is not 1-Lipschitz; the "
                f"input is, but averaging over a count divisible by p can "
                f"raise norms", e.witness) from None

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
    overlap = first_intersecting_pair(cells)
    if overlap is not None:
        a, b = overlap
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
        if first_intersecting_pair(self.base_cells) is not None:
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
    """x -> the average of value_fn(ci, bi, x1) over the branches bi of
    x1's base cell ci whose graph points phi_b(x1) are nearest to x2; zero
    off the base cells.  The fiber is keyed by graph point first, so of
    branches sharing one the last counts, at the first one's position, and
    value_fn runs only for the nearest branches."""
    field = family.field

    def evaluate(x: Point) -> FieldElement:
        x1, x2 = x.coords
        for ci, cell in enumerate(family.base_cells):
            if cell.contains(x1):
                fiber = {br.phi(x1): bi
                         for bi, br in enumerate(family.branches[ci])}
                return _NearestAverage(
                    fiber, lambda bi: value_fn(ci, bi, x1))(x2)
        return field.zero()

    return ExtendedFunction(2, field, "graph-fiberwise", evaluate,
                            description={"cells": len(family.base_cells)})


def extend_graph_family(family: GraphFamily) -> ExtendedFunction:
    """The fiberwise nearest-average extension of a vanishing graph family.

    Requires the origin values to vanish; use the reduction pipeline for
    families that do not vanish at their origins.
    """
    return _extend_vanishing(family, *origins(family))


def _extend_vanishing(family: GraphFamily, olist, skel) -> ExtendedFunction:
    """extend_graph_family on the origins and skeleton origins() gave."""
    for origin, e in olist:
        if not e.is_zero:
            raise ExtensionError(
                f"value does not vanish at origin {origin}: {e!r}")
    _check_graph_estimates(family, skel)
    F = _fiberwise(family, lambda ci, bi, x1: family.branches[ci][bi].value(x1))
    F.extras["origins"] = olist
    return F


def _check_graph_estimates(family: GraphFamily, skel):
    """Sampled exact check of the vanishing bound |f(x)| <= |x1 - center|."""
    for (cell, point), moved, brs in zip(skel.attachments, skel.recentered,
                                         family.branches):
        for bi in range(len(moved.boxes)):
            x1 = cell_member(moved, bi)
            for br in brs:
                if br.value(x1).norm() > x1.norm_of_difference(point):
                    raise ExtensionError(
                        f"value at {x1!r} exceeds the distance to the "
                        f"attached skeleton point {point!r}")


def extend_graph_family_via_reduction(family: GraphFamily) -> ExtendedFunction:
    """Subtract a finite extension of the origin values, extend fiberwise,
    and add it back; the reduced family vanishes at the origins.  The
    origins and their values are kept as the 'origins' extra."""
    olist, skel = origins(family)
    if all(e.is_zero for _, e in olist):
        return _extend_vanishing(family, olist, skel)
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
    F = ext_sum(reduced, g, "graph-fiberwise-reduced", {"origins": len(olist)})
    F.extras["origins"] = olist
    return F


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
        description={"epsilon_exponent": str(-q)})
