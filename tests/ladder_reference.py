"""A reference for the distance ladder, written from its definition.

The staged construction for finite data f on K^n, n >= 2, at x = (u, v)
with u the first coordinate and v the rest:

* the bases are the first coordinates of the data, and the fiber over a
  base b maps v to f(b, v);
* a ball of bases is split at its diameter delta into classes, the open
  balls of radius delta; the privileged class holds the ball's least
  base in sort_key order;
* combining a privileged fiber with sibling fibers at scale delta keeps
  the privileged entries, drops the sibling keys closer than delta to a
  privileged key, and gives every other sibling key the average of
  all sibling values in its open ball of radius delta (a key held by two
  siblings counts twice);
* the class datum of a ball is its fiber for a single base, else its
  privileged class's datum combined with its other classes' data at the
  ball's diameter;
* the ladder walks from all bases down the classes toward u: it goes on
  from a ball S of diameter delta into the class closer than delta to u,
  if there is one and v is closer than delta to a fiber key over S; the
  combined fiber is the datum of the last class entered combined with
  its siblings' at delta, or the class datum of all bases if the walk
  never went down;
* the value at x is the combined fiber's extension at v: the average of
  its values over its keys nearest to v for n = 2, this construction one
  dimension down for n > 2.  A combined fiber that is not 1-Lipschitz is
  refused.

Every ball, class and nearest set here is found by comparing pairwise
distances, so nothing is shared with the ball tree, `_combine`,
`_Ladder` or `_NearestAverage` that the library runs.  The cost is
O(n^2) differences per ball, which suits tests only.
"""

from __future__ import annotations

from ultralip.field import Point
from ultralip.lipschitz import FiniteFunction


class FiberRefused(ValueError):
    """A combined fiber is not 1-Lipschitz."""


def _dist(a, b):
    return a.norm_of_difference(b)


def _average(values: list):
    total = values[0]
    for v in values[1:]:
        total = total + v
    return total / values[0].field.from_int(len(values))


def _classes(ball: list, delta) -> list[list]:
    """The open balls of radius delta that split ball, in the order of
    their first members; ball is in sort_key order."""
    classes: list[list] = []
    for b in ball:
        for c in classes:
            if _dist(b, c[0]) < delta:
                c.append(b)
                break
        else:
            classes.append([b])
    return classes


def _combine(privileged: dict, others: list[dict], delta) -> dict:
    merged = dict(privileged)
    balls: list[tuple[list, list]] = []  # (keys, values) per open ball
    for data in others:
        for w, value in data.items():
            if any(_dist(w, e) < delta for e in privileged):
                continue
            for keys, values in balls:
                if _dist(w, keys[0]) < delta:
                    keys.append(w)
                    values.append(value)
                    break
            else:
                balls.append(([w], [value]))
    for keys, values in balls:
        average = _average(values)
        for w in keys:
            merged[w] = average
    return merged


def _check_fiber(data: dict) -> None:
    items = list(data.items())
    for i, (p, fp) in enumerate(items):
        for q, fq in items[i + 1:]:
            if _dist(fp, fq) > _dist(p, q):
                raise FiberRefused(f"combined fiber breaks the bound at "
                                   f"{p.to_text()}, {q.to_text()}")


class ReferenceLadder:
    """The staged construction of f (n >= 2), evaluated by its definition;
    diameters, class data, pieces and averages are kept once computed."""

    def __init__(self, f: FiniteFunction):
        if f.n < 2:
            raise ValueError("the ladder needs two or more variables")
        self.n = f.n
        self.fibers: dict = {}
        for p, value in f.entries:
            self.fibers.setdefault(p.coords[0], {})[
                Point(p.coords[1:])] = value
        self.bases = sorted(self.fibers, key=lambda b: b.sort_key())
        self.keys = {w for fiber in self.fibers.values() for w in fiber}
        self._diameters: dict[tuple, object] = {}
        self._class_data: dict[tuple, dict] = {}
        self._pieces: dict[tuple, tuple] = {}
        self._averages: dict[tuple, object] = {}

    def _diameter(self, ball: list):
        got = self._diameters.get(tuple(ball))
        if got is None:
            got = self._diameters[tuple(ball)] = max(
                _dist(a, b) for i, a in enumerate(ball) for b in ball[i + 1:])
        return got

    def class_datum(self, ball: list) -> dict:
        got = self._class_data.get(tuple(ball))
        if got is None:
            if len(ball) == 1:
                got = self.fibers[ball[0]]
            else:
                delta = self._diameter(ball)
                first, *rest = _classes(ball, delta)
                got = _combine(self.class_datum(first),
                               [self.class_datum(c) for c in rest], delta)
            self._class_data[tuple(ball)] = got
        return got

    def combined_fiber(self, parent: list | None, ball: list) -> dict:
        """The combined fiber of ball among its siblings in parent, or
        the class datum of ball when parent is None."""
        if parent is None:
            return self.class_datum(ball)
        delta = self._diameter(parent)
        siblings = [c for c in _classes(parent, delta) if c != ball]
        return _combine(self.class_datum(ball),
                        [self.class_datum(c) for c in siblings], delta)

    def walk(self, u, v) -> tuple[list | None, list, dict]:
        """The ball where the walk toward (u, v) stops, the ball it came
        from (None if it never went down), and v's distance to every
        fiber key."""
        du = {b: _dist(u, b) for b in self.bases}
        dv = {w: _dist(v, w) for w in self.keys}
        parent, ball = None, self.bases
        while len(ball) > 1:
            delta = self._diameter(ball)
            toward = [b for b in ball if du[b] < delta]
            if not toward or not any(dv[w] < delta for b in ball
                                     for w in self.fibers[b]):
                break
            parent, ball = ball, toward
        return parent, ball, dv

    def piece(self, parent: list | None, ball: list) -> tuple[dict, object]:
        """The combined fiber of (parent, ball), refused unless it is
        1-Lipschitz, and for n > 2 its extension one dimension down."""
        name = (None if parent is None else tuple(parent), tuple(ball))
        got = self._pieces.get(name)
        if got is None:
            data = self.combined_fiber(parent, ball)
            _check_fiber(data)
            below = None if self.n == 2 else ReferenceLadder(FiniteFunction(
                self.n - 1,
                tuple(sorted(data.items(), key=lambda kv: kv[0].sort_key()))))
            got = self._pieces[name] = data, below
        return got

    def __call__(self, x: Point):
        u, v = x.coords[0], Point(x.coords[1:])
        parent, ball, dv = self.walk(u, v)
        data, below = self.piece(parent, ball)
        if below is not None:
            return below(v)
        # the nearest-point average; a combined fiber's keys are fiber
        # keys, so dv holds their distances
        nearest = min(dv[w] for w in data)
        entries = tuple((w, value) for w, value in data.items()
                        if dv[w] == nearest)
        got = self._averages.get(entries)
        if got is None:
            got = self._averages[entries] = _average([v for _, v in entries])
        return got
