"""A reference for the graph family extension, written from its
definition.

A graph family gives, over each base cell C, branches b with graph maps
phi_b and affine values value_b.  Let g be the finite extension of the
origin values (`origins`), the ladder of `tests/ladder_reference.py`, or
zero when every origin value vanishes.  The extension at x = (x1, x2) is:

* for x1 in a base cell, the plain average of
  value_b(x1) - g(x1, phi_b(x1)) over the branches b of that cell whose
  graph point phi_b(x1) is nearest to x2, plus g(x);
* off the base cells, g(x).

The origins and their values are taken as given (`origins`).  The nearest
branches are found by comparing the distances from x2 to every graph
point, and g is the reference ladder, so nothing is shared with the ball
tree, `_NearestAverage` or `_Ladder` that the library runs.
"""

from __future__ import annotations

from ultralip.extension import GraphFamily, origins
from ultralip.field import Point
from ultralip.lipschitz import FiniteFunction

from ladder_reference import ReferenceLadder, _average, _dist


class ReferenceGraphExtension:
    """The extension of a graph family, evaluated by its definition."""

    def __init__(self, family: GraphFamily):
        self.family = family
        olist, _ = origins(family)
        self.g = None if all(e.is_zero for _, e in olist) else \
            ReferenceLadder(FiniteFunction(2, tuple(olist)))

    def _origin_part(self, x: Point):
        return self.family.field.zero() if self.g is None else self.g(x)

    def __call__(self, x: Point):
        x1, x2 = x.coords
        family = self.family
        for cell, branches in zip(family.base_cells, family.branches):
            if cell.contains(x1):
                graph = [br.phi(x1) for br in branches]
                distances = [_dist(x2, y) for y in graph]
                nearest = min(distances)
                reduced = [br.value(x1) - self._origin_part(Point((x1, y)))
                           for br, y, d in zip(branches, graph, distances)
                           if d == nearest]
                return _average(reduced) + self._origin_part(x)
        return self._origin_part(x)
