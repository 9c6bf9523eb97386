"""A reference for the cell risometry extension, written from its
definition.

For disjoint 1-D cells C_i with risometric affine pieces x -> a_i·x + b_i,
whose skeleton S is transported to the image skeleton by a point map
p -> p', the extension at x is:

* a_i·x + b_i when x lies in a cell C_i;
* p' when x is a skeleton point p;
* anywhere else, the plain average of p' over the skeleton points p
  nearest to x.

The skeleton and its transport are taken as given (`transport_skeleton`),
since they have their own verdicts (`configuration-preserved`, and the
`skeleton` command's).  The nearest set is found by comparing the
distances from x to every skeleton point, so nothing is shared with the
ball tree or `_NearestAverage` that the library runs.
"""

from __future__ import annotations

from ultralip.field import Point
from ultralip.skeleton import transport_skeleton

from ladder_reference import _average, _dist


class ReferenceCellExtension:
    """The cell risometry extension of (cells, pieces), evaluated by its
    definition at points of the line."""

    def __init__(self, cells, pieces):
        self.cells = list(cells)
        self.pieces = list(pieces)
        transport = transport_skeleton(self.cells, self.pieces)
        self.images = [(p, transport.map_point(p))
                       for p in transport.source.points()]

    def __call__(self, x: Point):
        (u,) = x.coords
        for cell, (a, b) in zip(self.cells, self.pieces):
            if cell.contains(u):
                return a * u + b
        for p, image in self.images:
            if p == u:
                return image
        distances = [_dist(u, p) for p, _ in self.images]
        nearest = min(distances)
        return _average([image for (_, image), d
                         in zip(self.images, distances) if d == nearest])
