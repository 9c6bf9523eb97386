"""The ball tree of a finite set of field elements or points.

A finite ultrametric space is a tree (Hughes, Trees and ultrametric
spaces, 2004): every node is a closed ball of the set, of radius its
diameter, and its children are the open balls of that radius inside it.
The tree is built top-down.  At each node the center is the first member,
the diameter is the largest distance from it, and every member goes to
the child keyed by the residue of its difference to the center at the
diameter's exponent.  Distances are carried as raw valuation exponents
(math.inf for zero), so a larger exponent is a smaller distance.

Two exact facts make the queries cheap:

* f is eps-Lipschitz iff at every node of diameter r the values of the
  members outside the center's child lie within eps*r of the center's;
* the nearest-point set of x is a whole node, found by walking down
  through the children holding x, one difference per level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .field import FieldElement, Point

INF = math.inf


@dataclass(eq=False, slots=True)
class Ball:
    """One node: member indices in input order, the first being the center."""

    center: int
    members: tuple[int, ...]
    radius: object  # the diameter's exponent; INF for a single point
    children: dict = field(default_factory=dict)  # residue -> Ball


def _coords(key) -> tuple:
    return key.coords if isinstance(key, Point) else (key,)


def _leads(xs: tuple, cs: tuple) -> list:
    return [x.lead_of_difference(c) for x, c in zip(xs, cs)]


def _residue(leads: list, r) -> tuple:
    return tuple(u if e == r else None for e, u in leads)


def _value_exponent(a: FieldElement, b: FieldElement):
    """The raw exponent of |a - b|, INF when a == b."""
    n = a.norm_of_difference(b)
    return INF if n.is_zero else n.exponent


class BallTree:
    """The ball tree of keys (field elements or points of one dimension).

    Keys may repeat; equal keys end in one node of radius INF.  Building
    takes O(n * depth) differences, a query O(depth).
    """

    def __init__(self, keys: Sequence):
        self._coords = [_coords(k) for k in keys]
        self.nodes: list[Ball] = []
        self.root = self._build() if self._coords else None

    def _build(self) -> Ball:
        root = Ball(0, tuple(range(len(self._coords))), INF)
        stack = [(root, None)]
        while stack:
            node, leads = stack.pop()
            self.nodes.append(node)
            c, rest = node.center, node.members[1:]
            if leads is None:
                cs = self._coords[c]
                leads = [_leads(self._coords[m], cs) for m in rest]
            dists = [min(e for e, _ in lead) for lead in leads]
            node.radius = min(dists, default=INF)
            if node.radius == INF:
                continue
            own = (None,) * len(self._coords[c])  # the center's residue
            groups: dict[tuple, list] = {own: [[c], []]}
            for m, lead in zip(rest, leads):
                res = _residue(lead, node.radius)
                group = groups.setdefault(res, [[], None])
                group[0].append(m)
                if res == own:
                    group[1].append(lead)
            for res, (members, known) in groups.items():
                child = Ball(members[0], tuple(members), INF)
                node.children[res] = child
                stack.append((child, known))
        return root

    def _step(self, node: Ball, x) -> tuple:
        """(d, child): child is the child of node whose open ball holds x,
        else None, and then d is the exponent of x's distance to node."""
        leads = _leads(_coords(x), self._coords[node.center])
        d = min(e for e, _ in leads)
        if not node.children or d < node.radius:
            return d, None
        return node.radius, node.children.get(_residue(leads, node.radius))

    def child_toward(self, node: Ball, x) -> Ball | None:
        """The child of node whose open ball holds x, else None."""
        return self._step(node, x)[1]

    def locate(self, x) -> tuple[Ball, object]:
        """The node whose members are the keys nearest to x, and the
        exponent of their distance to x."""
        node = self.root
        while True:
            d, child = self._step(node, x)
            if child is None:
                return node, d
            node = child

    def lipschitz_ok(self, values: Sequence[FieldElement], eps) -> bool:
        """Whether |values[i] - values[j]| <= theta(eps) * |keys[i] - keys[j]|
        for all i, j; eps is a raw exponent."""
        for node in self.nodes:
            if node.children:
                far = [m for child in node.children.values()
                       if child.center != node.center for m in child.members]
            else:
                far = node.members[1:]
            fc = values[node.center]
            need = eps + node.radius
            for m in far:
                if _value_exponent(values[m], fc) < need:
                    return False
        return True
