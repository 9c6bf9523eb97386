"""Text and JSON forms for field elements, cells, functions, skeletons.

The element grammar is the canonical JSON-embedded representation:
p-adic elements are written "num/den"; series elements are written
"(c1*t^e1 + ...)/(d1*t^f1 + ...)" with rational coefficients and integer
or parenthesised rational exponents, in ASCII digits.  One reader takes
all series text, strict in structure but tolerant of whitespace, term
order and a missing trivial denominator; terms it finds already in
canonical form are built as they stand, others are reduced.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .field import (
    CutValue,
    FieldDescriptor,
    FieldElement,
    NormValue,
    Point,
    RVValue,
)
from .field import _ONE_POLY, _ZERO, _proved_coprime, _pshift
from .geometry import AnnulusBox, Cell1D, ExactBox, RVBox
from .lipschitz import FiniteFunction
from .extension import GraphBranch, GraphFamily
from .skeleton import Skeleton


class InstanceError(ValueError):
    """A located parsing or validation error in an instance payload."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


# ---------------------------------------------------------------------------
# Rational and element text


def parse_rational(s, path="rational") -> Fraction:
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, str):
        m = re.fullmatch(r"\s*(-?[0-9]+)\s*(?:/\s*(-?[0-9]+)\s*)?", s)
        if m:
            try:
                num = int(m.group(1))
                den = int(m.group(2)) if m.group(2) else 1
            except ValueError as e:  # past int's digit limit
                raise InstanceError(path, str(e))
            if den == 0:
                raise InstanceError(path, "zero denominator")
            return Fraction(num, den)
    raise InstanceError(path, f"not a rational: {s!r}")


def emit_rational(q: Fraction):
    return int(q) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# a term is c, c*t, c*t^e, t or t^e, with c = n or n/d and e = n or (n/d);
# a side is (N), or (N)/(D), whose terms hold one level of parentheses
_TERM_RE = re.compile(
    r"(?:(-?[0-9]+)(?:/([0-9]+))?(?:\*(?=t)|\Z))?"
    r"(?:(t)(?:\^(?:(-?[0-9]+)|\((-?[0-9]+)/(-?[0-9]+)\)))?)?")
_SIDES_RE = re.compile(r"\(((?:[^()]|\([^()]*\))*)\)"
                       r"(?:/\(((?:[^()]|\([^()]*\))*)\))?")
_ONE = Fraction(1)


def _read_terms(s: str, path: str, integral: bool) -> tuple[tuple, bool]:
    """The (exponent, coefficient) terms of one side, as written, and
    whether they are canonical: nonzero coefficients, strictly increasing
    exponents, and no parenthesised exponent if integral.  Exponents are
    Fractions, except unparenthesised ones if integral, which are ints."""
    s = s.strip().replace(" ", "")
    if s in ("", "0"):
        return (), True
    zero, one = (0, 1) if integral else (_ZERO, _ONE)
    terms = []
    canonical = True
    for chunk in s.split("+"):
        if not chunk:
            raise InstanceError(path, "empty term")
        m = _TERM_RE.fullmatch(chunk)
        if m is None:
            raise InstanceError(path, f"bad term {chunk!r}")
        cn, cd, t, e, en, ed = m.groups()
        if cn is None:
            c = _ONE
        elif cd is None:
            c = Fraction(int(cn))
        else:
            c = Fraction(int(cn), int(cd))
        if t is None:
            e = zero
        elif en is not None:
            e = Fraction(int(en), int(ed))
        elif e is None:
            e = one
        else:
            e = int(e) if integral else Fraction(int(e))
        if not c or terms and e <= terms[-1][0] or integral and en is not None:
            canonical = False
        terms.append((e, c))
    return tuple(terms), canonical


def _split_fraction(s: str, path: str) -> tuple[str, str | None]:
    s = s.strip()
    if not s.startswith("("):
        return s, None
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                head, rest = s[1:i], s[i + 1:].strip()
                if not rest:
                    return head, None
                if rest.startswith("/"):
                    rest = rest[1:].strip()
                    if rest.startswith("(") and rest.endswith(")"):
                        return head, rest[1:-1]
                raise InstanceError(path, f"malformed fraction {s!r}")
    raise InstanceError(path, f"unbalanced parentheses in {s!r}")


def parse_element(field: FieldDescriptor, s, path="element") -> FieldElement:
    """Canonical series terms are built as they stand, once _proved_coprime
    shows two sides of two or more terms reduced; other terms go to
    from_terms."""
    if not isinstance(s, str):
        raise InstanceError(path, f"expected an element string, got {type(s).__name__}")
    if not field.is_series:
        return field.from_rational(parse_rational(s, path))
    m = _SIDES_RE.fullmatch(s)
    num_s, den_s = m.groups() if m else _split_fraction(s, path)
    integral = not field.dense_value_group
    try:
        num, canonical = _read_terms(num_s, path, integral)
        if den_s is None:
            den = _ONE_POLY
        else:
            den, den_canonical = _read_terms(den_s, path, integral)
            canonical = canonical and den_canonical and den[:1] == _ONE_POLY
        if canonical:
            if not num or len(den) == 1:
                return FieldElement(field, num, _ONE_POLY)
            if len(num) == 1 or _proved_coprime(_pshift(num, -num[0][0]), den):
                return FieldElement(field, num, den)
        return field.from_terms(num, den)
    except InstanceError:
        raise
    except ZeroDivisionError:  # in a term's rational, or from_terms's
        raise InstanceError(path, "zero denominator")
    except ValueError as e:  # from_terms's exponents, or int's digit limit
        raise InstanceError(path, str(e))


def emit_element(e: FieldElement) -> str:
    return e.to_text()


def parse_point(field: FieldDescriptor, xs, n: int, path="point") -> Point:
    if not isinstance(xs, list) or len(xs) != n:
        raise InstanceError(path, f"expected a list of {n} coordinates")
    return Point(tuple(parse_element(field, x, f"{path}[{i}]")
                       for i, x in enumerate(xs)))


# ---------------------------------------------------------------------------
# Norms, cuts, boxes, cells


def parse_norm(obj, path="norm") -> NormValue:
    if obj is None:
        return NormValue.zero()
    return NormValue.theta(parse_rational(obj, path))


def emit_norm(n: NormValue):
    return None if n.is_zero else emit_rational(n.exponent)


def parse_cut(obj, path="cut") -> CutValue:
    if not isinstance(obj, dict) or "attained" not in obj:
        raise InstanceError(path, "expected {'ord': ..., 'attained': bool}")
    return CutValue(parse_norm(obj.get("ord"), f"{path}.ord"),
                    bool(obj["attained"]))


def emit_cut(c: CutValue) -> dict:
    return {"ord": emit_norm(c.norm), "attained": c.attained}


def parse_box(field: FieldDescriptor, obj, path="box") -> RVBox:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise InstanceError(path, "expected {'exact': ...} or {'annulus': ...}")
    kind, body = next(iter(obj.items()))
    if kind not in ("exact", "annulus"):
        raise InstanceError(path, f"unknown box kind {kind!r}")
    if not isinstance(body, dict):
        raise InstanceError(f"{path}.{kind}", "expected an object")
    if kind == "exact":
        if body.get("ord") is None:
            return ExactBox(RVValue.zero())
        exp = parse_rational(body["ord"], f"{path}.ord")
        unit = parse_rational(body.get("unit", 1), f"{path}.unit")
        try:
            return ExactBox(RVValue(field.check_exponent(exp), unit,
                                    field.prime))
        except ValueError as e:
            raise InstanceError(path, str(e))
    if "lower" not in body or "upper" not in body:
        raise InstanceError(f"{path}.annulus", "expected 'lower' and 'upper'")
    lower = parse_cut(body["lower"], f"{path}.lower")
    upper = parse_cut(body["upper"], f"{path}.upper")
    unit = body.get("unit")
    unit = None if unit is None else parse_rational(unit, f"{path}.unit")
    try:
        return AnnulusBox(lower, upper, unit)
    except ValueError as e:
        raise InstanceError(path, str(e))


def emit_box(b: RVBox) -> dict:
    if isinstance(b, ExactBox):
        if b.rv.is_zero:
            return {"exact": {"ord": None, "unit": None}}
        return {"exact": {"ord": emit_rational(b.rv.exponent),
                          "unit": emit_rational(b.rv.unit)}}
    return {"annulus": {
        "lower": emit_cut(b.lower),
        "upper": emit_cut(b.upper),
        "unit": None if b.unit is None else emit_rational(b.unit)}}


def parse_cell(field: FieldDescriptor, obj, path="cell") -> Cell1D:
    if not isinstance(obj, dict) or "center" not in obj or "boxes" not in obj:
        raise InstanceError(path, "expected {'center': ..., 'boxes': [...]}")
    center = parse_element(field, obj["center"], f"{path}.center")
    if not isinstance(obj["boxes"], list):
        raise InstanceError(f"{path}.boxes", "expected a list of boxes")
    boxes = tuple(parse_box(field, b, f"{path}.boxes[{i}]")
                  for i, b in enumerate(obj["boxes"]))
    try:
        return Cell1D(center, boxes)
    except ValueError as e:
        raise InstanceError(path, str(e))


def emit_cell(c: Cell1D) -> dict:
    return {"center": emit_element(c.center),
            "boxes": [emit_box(b) for b in c.boxes]}


# ---------------------------------------------------------------------------
# Finite functions, skeletons, families


def parse_finite_function(field: FieldDescriptor, obj,
                          path="function") -> FiniteFunction:
    if not isinstance(obj, dict) or "n" not in obj or "entries" not in obj:
        raise InstanceError(path, "expected {'n': int, 'entries': [...]}")
    n = obj["n"]
    if not isinstance(n, int) or n < 1:
        raise InstanceError(f"{path}.n", "domain dimension must be a positive int")
    if not isinstance(obj["entries"], list) or not obj["entries"]:
        raise InstanceError(f"{path}.entries", "expected a nonempty list")
    entries = []
    for i, ent in enumerate(obj["entries"]):
        if not isinstance(ent, dict):
            raise InstanceError(f"{path}.entries[{i}]",
                                "expected {'x': [...], 'fx': ...}")
        p = parse_point(field, ent.get("x"), n, f"{path}.entries[{i}].x")
        v = parse_element(field, ent.get("fx"), f"{path}.entries[{i}].fx")
        entries.append((p, v))
    try:
        return FiniteFunction(n, tuple(entries))
    except ValueError as e:
        raise InstanceError(path, str(e))


def emit_finite_function(f: FiniteFunction) -> dict:
    return {"n": f.n,
            "entries": [{"x": p.to_text(), "fx": emit_element(v)}
                        for p, v in f.entries]}


def emit_skeleton(s: Skeleton, cells) -> dict:
    cells = list(cells)
    return {
        "levels": [{"radius": emit_cut(lv.radius),
                    "points": [emit_element(p) for p in lv.points]}
                   for lv in s.levels],
        "attachments": [{"cell": cells.index(cell), "point": emit_element(pt)}
                        for cell, pt in s.attachments],
    }


def parse_field(obj, path="field") -> FieldDescriptor:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InstanceError(path, "expected {'kind': ..., 'prime': ...?}")
    prime = obj.get("prime")
    if prime is not None and (not isinstance(prime, int)
                              or isinstance(prime, bool)):
        raise InstanceError(f"{path}.prime", "expected an integer")
    try:
        return FieldDescriptor(obj["kind"], prime)
    except ValueError as e:
        raise InstanceError(f"{path}.kind", str(e))


def emit_field(f: FieldDescriptor) -> dict:
    out = {"kind": f.kind}
    if f.prime is not None:
        out["prime"] = f.prime
    return out


# ---------------------------------------------------------------------------
# Whole instances


TASKS = ("extend-finite", "extend-cell", "extend-graphs", "glue", "skeleton")
_BRANCH_KEYS = ("phi_slope", "phi_intercept", "value_slope", "value_intercept")


def _elements_of(field: FieldDescriptor, obj, keys, path) -> list[FieldElement]:
    """The elements stored under keys in one JSON object."""
    if not isinstance(obj, dict):
        raise InstanceError(path, f"expected an object with {', '.join(keys)}")
    return [parse_element(field, obj.get(k), f"{path}.{k}") for k in keys]


@dataclass(frozen=True)
class Instance:
    task: str
    field: FieldDescriptor
    function: FiniteFunction | None = None
    cells: tuple[Cell1D, ...] | None = None
    pieces: tuple[tuple[FieldElement, FieldElement], ...] | None = None
    family: GraphFamily | None = None
    parts: tuple[FiniteFunction, ...] | None = None
    glue_a: FiniteFunction | None = None
    glue_b: tuple[Point, ...] | None = None


def parse_instance(data) -> Instance:
    """Validate a JSON instance into typed values, or raise a located error."""
    if isinstance(data, (bytes, str)):
        import json
        try:
            data = json.loads(data)
        except ValueError as e:
            raise InstanceError("$", f"not valid JSON: {e}")
    if not isinstance(data, dict):
        raise InstanceError("$", "instance must be a JSON object")
    task = data.get("task")
    if task not in TASKS:
        raise InstanceError("$.task", f"unknown task {task!r}; expected one of {TASKS}")
    field = parse_field(data.get("field"), "$.field")

    if task == "extend-finite":
        fn = parse_finite_function(field, data.get("function"), "$.function")
        return Instance(task, field, function=fn)

    if task in ("extend-cell", "skeleton"):
        cells_obj = data.get("cells")
        if not isinstance(cells_obj, list) or not cells_obj:
            raise InstanceError("$.cells", "expected a nonempty list of cells")
        cells = tuple(parse_cell(field, c, f"$.cells[{i}]")
                      for i, c in enumerate(cells_obj))
        pieces = None
        if task == "extend-cell":
            pieces_obj = data.get("pieces")
            if not isinstance(pieces_obj, list) or len(pieces_obj) != len(cells):
                raise InstanceError("$.pieces", "expected one piece per cell")
            pieces = tuple(
                tuple(_elements_of(field, p, ("slope", "intercept"),
                                   f"$.pieces[{i}]"))
                for i, p in enumerate(pieces_obj))
        return Instance(task, field, cells=cells, pieces=pieces)

    if task == "extend-graphs":
        cells_obj = data.get("base_cells")
        if not isinstance(cells_obj, list) or not cells_obj:
            raise InstanceError("$.base_cells", "expected a nonempty list of cells")
        cells = tuple(parse_cell(field, c, f"$.base_cells[{i}]")
                      for i, c in enumerate(cells_obj))
        branches_obj = data.get("branches")
        if not isinstance(branches_obj, list) or len(branches_obj) != len(cells):
            raise InstanceError("$.branches", "expected one branch list per cell")
        branches = []
        for i, brs in enumerate(branches_obj):
            if not isinstance(brs, list):
                raise InstanceError(f"$.branches[{i}]", "expected a list of branches")
            branches.append(tuple(
                GraphBranch(*_elements_of(field, br, _BRANCH_KEYS,
                                          f"$.branches[{i}][{j}]"))
                for j, br in enumerate(brs)))
        try:
            family = GraphFamily(cells, tuple(branches))
        except ValueError as e:
            raise InstanceError("$.branches", str(e))
        return Instance(task, field, family=family)

    # glue: either a list of parts or an (a, b) vanishing payload
    if "parts" in data:
        parts_obj = data["parts"]
        if not isinstance(parts_obj, list) or not parts_obj:
            raise InstanceError("$.parts", "expected a nonempty list")
        parts = tuple(parse_finite_function(field, p, f"$.parts[{i}]")
                      for i, p in enumerate(parts_obj))
        if len({p.n for p in parts}) != 1:
            raise InstanceError("$.parts", "parts mix dimensions")
        return Instance(task, field, parts=parts)
    if "a" in data and "b" in data:
        a = parse_finite_function(field, data["a"], "$.a")
        b_obj = data["b"]
        if not isinstance(b_obj, list):
            raise InstanceError("$.b", "expected a list of points")
        b = tuple(parse_point(field, xs, a.n, f"$.b[{i}]")
                  for i, xs in enumerate(b_obj))
        return Instance(task, field, glue_a=a, glue_b=b)
    raise InstanceError("$", "glue needs either 'parts' or 'a' and 'b'")


def emit_instance(inst: Instance) -> dict:
    """Structural emission; parse(emit(x)) reproduces x."""
    out: dict = {"task": inst.task, "field": emit_field(inst.field)}
    if inst.function is not None:
        out["function"] = emit_finite_function(inst.function)
    if inst.cells is not None:
        key = "cells"
        out[key] = [emit_cell(c) for c in inst.cells]
    if inst.pieces is not None:
        out["pieces"] = [{"slope": emit_element(a), "intercept": emit_element(b)}
                         for a, b in inst.pieces]
    if inst.family is not None:
        out["base_cells"] = [emit_cell(c) for c in inst.family.base_cells]
        out["branches"] = [
            [{"phi_slope": emit_element(br.phi_slope),
              "phi_intercept": emit_element(br.phi_intercept),
              "value_slope": emit_element(br.value_slope),
              "value_intercept": emit_element(br.value_intercept)}
             for br in row]
            for row in inst.family.branches]
    if inst.parts is not None:
        out["parts"] = [emit_finite_function(p) for p in inst.parts]
    if inst.glue_a is not None:
        out["a"] = emit_finite_function(inst.glue_a)
        out["b"] = [p.to_text() for p in inst.glue_b]
    return out
