"""Acceptance criteria, one test per criterion, zero tolerances.

Each test prints a pass/fail line; run with -s to see them.  Pair scans
over sampled points use an exact integer fast path (common-denominator
coefficient scaling), falling back to full field arithmetic whenever an
element leaves the constant-denominator integer-exponent class.
"""

import math
import random
import time
from fractions import Fraction as Q

import pytest

from ultralip.field import (
    FieldDescriptor,
    NormValue,
    PDivisibleCountWarning,
    Point,
)
from ultralip.geometry import Ball, cell_member, rho
from ultralip.lipschitz import FiniteFunction, finite_function_1d, risometry_check
from ultralip.extension import (
    epsilon_pipeline,
    extend_cell_risometry_line,
    extend_finite,
    extend_finite_line,
    glue_conditions_pointwise,
    glue_union,
    glue_vanishing,
    union_function,
)
from ultralip.generate import (
    generate_instance,
    generate_vanishing_pair,
    sample_points,
)
from ultralip.skeleton import (
    BallConditionError,
    build_skeleton,
    configuration_of,
    one_cell,
    risometry_image_cell,
    transport_skeleton,
)

from cell_reference import ReferenceCellExtension
from ladder_reference import ReferenceLadder

T = FieldDescriptor("t-adic")
PX = FieldDescriptor("puiseux")
P3 = FieldDescriptor("p-adic", prime=3)
theta = NormValue.theta
WINDOW = (-6, 6)

_ONE_DEN = ((Q(0), Q(1)),)


def _report(num, name, ok, detail=""):
    tail = f"  ({detail})" if detail else ""
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}{tail}")


# -- exact fast pair scan ------------------------------------------------------


def _fast_forms(elements):
    """Integer term tuples under a common denominator, or None."""
    D = 1
    for e in elements:
        if e.den != _ONE_DEN and not e.is_zero:
            return None
        for exp, c in e.num:
            if exp.denominator != 1:
                return None
            D = D * c.denominator // math.gcd(D, c.denominator)
    return [tuple((int(exp), int(c * D)) for exp, c in e.num)
            for e in elements]


def _diff_ord(a, b):
    """Valuation of the difference of two integer term tuples (None if equal)."""
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        ea, ca = a[i]
        eb, cb = b[j]
        if ea < eb:
            return ea
        if eb < ea:
            return eb
        if ca != cb:
            return ea
        i += 1
        j += 1
    if i < la:
        return a[i][0]
    if j < lb:
        return b[j][0]
    return None


def _scan_pairs(point_forms, value_forms, shift=0):
    """First index pair violating norm(dv) <= theta(shift) * norm(dx)."""
    n = len(point_forms)
    for i in range(n):
        xi = point_forms[i]
        vi = value_forms[i]
        for j in range(i + 1, n):
            dv = _diff_ord(vi, value_forms[j])
            if dv is None:
                continue
            xj = point_forms[j]
            dx = None
            for a, b in zip(xi, xj):
                d = _diff_ord(a, b)
                if d is not None and (dx is None or d < dx):
                    dx = d
            if dx is None or dv < dx + shift:
                return (i, j)
    return None


def _slow_scan_pairs(points, values, bound):
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            dv = values[i].norm_of_difference(values[j])
            dx = points[i].norm_of_difference(points[j])
            if dv > bound * dx:
                return (i, j)
    return None


def check_lipschitz_pairs(points, values, bound=None):
    """Exact pairwise check; returns a violating index pair or None."""
    shift = 0 if bound is None else bound.exponent
    if shift == int(shift):
        vf = _fast_forms(values)
        # one common denominator across every coordinate of every point:
        # forms are only comparable under the same scaling
        flat = _fast_forms([c for p in points for c in p.coords])
        if vf is not None and flat is not None:
            n = points[0].dimension
            pf = [tuple(flat[i * n + k] for k in range(n))
                  for i in range(len(points))]
            return _scan_pairs(pf, vf, int(shift))
    return _slow_scan_pairs(points, values,
                            bound if bound is not None else theta(0))


# -- criterion 1: finite-line extension ------------------------------------------


def test_criterion_1_finite_line():
    start = time.monotonic()
    failures = []
    for seed in range(500):
        rng = random.Random(seed * 37 + 1)
        inst = generate_instance(seed, "finite-line", T,
                                 size=rng.randint(2, 12), window=WINDOW)
        fn = inst.function
        F = extend_finite_line(fn)
        for p, v in fn.entries:
            if F(p) != v:
                failures.append((seed, "extension", p))
                break
        samples = sample_points(rng, T, 1, list(fn.domain()), WINDOW, 200)
        values = [F(x) for x in samples]
        bad = check_lipschitz_pairs(samples, values)
        if bad is not None:
            failures.append((seed, "lipschitz", bad))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 30.0
    _report(1, "finite-line extension (500 instances)", ok,
            f"{elapsed:.1f}s")
    assert not failures, failures[:3]
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"


# -- criterion 2: partition gluing -------------------------------------------------


def test_criterion_2_glue_vanishing():
    failures = []
    for seed in range(300):
        rng = random.Random(seed * 53 + 7)
        inst = generate_vanishing_pair(
            seed, T, n=1, a_size=rng.randint(1, 5),
            b_size=rng.randint(1, 3), window=WINDOW)
        a, b_points = inst.glue_a, list(inst.glue_b)
        F = extend_finite_line(a)
        G = glue_vanishing(a, b_points, F)
        b_set = set(b_points)
        # exhaustive value table on the finite instance
        for p, v in a.entries:
            want = T.zero() if p in b_set else F(p)
            if G(p) != want or (p not in b_set and G(p) != v):
                failures.append((seed, "table", p))
        for p in b_points:
            if not G(p).is_zero:
                failures.append((seed, "vanishing", p))
        anchors = list(a.domain()) + b_points
        samples = sample_points(rng, T, 1, anchors, WINDOW, 60)
        values = [G(x) for x in samples]
        if check_lipschitz_pairs(samples, values) is not None:
            failures.append((seed, "lipschitz"))
        for x in samples[:20]:
            if G.extras["conditions"](x) != \
                    glue_conditions_pointwise(x, list(a.domain()), b_points):
                failures.append((seed, "conditions", x))
    ok = not failures
    _report(2, "partition gluing (300 instances)", ok)
    assert not failures, failures[:3]


# -- criterion 3: partition lemma ----------------------------------------------------


def _union_parts(seed):
    rng = random.Random(seed * 71 + 3)
    inst = generate_instance(seed, "finite-line", T,
                             size=rng.randint(2, 8), window=WINDOW)
    entries = list(inst.function.entries)
    n_parts = rng.randint(2, min(4, len(entries)))
    chunks = [entries[i::n_parts] for i in range(n_parts)]
    return rng, [FiniteFunction(1, tuple(c)) for c in chunks if c]


def test_criterion_3_glue_union_extends_and_lipschitz():
    failures = []
    for seed in range(200):
        rng, parts = _union_parts(seed)
        combined = union_function(parts)
        F = glue_union(parts)
        for p, v in combined.entries:
            if F(p) != v:
                failures.append((seed, "extension", p))
                break
        samples = sample_points(rng, T, 1, list(combined.domain()), WINDOW, 60)
        values = [F(x) for x in samples]
        if check_lipschitz_pairs(samples, values) is not None:
            failures.append((seed, "lipschitz"))
    ok = not failures
    _report(3, "partition lemma: extension and Lipschitz (200 instances)", ok)
    assert not failures, failures[:3]


def test_criterion_3_oracle_equivalence():
    """Pointwise equality of the glued composition with the direct average.

    The two constructions are provably different at points equidistant
    from several parts (the composition returns the last part's average,
    the direct route averages the whole union), so this equality check
    fails on ordinary mixed samples.  Both routes remain exact 1-Lipschitz
    extensions; the disagreement is inherent to the composed formula, not
    an implementation artifact.
    """
    mismatches = 0
    witness = None
    checked = 0
    for seed in range(200):
        rng, parts = _union_parts(seed)
        combined = union_function(parts)
        F = glue_union(parts)
        direct = extend_finite_line(combined)
        samples = sample_points(rng, T, 1, list(combined.domain()), WINDOW, 100)
        for x in samples[:100]:
            checked += 1
            a, b = F(x), direct(x)
            if a != b:
                mismatches += 1
                if witness is None:
                    witness = (seed, x.to_text(), a.to_text(), b.to_text())
                break
    ok = mismatches == 0
    _report(3, "partition lemma: oracle equivalence (200 instances)", ok,
            f"{mismatches} instances disagree; first witness {witness}")
    assert ok, (
        f"glue composition differs from the direct average on "
        f"{mismatches}/200 instances; first witness (seed, x, glued, direct) "
        f"= {witness}")


# -- criterion 4: skeletons -----------------------------------------------------------


def test_criterion_4_skeletons():
    failures = []
    for seed in range(300):
        rng = random.Random(seed * 91 + 2)
        inst = generate_instance(seed, "cells-line", T, size=6, window=WINDOW)
        cells = list(inst.cells)
        skel = build_skeleton(cells)  # the builder asserts the metric condition
        pts = skel.points()
        # the skeleton avoids the family
        for p in pts:
            for c in cells:
                if c.contains(p):
                    failures.append((seed, "skeleton-meets-family", p))
        # re-attachment preserves member sets on probes
        for (cell, _), moved in zip(skel.attachments, skel.recentered):
            members = [cell_member(cell, bi) for bi in range(len(cell.boxes))]
            probes = members + [cell_member(moved, bi)
                                for bi in range(len(moved.boxes))]
            probes += list(pts)
            for m in members:  # nudged inside the cell where that stays in it
                nudged = m + T.monomial(8, 3)
                probes.append(nudged if cell.contains(nudged) else m)
            for x in probes:
                if cell.contains(x) != moved.contains(x):
                    failures.append((seed, "member-set", x))
        shuffled = cells[:]
        rng.shuffle(shuffled)
        other = build_skeleton(shuffled)
        if set(other.points()) != set(pts) or \
                [lv.radius for lv in other.levels] != \
                [lv.radius for lv in skel.levels]:
            failures.append((seed, "permutation"))
    ok = not failures
    _report(4, "skeleton construction (300 families)", ok)
    assert not failures, failures[:3]


# -- criterion 5: one-cell detection ---------------------------------------------------


def _valid_ball_family(rng):
    z0 = T.monomial(rng.randint(-3, 0), rng.randint(1, 4))
    count = rng.randint(1, 4)
    used = set()
    balls = []
    while len(balls) < count:
        e = rng.randint(0, 5)
        u = rng.choice([1, 2, 3, -1, -2])
        if (e, u) in used:
            continue
        used.add((e, u))
        balls.append(Ball(z0 + T.monomial(e, u), theta(e)))
    # distinct exponent/unit pairs can still collide in distance when two
    # entries share an exponent; the hypothesis check below filters rather
    # than hiding errors
    return balls


def test_criterion_5_one_cell():
    failures = []
    accepted = 0
    for seed in range(200):
        rng = random.Random(seed * 17 + 9)
        balls = _valid_ball_family(rng)
        try:
            cell = one_cell(balls)
        except BallConditionError:
            failures.append((seed, "valid family rejected"))
            continue
        accepted += 1
        probes = []
        for b in balls:
            probes.append(b.center)
            for _ in range(2):
                e = b.radius.exponent + rng.randint(1, 4)
                probes.append(b.center + T.monomial(e, rng.choice([1, 2, -1])))
        while len(probes) < 500:
            probes.append(T.monomial(rng.randint(-4, 8),
                                     rng.choice([1, 2, 3, -1]))
                          + rng.choice(balls).center)
        for x in probes[:500]:
            in_union = any(b.contains(x) for b in balls)
            if cell.contains(x) != in_union:
                failures.append((seed, "membership", x))
                break
    rejected = 0
    for seed in range(200):
        rng = random.Random(seed * 19 + 11)
        base = T.monomial(rng.randint(-2, 1), rng.randint(1, 3))
        if rng.random() < 0.5:
            # distance exceeds both radii
            bad = [Ball(base, theta(4)),
                   Ball(base + T.monomial(rng.randint(5, 7), 1), theta(4))]
        else:
            # nested: the smaller ball sits inside the larger one
            bad = [Ball(base, theta(0)),
                   Ball(base + T.monomial(2, 1), theta(3))]
        try:
            one_cell(bad)
            failures.append((seed, "violation accepted"))
        except BallConditionError as e:
            if e.witness is None:
                failures.append((seed, "no witness"))
            rejected += 1
    ok = not failures
    _report(5, "one-cell detection (200 valid + 200 violating)", ok,
            f"{accepted} accepted, {rejected} rejected")
    assert not failures, failures[:3]


# -- criterion 6: risometry machinery ---------------------------------------------------


def test_criterion_6_risometry_machinery():
    failures = []
    for seed in range(200):
        rng = random.Random(seed * 13 + 5)
        inst = generate_instance(seed, "cells-line", T, size=5, window=WINDOW)
        cells, pieces = list(inst.cells), list(inst.pieces)
        slope, intercept = pieces[0]
        for cell, (a, b) in zip(cells, pieces):
            if risometry_image_cell(cell, a, b).boxes != cell.boxes:
                failures.append((seed, "box-set"))
        tr = transport_skeleton(cells, pieces)
        src = configuration_of([(c.center, rho(c)) for c in cells])
        img = configuration_of([(c.center, rho(c)) for c in tr.image_cells])
        if src != img:
            failures.append((seed, "configuration"))

        # the combined map is a risometry on members plus skeleton points
        entries = []
        for cell in cells:
            for bi in range(len(cell.boxes)):
                m = cell_member(cell, bi)
                entries.append((Point((m,)), slope * m + intercept))
        for p, q in tr.point_map:
            entries.append((Point((p,)), q))
        combined = FiniteFunction(1, tuple(dict(entries).items()))
        ok_ris, _ = risometry_check(combined, axes=[1])
        if not ok_ris:
            failures.append((seed, "combined-risometry"))

        F = extend_cell_risometry_line(cells, pieces)
        reference = ReferenceCellExtension(cells, pieces)
        anchors = [Point((x,)) for x, _ in
                   [(cell_member(c, bi), None) for c in cells
                    for bi in range(len(c.boxes))]]
        anchors += [Point((p,)) for p in tr.source.points()]
        samples = sample_points(rng, T, 1, anchors, WINDOW, 200)
        values = [F(x) for x in samples]
        for x, v in zip(samples, values):
            if v != reference(x):
                failures.append((seed, "reference", x))
                break
        if check_lipschitz_pairs(samples, values) is not None:
            failures.append((seed, "lipschitz"))
    ok = not failures
    _report(6, "risometry image/transport/extension (200 instances)", ok)
    assert not failures, failures[:3]


# -- criterion 7: distance ladder ---------------------------------------------------------


def test_criterion_7_ladder():
    start = time.monotonic()
    failures = []
    for seed in range(200):
        rng = random.Random(seed * 29 + 4)
        inst = generate_instance(seed, "finite-plane", T,
                                 size=rng.randint(2, 10), window=WINDOW)
        fn = inst.function
        F = extend_finite(fn)
        for p, v in fn.entries:
            if F(p) != v:
                failures.append((seed, "extension", p))
                break
        samples = sample_points(rng, T, 2, list(fn.domain()), WINDOW, 300)
        values = [F(x) for x in samples]
        if check_lipschitz_pairs(samples, values) is not None:
            failures.append((seed, "lipschitz"))
        reference = ReferenceLadder(fn)
        for x, v in zip(samples, values):
            if reference(x) != v:
                failures.append((seed, "reference", x))
                break
    for seed in range(50):
        rng = random.Random(seed * 31 + 6)
        inst = generate_instance(seed, "finite-nd", T,
                                 size=rng.randint(2, 6), window=WINDOW)
        fn = inst.function
        F = extend_finite(fn)
        for p, v in fn.entries:
            if F(p) != v:
                failures.append((seed, "extension-3d", p))
                break
        samples = sample_points(rng, T, 3, list(fn.domain()), WINDOW, 300)
        values = [F(x) for x in samples]
        if check_lipschitz_pairs(samples, values) is not None:
            failures.append((seed, "lipschitz-3d"))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 60.0
    _report(7, "distance ladder (200 plane + 50 space instances)", ok,
            f"{elapsed:.1f}s")
    assert not failures, failures[:3]
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"


# -- criterion 8: constant dichotomy ---------------------------------------------------------


def _measure_constant_bound(F, samples, bound):
    values = [F(x) for x in samples]
    return check_lipschitz_pairs(samples, values, bound) is None


def test_criterion_8_constant_dichotomy():
    failures = []
    # dense value group: arbitrarily small scaling exponents
    for seed in range(100):
        rng = random.Random(seed * 41 + 8)
        q = rng.choice([Q(1, 8), Q(1, 16), Q(1, 64)])
        inst = generate_instance(seed, "finite-line", PX,
                                 size=rng.randint(2, 5), window=(-4, 4))
        fn = inst.function
        F = epsilon_pipeline(fn, q)
        for p, v in fn.entries:
            if F(p) != v:
                failures.append((seed, "dense-extension"))
                break
        samples = sample_points(rng, PX, 1, list(fn.domain()), (-4, 4), 40)
        if not _measure_constant_bound(F, samples, theta(-q)):
            failures.append((seed, "dense-bound", q))
    # discrete value group: the minimal step per reduction
    for seed in range(100):
        rng = random.Random(seed * 43 + 10)
        n = 1 if seed % 2 else 2
        profile = "finite-line" if n == 1 else "finite-plane"
        inst = generate_instance(seed, profile, T,
                                 size=rng.randint(2, 5), window=(-4, 4))
        fn = inst.function
        F = epsilon_pipeline(fn, 1)
        for p, v in fn.entries:
            if F(p) != v:
                failures.append((seed, "discrete-extension"))
                break
        samples = sample_points(rng, T, n, list(fn.domain()), (-4, 4), 40)
        if not _measure_constant_bound(F, samples, theta(-1)):
            failures.append((seed, "discrete-bound"))
    ok = not failures
    _report(8, "scaling dichotomy (100 dense + 100 discrete)", ok)
    assert not failures, failures[:3]


# -- criterion 9: the residue-characteristic boundary -------------------------------------


def _boundary_instance(field, unif):
    # three points: two in one residue direction pair at the fine scale,
    # the third a unit away; the free residue direction ties all three
    return finite_function_1d(field, [
        (field.zero(), field.zero()),
        (unif, field.zero()),
        (field.one(), field.one()),
    ])


def test_criterion_9_equicharacteristic_boundary():
    # p-adic: the nearest-point class at x = 2 has size 3, divisible by p
    f3 = _boundary_instance(P3, P3.monomial(1))
    F3 = extend_finite_line(f3)
    probe = Point((P3.from_int(2),))
    with pytest.warns(PDivisibleCountWarning):
        value = F3(probe)
    assert value == P3.from_rational(Q(1, 3))
    one = Point((P3.one(),))
    ratio = F3(probe).norm_of_difference(F3(one)) \
        / probe.norm_of_difference(one)
    exceeds = ratio > theta(0)
    assert exceeds and ratio == theta(-1)

    # the same instance over the residue-characteristic-zero backend
    ft = _boundary_instance(T, T.monomial(1))
    Ft = extend_finite_line(ft)
    rng = random.Random(99)
    samples = sample_points(rng, T, 1, list(ft.domain()), (-3, 3), 60)
    samples.append(Point((T.from_int(2),)))
    values = [Ft(x) for x in samples]
    ok_t = check_lipschitz_pairs(samples, values) is None
    ok = exceeds and ok_t
    _report(9, "residue characteristic boundary (p=3 vs t-adic)", ok,
            f"p-adic ratio {ratio!r} > 1; t-adic constant <= 1")
    assert ok_t
