"""Traced replay: the per-layer numbers, measured from outside the package.

Each job is replayed through the public functions of every module in
the order the CLI chain uses them (parse, Lipschitz check, skeleton,
build, samples, evaluation, verdict, emit, verify rebuild), with a span
around each call.  Spans are kept in memory and written when the run
ends.  Three kinds of pass run over the same jobs:

* untraced replays and traced replays, alternating per round; their CPU
  ratio is the tracing overhead, and the traced spans give the layer
  timings;
* one counting replay of the first round, with `FieldElement` and
  `Point` methods wrapped to count calls per span.  It covers a fixed
  amount of work, so its counts repeat exactly for a seed;
* a field microbenchmark on element pairs drawn from the replayed
  instances and samples, with same- and cross-denominator pairs apart.
"""

from __future__ import annotations

import json
import random
import statistics
import time
import warnings
from collections import Counter, defaultdict
from contextlib import contextmanager

from ultralip import cli, extension
from ultralip.extension import (
    epsilon_pipeline,
    extend_cell_risometry_line,
    extend_finite,
    extend_graph_family_via_reduction,
    glue_union,
    glue_vanishing,
    origins,
    union_function,
)
from ultralip.field import FieldElement, NormValue, PDivisibleCountWarning, Point
from ultralip.generate import sample_points
from ultralip.geometry import cell_member, cells_intersect, dist_to_cell
from ultralip.lipschitz import is_lipschitz
from ultralip.serialize import (
    emit_element,
    emit_instance,
    emit_skeleton,
    parse_instance,
    parse_point,
    parse_rational,
)
from ultralip.skeleton import build_skeleton, transport_skeleton

WINDOW = (-6, 6)
NORM_ONE = NormValue.theta(0)
KINDS = ("line", "plane", "nd", "cell", "graphs", "glue", "epsilon")
SIZES = ("line.n32", "line.n64", "line.n128", "plane.n24", "plane.n48",
         "nd.n8", "nd.n16")
MICRO_PAIRS = 240
MICRO_REPEATS = 5

# (name, unit, better) of every per-layer metric, in print order.  A layer
# the workload does not exercise reads 0.
LAYER_METRICS = (
    [("field.nod_calls", "count", "lower"),
     ("field.arith_calls", "count", "lower"),
     ("field.nod_same_us", "us", "lower"),
     ("field.nod_cross_us", "us", "lower"),
     ("field.nod_cross_share", "share", "lower"),
     ("field.add_us", "us", "lower"),
     ("field.mul_us", "us", "lower"),
     ("field.div_us", "us", "lower"),
     ("field.sort_key_us", "us", "lower"),
     ("field.hash_us", "us", "lower"),
     ("field.pdiv_warnings", "count", "lower"),
     ("lipschitz.check_ms", "ms", "lower"),
     ("lipschitz.pairs", "count", "lower")]
    + [(f"extension.build_ms.{k}", "ms", "lower") for k in KINDS + SIZES]
    + [(f"extension.eval_us.{k}", "us", "lower") for k in KINDS + SIZES]
    + [("extension.sorted_cache_growth", "count", "lower"),
       ("skeleton.build_ms", "ms", "lower"),
       ("skeleton.transport_ms", "ms", "lower"),
       ("geometry.cells_intersect_us", "us", "lower"),
       ("geometry.contains_us", "us", "lower"),
       ("geometry.dist_to_cell_us", "us", "lower"),
       ("serialize.parse_ms", "ms", "lower"),
       ("serialize.emit_ms", "ms", "lower"),
       ("serialize.report_kb", "kB", "lower"),
       ("generate.instance_ms", "ms", "lower"),
       ("generate.samples_ms", "ms", "lower"),
       ("cli.verdict_ms", "ms", "lower"),
       ("cli.verdict_pairs", "count", "lower"),
       ("cli.verify_rebuild_ms", "ms", "lower"),
       ("trace.overhead_share", "share", "lower")])


SPAN_FIELDS = ("name", "start", "end", "parent", "instance", "units")


class Tracer:
    """In-memory spans, one list per span in the order of SPAN_FIELDS.

    Start and end are CPU seconds; parent is the index of the enclosing
    span; units is what the span's time is divided by (points evaluated,
    calls made, bytes emitted).  A disabled tracer records no spans;
    the untraced replays use one.  Both keep the replayed Lipschitz
    verdicts that failed, for the correctness check."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.instance = None
        self.failed_verdicts: list[tuple] = []  # (job, verdict name)

    @contextmanager
    def span(self, name: str, units: int = 0):
        if not self.enabled:
            yield None
            return
        rec = [name, time.process_time(), None,
               self._stack[-1] if self._stack else None, self.instance, units]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = time.process_time()
            self._stack.pop()

    def current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None


class FieldCounter:
    """Counts calls of public field methods, keyed by the innermost span."""

    ARITH = ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__",
             "scale")

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.counts: Counter = Counter()
        self._saved: list[tuple] = []

    def _patch(self, cls, name, wrapper):
        self._saved.append((cls, name, getattr(cls, name)))
        setattr(cls, name, wrapper)

    def __enter__(self):
        tracer, counts = self.tracer, self.counts
        for name in self.ARITH:
            orig = getattr(FieldElement, name)

            def wrapped(*args, _orig=orig):
                counts[tracer.current(), "arith"] += 1
                return _orig(*args)
            self._patch(FieldElement, name, wrapped)

        nod = FieldElement.norm_of_difference

        def elem_nod(a, b):
            key = tracer.current()
            counts[key, "nod"] += 1
            if a.den is not None and a.den != b.den:
                counts[key, "nod_cross"] += 1
            return nod(a, b)
        self._patch(FieldElement, "norm_of_difference", elem_nod)

        pnod = Point.norm_of_difference

        def point_nod(a, b):
            counts[tracer.current(), "point_nod"] += 1
            return pnod(a, b)
        self._patch(Point, "norm_of_difference", point_nod)
        return self

    def __exit__(self, *exc):
        for cls, name, orig in reversed(self._saved):
            setattr(cls, name, orig)
        self._saved.clear()

    def total(self, what: str, span: str | None = None) -> int:
        return sum(v for (s, w), v in self.counts.items()
                   if w == what and (span is None or s == span))


# ---------------------------------------------------------------------------
# Replay of one job


def _epsilon(job):
    if "--epsilon" in job.flags:
        return parse_rational(job.flags[job.flags.index("--epsilon") + 1])
    return None


def _checked_function(inst):
    """The finite function whose 1-Lipschitz check guards the build."""
    if inst.task == "extend-finite":
        return inst.function
    if inst.task == "glue":
        return union_function(inst.parts) if inst.parts is not None \
            else inst.glue_a
    return None


def _cells(inst):
    if inst.cells is not None:
        return list(inst.cells)
    if inst.family is not None:
        return list(inst.family.base_cells)
    return []


def _build(inst, eps):
    if inst.task == "extend-finite":
        if eps is not None:
            return epsilon_pipeline(inst.function, eps)
        return extend_finite(inst.function)
    if inst.task == "extend-cell":
        return extend_cell_risometry_line(list(inst.cells), list(inst.pieces))
    if inst.task == "extend-graphs":
        return extend_graph_family_via_reduction(inst.family)
    if inst.parts is not None:
        return glue_union(inst.parts)
    return glue_vanishing(inst.glue_a, list(inst.glue_b),
                          extend_finite(inst.glue_a))


def _anchors(inst, F):
    """The anchor points and dimension the CLI samples around."""
    if inst.task == "extend-finite":
        return list(inst.function.domain()), inst.function.n
    if inst.task == "extend-cell":
        members = [cell_member(c, bi) for c in inst.cells
                   for bi in range(len(c.boxes))]
        members += list(F.extras["transport"].source.points())
        return [Point((x,)) for x in members], 1
    if inst.task == "extend-graphs":
        fam = inst.family
        pts = [Point((x1, br.phi(x1)))
               for ci, cell in enumerate(fam.base_cells)
               for bi in range(len(cell.boxes))
               for x1 in (cell_member(cell, bi),)
               for br in fam.branches[ci]]
        return pts + [o for o, _ in origins(fam)[0]], 2
    if inst.parts is not None:
        combined = union_function(inst.parts)
        return list(combined.domain()), combined.n
    return list(inst.glue_a.domain()) + list(inst.glue_b), inst.glue_a.n


def _emit(tr: Tracer, payload) -> str:
    """Build and serialize a report inside a serialize.emit span whose
    units are the report's bytes."""
    with tr.span("serialize.emit") as rec:
        text = json.dumps(payload(), indent=2, sort_keys=True)
        if rec is not None:
            rec[SPAN_FIELDS.index("units")] = len(text)
    return text


def replay(job, tr: Tracer) -> list[FieldElement]:
    """Replay one job; return the field elements it saw (coordinates of
    the samples and the values there)."""
    tr.instance = job.id
    elements: list[FieldElement] = []
    with tr.span("instance"):
        with open(job.path) as fh:
            text = fh.read()
        with tr.span("serialize.parse"):
            inst = parse_instance(text)
        fn = _checked_function(inst)
        if fn is not None:
            with tr.span("lipschitz.check"):
                is_lipschitz(fn, NORM_ONE)
        cells = _cells(inst)
        skel = None
        if cells:
            with tr.span("skeleton.build"):
                skel = build_skeleton(cells)
        if inst.task == "extend-cell":
            with tr.span("skeleton.transport"):
                transport_skeleton(cells, list(inst.pieces))

        if inst.task == "skeleton":
            probes = [cell_member(c, bi) for c in cells
                      for bi in range(len(c.boxes))] + list(skel.points())
            _emit(tr, lambda: {"skeleton": emit_skeleton(skel, inst.cells),
                               "instance": emit_instance(inst)})
        else:
            eps = _epsilon(job)
            with tr.span(f"extension.build.{job.kind}"):
                F = _build(inst, eps)
            anchors, n = _anchors(inst, F)
            rng = random.Random(job.seed * 9176 + 11)
            with tr.span("generate.samples"):
                samples = sample_points(rng, inst.field, n, anchors, WINDOW,
                                        job.samples)
            with tr.span(f"extension.eval.{job.kind}", len(samples)):
                values = [F(x) for x in samples]
            bound = NORM_ONE if eps is None else NormValue.theta(-eps)
            with tr.span("cli.verdict"):
                verdict = cli.lipschitz_verdict(F, samples, bound)
            if not verdict["pass"]:
                tr.failed_verdicts.append((job, verdict["name"]))
            report = json.loads(_emit(tr, lambda: {
                "samples": [{"x": x.to_text(), "value": emit_element(v)}
                            for x, v in zip(samples, values)],
                "instance": emit_instance(inst)}))
            with tr.span("cli.verify_rebuild"):
                again = parse_instance(report["instance"])
                F2 = cli.construct_extension(again)
                for i, s in enumerate(report["samples"]):
                    emit_element(F2(parse_point(inst.field, s["x"], F2.n,
                                                f"$.samples[{i}].x")))
            for x, v in zip(samples, values):
                elements.extend(x.coords)
                elements.append(v)
            probes = [x.coords[0] for x in samples]

        if cells:
            pairs = [(a, b) for i, a in enumerate(cells) for b in cells[i + 1:]]
            with tr.span("geometry.cells_intersect", len(pairs)):
                for a, b in pairs:
                    cells_intersect(a, b)
            with tr.span("geometry.contains", len(probes) * len(cells)):
                for x in probes:
                    for c in cells:
                        c.contains(x)
            with tr.span("geometry.dist_to_cell", len(probes) * len(cells)):
                for x in probes:
                    for c in cells:
                        dist_to_cell(x, c)
    return elements


def _replay_all(jobs, tr: Tracer, skip: dict) -> tuple[float, int, list]:
    """Replay the jobs not in `skip`; return (CPU s, p-divisible warnings,
    elements).  A job whose replay raises is added to `skip` with the
    error: the CLI exits 2 on these errors, as a refusal."""
    elements = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", PDivisibleCountWarning)
        t0 = time.process_time()
        for job in jobs:
            if job.id in skip:
                continue
            try:
                elements.append(replay(job, tr))
            except ValueError as e:
                skip[job.id] = e
        cpu = time.process_time() - t0
    pdiv = sum(1 for w in caught
               if issubclass(w.category, PDivisibleCountWarning))
    return cpu, pdiv, elements


# ---------------------------------------------------------------------------
# Field microbenchmark


def _per_call_us(fn, args: list) -> float:
    if not args:
        return 0.0
    times = []
    for _ in range(MICRO_REPEATS):
        t0 = time.process_time()
        for a in args:
            fn(*a)
        times.append(time.process_time() - t0)
    return statistics.median(times) / len(args) * 1e6


def field_micro(elements: list[FieldElement], seed: int) -> dict:
    """Per-call times on pairs drawn from the workload's own elements."""
    rng = random.Random(seed * 31 + 7)
    by_field = defaultdict(list)
    for e in elements:
        by_field[e.field].append(e)
    groups = [g for _, g in sorted(by_field.items(), key=lambda kv: kv[0].kind)]
    # series elements carry a denominator; p-adic ones do not
    has_cross = any(len({e.den for e in g}) > 1 for g in groups
                    if g[0].den is not None)
    same, cross, pairs = [], [], []
    for _ in range(200 * MICRO_PAIRS):
        if len(same) >= MICRO_PAIRS and len(pairs) >= MICRO_PAIRS \
                and (len(cross) >= MICRO_PAIRS or not has_cross):
            break
        g = rng.choice(groups)
        a, b = rng.choice(g), rng.choice(g)
        if len(pairs) < MICRO_PAIRS:
            pairs.append((a, b))
        if a.den is None:
            continue
        target = same if a.den == b.den else cross
        if len(target) < MICRO_PAIRS:
            target.append((a, b))
    singles = [(a,) for a, _ in pairs]
    divisible = [(a, b) for a, b in pairs if not b.is_zero]
    return {
        "field.nod_same_us": _per_call_us(FieldElement.norm_of_difference, same),
        "field.nod_cross_us": _per_call_us(FieldElement.norm_of_difference, cross),
        "field.add_us": _per_call_us(FieldElement.__add__, pairs),
        "field.mul_us": _per_call_us(FieldElement.__mul__, pairs),
        "field.div_us": _per_call_us(FieldElement.__truediv__, divisible),
        "field.sort_key_us": _per_call_us(FieldElement.sort_key, singles),
        "field.hash_us": _per_call_us(FieldElement.__hash__, singles),
    }


# ---------------------------------------------------------------------------
# The traced run


def _by_name(tr: Tracer) -> dict[str, list[tuple[str, float, int]]]:
    """Span name -> [(instance id, CPU seconds, units)]."""
    out = defaultdict(list)
    for name, start, end, _, inst, units in tr.spans:
        out[name].append((inst, end - start, units))
    return out


def _median_ms(items) -> float:
    return statistics.median(d for _, d, _ in items) * 1e3 if items else 0.0


def _per_unit_us(items) -> float:
    """Median over spans of CPU time per unit of work."""
    items = [(d, u) for _, d, u in items if u]
    return statistics.median(d / u for d, u in items) * 1e6 if items else 0.0


def _pooled_us(items) -> float:
    """Total CPU time over total units of work."""
    units = sum(u for _, _, u in items)
    return sum(d for _, d, _ in items) / units * 1e6 if units else 0.0


def run_traced(pool, seed: int, seconds: float) -> tuple[dict, dict, dict, list]:
    """Return (per-layer metrics, trace dump, {job id: error}, failing
    verdicts as (job, name)) for the pool.

    Jobs that raise are left out of every later pass and every metric."""
    off, tr = Tracer(False), Tracer(True)
    skip: dict = {}
    untraced = traced = 0.0
    cpu0 = time.process_time()
    r = 0
    while True:
        jobs = pool[r % len(pool)]
        # alternate which pass runs first, so neither always runs cold
        for tracer in ((off, tr) if r % 2 == 0 else (tr, off)):
            cpu = _replay_all(jobs, tracer, skip)[0]
            if tracer is tr:
                traced += cpu
            else:
                untraced += cpu
        r += 1
        if time.process_time() - cpu0 >= seconds:
            break

    cache = getattr(extension, "_SORTED_ITEMS_CACHE", None)
    cache_before = len(cache) if cache is not None else 0
    ct = Tracer(True)
    with FieldCounter(ct) as counter:
        _, pdiv, elements = _replay_all(pool[0], ct, skip)
    cache_growth = (len(cache) - cache_before) if cache is not None else 0

    m = dict.fromkeys((name for name, _, _ in LAYER_METRICS), 0)
    m.update(field_micro([e for el in elements for e in el], seed))
    nod = counter.total("nod")
    m["field.nod_calls"] = nod
    m["field.arith_calls"] = counter.total("arith")
    m["field.nod_cross_share"] = counter.total("nod_cross") / nod if nod else 0.0
    m["field.pdiv_warnings"] = pdiv
    m["lipschitz.pairs"] = counter.total("point_nod", "lipschitz.check")
    m["cli.verdict_pairs"] = counter.total("point_nod", "cli.verdict")
    m["extension.sorted_cache_growth"] = cache_growth

    instance = SPAN_FIELDS.index("instance")
    tr.spans = [s for s in tr.spans if s[instance] not in skip]
    spans = _by_name(tr)
    jobs_by_id = {job.id: job for rnd in pool for job in rnd}
    for kind in KINDS:
        builds = spans.get(f"extension.build.{kind}", [])
        evals = spans.get(f"extension.eval.{kind}", [])
        m[f"extension.build_ms.{kind}"] = _median_ms(builds)
        m[f"extension.eval_us.{kind}"] = _per_unit_us(evals)
        for tag in SIZES:
            k, size = tag.split(".")
            if k == kind:
                n = int(size[1:])
                m[f"extension.build_ms.{tag}"] = _median_ms(
                    [s for s in builds if jobs_by_id[s[0]].size == n])
                m[f"extension.eval_us.{tag}"] = _per_unit_us(
                    [s for s in evals if jobs_by_id[s[0]].size == n])
    for metric, span in (("lipschitz.check_ms", "lipschitz.check"),
                         ("skeleton.build_ms", "skeleton.build"),
                         ("skeleton.transport_ms", "skeleton.transport"),
                         ("serialize.parse_ms", "serialize.parse"),
                         ("serialize.emit_ms", "serialize.emit"),
                         ("generate.samples_ms", "generate.samples"),
                         ("cli.verdict_ms", "cli.verdict"),
                         ("cli.verify_rebuild_ms", "cli.verify_rebuild")):
        m[metric] = _median_ms(spans.get(span, []))
    for metric in ("geometry.cells_intersect_us", "geometry.contains_us",
                   "geometry.dist_to_cell_us"):
        m[metric] = _pooled_us(spans.get(metric[:-3], []))
    m["serialize.report_kb"] = statistics.median(
        u for _, _, u in spans["serialize.emit"]) / 1024
    m["generate.instance_ms"] = statistics.median(
        job.gen_s for job in jobs_by_id.values()) * 1e3
    m["trace.overhead_share"] = traced / untraced - 1.0

    dump = {"spans": [dict(zip(SPAN_FIELDS, s)) for s in tr.spans],
            "field_counts": [{"span": s, "what": w, "calls": v}
                             for (s, w), v in sorted(counter.counts.items(),
                                                     key=lambda kv: str(kv[0]))],
            "rounds": r, "untraced_cpu_s": untraced, "traced_cpu_s": traced}
    failing = {(job.id, name): (job, name)
               for t in (off, tr, ct) for job, name in t.failed_verdicts}
    return m, dump, skip, list(failing.values())

