"""Batch front end: parse instances, run constructions, verify, report.

Every command reads JSON, writes a JSON report whose failure verdicts
carry exact witnesses, and exits nonzero iff any exact verification
fails.  All randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
import warnings

from .balltree import BallTree
from .field import (
    FieldDescriptor,
    NormValue,
    PDivisibleCountWarning,
    Point,
)
from .geometry import cell_member
from .lipschitz import FiniteFunction, NotLipschitzError
from .extension import (
    ExtendedFunction,
    ExtensionError,
    epsilon_pipeline,
    extend_cell_risometry_line,
    extend_finite,
    extend_finite_nd,
    extend_graph_family_via_reduction,
    glue_conditions,
    glue_conditions_pointwise,
    glue_union,
    glue_vanishing,
    origins,
    union_function,
)
from .generate import PROFILES, generate, sample_points
from .serialize import (
    Instance,
    InstanceError,
    emit_element,
    emit_skeleton,
    parse_instance,
    parse_rational,
)
from .skeleton import build_skeleton, check_skeleton

NORM_ONE = NormValue.theta(0)
COMMANDS = ("extend-finite", "extend-cell", "extend-graphs", "glue",
            "skeleton", "verify", "generate")


def _verdict(name: str, ok: bool, witness=None) -> dict:
    out = {"name": name, "pass": bool(ok)}
    if not ok:
        out["witness"] = witness if witness is not None else {}
    return out


def _pair_witness(x: Point, y: Point, fx, fy) -> dict:
    return {"x": x.to_text(), "y": y.to_text(),
            "fx": emit_element(fx), "fy": emit_element(fy)}


def lipschitz_verdict(F: ExtendedFunction, samples: list[Point],
                      bound: NormValue = NORM_ONE,
                      name: str = "one-lipschitz-on-samples",
                      values: list | None = None) -> dict:
    """Whether |F(x) - F(y)| <= bound * |x - y| on the samples.

    values, if given, are F at the samples.  The ball tree of the samples
    decides; a failing verdict rescans the pairs in order, so its witness
    is the first violating pair.
    """
    if values is None:
        values = [F(x) for x in samples]
    if BallTree(samples).lipschitz_ok(values, bound.exponent):
        return _verdict(name, True)
    for i in range(len(samples)):
        for j in range(i + 1, len(samples)):
            dv = values[i].norm_of_difference(values[j])
            dx = samples[i].norm_of_difference(samples[j])
            if dv > bound * dx:
                return _verdict(name, False,
                                _pair_witness(samples[i], samples[j],
                                              values[i], values[j]))
    return _verdict(name, True)


def extension_verdict(F: ExtendedFunction, fn: FiniteFunction,
                      name: str = "extends-data") -> dict:
    for p, v in fn.entries:
        got = F(p)
        if got != v:
            return _verdict(name, False, {
                "x": p.to_text(), "expected": emit_element(v),
                "got": emit_element(got)})
    return _verdict(name, True)


def _samples_for(rng, inst: Instance, anchors: list[Point], n: int,
                 window, count) -> list[Point]:
    return sample_points(rng, inst.field, n, anchors, window, count)


# ---------------------------------------------------------------------------
# Task runners


def _run_extend_finite(inst: Instance, rng, window, count, epsilon):
    fn = inst.function
    F = extend_finite(fn)
    samples = _samples_for(rng, inst, list(fn.domain()), fn.n, window, count)
    verdicts = [extension_verdict(F, fn)]
    values = [F(x) for x in samples]
    verdicts.append(lipschitz_verdict(F, samples, values=values))
    if fn.n == 2:
        nd = extend_finite_nd(fn)
        ok, witness = True, None
        for x, a in zip(samples[: max(10, count // 4)], values):
            b = nd(x)
            if a != b:
                ok, witness = False, _pair_witness(x, x, a, b)
                break
        verdicts.append(_verdict("ladder-cross-check", ok, witness))
    if epsilon is not None:
        Feps = epsilon_pipeline(fn, epsilon)
        bound = NormValue.theta(-epsilon)
        verdicts.append(extension_verdict(Feps, fn, "epsilon-extends-data"))
        values = [Feps(x) for x in samples]
        verdicts.append(lipschitz_verdict(Feps, samples, bound,
                                          "epsilon-lipschitz-on-samples",
                                          values))
        F = Feps
    return F, verdicts, samples, values


def _run_extend_cell(inst: Instance, rng, window, count):
    cells, pieces = list(inst.cells), list(inst.pieces)
    F = extend_cell_risometry_line(cells, pieces)
    transport = F.extras["transport"]
    skel_points = list(transport.source.points())
    members = []
    for cell in cells:
        for bi in range(len(cell.boxes)):
            members.append(cell_member(cell, bi))
    anchors = [Point((x,)) for x in members + skel_points]
    samples = _samples_for(rng, inst, anchors, 1, window, count)

    ok, witness = True, None
    for cell, (a, b) in zip(cells, pieces):
        for bi in range(len(cell.boxes)):
            m = cell_member(cell, bi)
            got, want = F(Point((m,))), a * m + b
            if got != want:
                ok, witness = False, {"x": m.to_text(),
                                      "expected": emit_element(want),
                                      "got": emit_element(got)}
    verdicts = [_verdict("extends-members", ok, witness)]

    split = F.extras["split"]
    values = [F(x) for x in samples]
    ok, witness = True, None
    for x, a in zip(samples, values):
        b = split(x)
        if a != b:
            ok, witness = False, _pair_witness(x, x, a, b)
            break
    verdicts.append(_verdict("split-route-agrees", ok, witness))
    verdicts.append(_verdict("configuration-preserved", True))
    verdicts.append(lipschitz_verdict(F, samples, values=values))
    return F, verdicts, samples, values


def _run_extend_graphs(inst: Instance, rng, window, count):
    family = inst.family
    F = extend_graph_family_via_reduction(family)
    olist, _ = origins(family)
    graph_points = []
    values = []
    for ci, cell in enumerate(family.base_cells):
        for bi in range(len(cell.boxes)):
            x1 = cell_member(cell, bi)
            for br in family.branches[ci]:
                graph_points.append(Point((x1, br.phi(x1))))
                values.append(br.value(x1))
    anchors = graph_points + [o for o, _ in olist]
    samples = _samples_for(rng, inst, anchors, 2, window, count)

    ok, witness = True, None
    for p, v in zip(graph_points, values):
        got = F(p)
        if got != v:
            ok, witness = False, {"x": p.to_text(),
                                  "expected": emit_element(v),
                                  "got": emit_element(got)}
            break
    values = [F(x) for x in samples]
    verdicts = [_verdict("extends-graph-data", ok, witness),
                _verdict("origin-reduction-vanishes", True),
                lipschitz_verdict(F, samples, values=values)]
    return F, verdicts, samples, values


def _run_glue(inst: Instance, rng, window, count):
    if inst.parts is not None:
        combined = union_function(inst.parts)
        F = glue_union(inst.parts)
        anchors = list(combined.domain())
        samples = _samples_for(rng, inst, anchors, combined.n, window, count)
        verdicts = [extension_verdict(F, combined)]
        values = [F(x) for x in samples]
        verdicts.append(lipschitz_verdict(F, samples, values=values))
        return F, verdicts, samples, values

    a, b_points = inst.glue_a, list(inst.glue_b)
    base = extend_finite(a)
    F = glue_vanishing(a, b_points, base)
    anchors = list(a.domain()) + b_points
    samples = _samples_for(rng, inst, anchors, a.n, window, count)

    ok, witness = True, None
    b_set = set(b_points)
    for p, v in a.entries:
        want = a.field.zero() if p in b_set else v
        got = F(p)
        if got != want:
            ok, witness = False, {"x": p.to_text(),
                                  "expected": emit_element(want),
                                  "got": emit_element(got)}
            break
    for p in b_points:
        if ok and not F(p).is_zero:
            ok, witness = False, {"x": p.to_text(), "expected": "0",
                                  "got": emit_element(F(p))}
    verdicts = [_verdict("glue-value-table", ok, witness)]

    ok, witness = True, None
    a_pts = list(a.domain())
    for x in samples:
        if glue_conditions(x, a_pts, b_points) \
                != glue_conditions_pointwise(x, a_pts, b_points):
            ok, witness = False, {"x": x.to_text()}
            break
    verdicts.append(_verdict("condition-routes-agree", ok, witness))
    values = [F(x) for x in samples]
    verdicts.append(lipschitz_verdict(F, samples, values=values))
    return F, verdicts, samples, values


def _run_skeleton(inst: Instance, rng, window, count):
    cells = list(inst.cells)
    skel = build_skeleton(cells)
    verdicts = [_verdict(name, ok, {"detail": msg} if not ok else None)
                for name, ok, msg in check_skeleton(skel, cells)]

    ok, witness = True, None
    for (cell, _), moved in zip(skel.attachments, skel.recentered):
        probes = [cell_member(cell, bi) for bi in range(len(cell.boxes))]
        probes += [cell_member(moved, bi) for bi in range(len(moved.boxes))]
        probes += [p for lv in skel.levels for p in lv.points]
        for x in probes:
            if cell.contains(x) != moved.contains(x):
                ok, witness = False, {"x": x.to_text()}
                break
    verdicts.append(_verdict("member-sets-preserved", ok, witness))

    shuffled = cells[:]
    rng.shuffle(shuffled)
    other = build_skeleton(shuffled)
    same = set(skel.points()) == set(other.points()) \
        and [lv.radius for lv in skel.levels] == [lv.radius for lv in other.levels]
    verdicts.append(_verdict("permutation-invariant", same))
    return skel, verdicts


# ---------------------------------------------------------------------------
# Reports


def _sample_rows(samples: list[Point], values: list) -> list[dict]:
    return [{"x": x.to_text(), "value": emit_element(v)}
            for x, v in zip(samples, values)]


def run_instance(inst: Instance, seed: int, count: int, window,
                 epsilon) -> dict:
    rng = random.Random(seed * 9176 + 11)
    start = time.monotonic()
    caught: list[str] = []
    with warnings.catch_warnings(record=True) as wlist:
        warnings.simplefilter("always", PDivisibleCountWarning)
        if inst.task == "skeleton":
            skel, verdicts = _run_skeleton(inst, rng, window, count)
            report = {"skeleton": emit_skeleton(skel, inst.cells)}
            provenance = "skeleton"
            samples_out = []
        else:
            if inst.task == "extend-finite":
                F, verdicts, samples, values = _run_extend_finite(
                    inst, rng, window, count, epsilon)
            elif inst.task == "extend-cell":
                F, verdicts, samples, values = _run_extend_cell(
                    inst, rng, window, count)
            elif inst.task == "extend-graphs":
                F, verdicts, samples, values = _run_extend_graphs(
                    inst, rng, window, count)
            else:
                F, verdicts, samples, values = _run_glue(
                    inst, rng, window, count)
            provenance = F.provenance
            report = {"extension": {"provenance": F.provenance,
                                    "description": F.description}}
            samples_out = _sample_rows(samples, values)
        caught = [str(w.message) for w in wlist
                  if issubclass(w.category, PDivisibleCountWarning)]
    elapsed = (time.monotonic() - start) * 1000.0
    from .serialize import emit_instance
    report.update({
        "task": inst.task,
        "provenance": provenance,
        "verdicts": verdicts,
        "samples": samples_out,
        "warnings": caught,
        "timing_ms": round(elapsed, 3),
        "instance": emit_instance(inst),
        "seed": seed,
    })
    return report


def construct_extension(inst: Instance) -> ExtendedFunction:
    if inst.task == "extend-finite":
        return extend_finite(inst.function)
    if inst.task == "extend-cell":
        return extend_cell_risometry_line(list(inst.cells), list(inst.pieces))
    if inst.task == "extend-graphs":
        return extend_graph_family_via_reduction(inst.family)
    if inst.task == "glue":
        if inst.parts is not None:
            return glue_union(inst.parts)
        return glue_vanishing(inst.glue_a, list(inst.glue_b),
                              extend_finite(inst.glue_a))
    raise InstanceError("$.task", f"{inst.task!r} has no extension to verify")


def run_verify(report_in: dict, seed: int, count: int, window, epsilon) -> dict:
    inst = parse_instance(report_in.get("instance"))
    fresh = run_instance(inst, report_in.get("seed", seed), count, window, epsilon)
    verdicts = list(fresh["verdicts"])
    stored = report_in.get("samples", [])
    ok, witness = True, None
    if stored and inst.task != "skeleton":
        F = construct_extension(inst)
        from .serialize import parse_point
        for i, s in enumerate(stored):
            x = parse_point(inst.field, s["x"], F.n, f"$.samples[{i}].x")
            got = emit_element(F(x))
            if got != s["value"]:
                ok, witness = False, {"x": s["x"], "stored": s["value"],
                                      "recomputed": got}
                break
    verdicts.append(_verdict("samples-reproduce", ok, witness))
    fresh["verdicts"] = verdicts
    fresh["task"] = "verify"
    return fresh


# ---------------------------------------------------------------------------
# Entry point


def _parse_window(s: str) -> tuple[int, int]:
    try:
        lo, hi = (int(part) for part in s.split(","))
    except ValueError:
        raise SystemExit(f"bad --window {s!r}; expected lo,hi")
    if lo > hi:
        raise SystemExit(f"bad --window {s!r}; lo exceeds hi")
    return lo, hi


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ultralip",
        description="Exact Lipschitz extension constructions and their "
                    "verification over computable valued fields.")
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--input", "-i", help="input JSON path (or - for stdin)")
    p.add_argument("--output", "-o", help="output JSON path (default stdout)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=60,
                   help="number of pseudo-random verification points")
    p.add_argument("--window", default="-6,6",
                   help="exponent window lo,hi for sampling and generation")
    p.add_argument("--epsilon", default=None,
                   help="rational q > 0: also run the theta(-q) scaling pipeline")
    p.add_argument("--profile", choices=PROFILES, default="finite-line",
                   help="instance profile for generate")
    p.add_argument("--size", type=int, default=None,
                   help="instance size hint for generate")
    p.add_argument("--field", default="t-adic",
                   choices=("t-adic", "puiseux", "p-adic"),
                   help="field backend for generate")
    p.add_argument("--prime", type=int, default=None,
                   help="prime for the p-adic backend")
    return p


def _read_input(path: str):
    if path in (None, "-"):
        return sys.stdin.read()
    with open(path, "rb") as fh:
        return fh.read()


def _write_output(path: str | None, payload: dict):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    window = _parse_window(args.window)
    epsilon = None
    if args.epsilon is not None:
        epsilon = parse_rational(args.epsilon, "--epsilon")
        if epsilon <= 0:
            print("--epsilon must be positive", file=sys.stderr)
            return 2

    try:
        if args.command == "generate":
            field = FieldDescriptor(args.field, args.prime)
            payload = generate(args.seed, args.profile, field,
                               args.size, window)
            _write_output(args.output, payload)
            return 0

        raw = _read_input(args.input)
        if args.command == "verify":
            report_in = json.loads(raw)
            report = run_verify(report_in, args.seed, args.samples,
                                window, epsilon)
        else:
            inst = parse_instance(raw)
            if inst.task != args.command:
                print(f"instance task {inst.task!r} does not match "
                      f"command {args.command!r}", file=sys.stderr)
                return 2
            report = run_instance(inst, args.seed, args.samples,
                                  window, epsilon)
    except InstanceError as e:
        print(f"instance error: {e}", file=sys.stderr)
        return 2
    except (NotLipschitzError, ExtensionError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 2

    _write_output(args.output, report)
    return 0 if all(v["pass"] for v in report["verdicts"]) else 1


if __name__ == "__main__":
    sys.exit(main())
