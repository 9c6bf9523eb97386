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
from fractions import Fraction
from functools import partial

from .field import (
    NORM_ONE,
    FieldDescriptor,
    NormValue,
    PDivisibleCountWarning,
    Point,
)
from .geometry import cell_member, rho
from .lipschitz import NotLipschitzError, first_violation
from .extension import (
    ExtendedFunction,
    ExtensionError,
    epsilon_pipeline,
    extend_cell_risometry_line,
    extend_finite,
    extend_graph_family_via_reduction,
    glue_conditions_pointwise,
    glue_union,
    glue_vanishing,
    union_function,
)
from .generate import PROFILES, generate, sample_points
from .serialize import (
    Instance,
    InstanceError,
    emit_cut,
    emit_element,
    emit_instance,
    emit_rational,
    emit_skeleton,
    parse_instance,
    parse_point,
    parse_rational,
)
from .skeleton import build_skeleton, check_skeleton, configuration_of

COMMANDS = ("extend-finite", "extend-cell", "extend-graphs", "glue",
            "skeleton", "verify", "generate")


def _verdict(name: str, ok: bool, witness=None) -> dict:
    out = {"name": name, "pass": bool(ok)}
    if not ok:
        out["witness"] = witness if witness is not None else {}
    return out


def _point_verdict(name: str, bad) -> dict:
    """Pass when no point failed; else the failing point is the witness."""
    return _verdict(name, bad is None,
                    None if bad is None else {"x": bad.to_text()})


def _pair_witness(x: Point, y: Point, fx, fy) -> dict:
    return {"x": x.to_text(), "y": y.to_text(),
            "fx": emit_element(fx), "fy": emit_element(fy)}


def lipschitz_verdict(F: ExtendedFunction, samples: list[Point],
                      bound: NormValue = NORM_ONE,
                      name: str = "one-lipschitz-on-samples",
                      values: list | None = None) -> dict:
    """Whether |F(x) - F(y)| <= bound * |x - y| on the samples.

    values, if given, are F at the samples.  A failing verdict's witness
    is the first violating pair.
    """
    if values is None:
        values = [F(x) for x in samples]
    violation = first_violation(list(zip(samples, values)), bound)
    if violation is None:
        return _verdict(name, True)
    (x, fx), (y, fy) = violation
    return _verdict(name, False, _pair_witness(x, y, fx, fy))


def values_verdict(samples: list[Point], values: list, pairs,
                   name: str) -> dict:
    """Whether F(p) == want for every (p, want) in pairs, reading F(p)
    from values, F at the samples, which hold every p; a failing
    verdict's witness is the first pair where they differ."""
    at = dict(zip(samples, values))
    for p, want in pairs:
        got = at[p]
        if got != want:
            return _verdict(name, False, {"x": p.to_text(),
                                          "expected": emit_element(want),
                                          "got": emit_element(got)})
    return _verdict(name, True)


def configuration_verdict(cells, transport) -> dict:
    """Whether the image cells of a transport have the configuration of
    the source cells, and its point map keeps every skeleton point's
    level; computed on the transport the construction returned."""
    name = "configuration-preserved"
    source = configuration_of([(c.center, rho(c)) for c in cells])
    image = configuration_of([(c.center, rho(c))
                              for c in transport.image_cells])
    if source != image:
        return _verdict(name, False, {
            "centers": [c.center.to_text() for c in cells],
            "image_centers": [c.center.to_text()
                              for c in transport.image_cells]})
    for p, q in transport.point_map:
        if transport.source.level_of(p) != transport.image.level_of(q):
            return _verdict(name, False, {"x": p.to_text(),
                                          "image": q.to_text()})
    return _verdict(name, True)


def _members(cell) -> list:
    return [cell_member(cell, bi) for bi in range(len(cell.boxes))]


# ---------------------------------------------------------------------------
# Task runners
#
# A construction runner builds F, the (point, expected value) pairs F
# must take, and samples that start with those points (plus skeleton
# points or origins).  It evaluates F once at the samples, reads the
# pairs' check from those values, then runs its task's route, origin and
# configuration checks.


def construct_extension(inst: Instance) -> ExtendedFunction:
    """The extension F of a construction task: the one map from a task to
    its construction."""
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


def _run_extend_finite(inst: Instance, rng, window, count, epsilon):
    fn = inst.function
    F = construct_extension(inst)
    samples = sample_points(rng, inst.field, fn.n, list(fn.domain()),
                            window, count)
    values = [F(x) for x in samples]
    verdicts = [values_verdict(samples, values, fn.entries, "extends-data"),
                lipschitz_verdict(F, samples, values=values)]
    if epsilon is not None:
        F = epsilon_pipeline(fn, epsilon)
        values = [F(x) for x in samples]
        verdicts.append(values_verdict(samples, values, fn.entries,
                                       "epsilon-extends-data"))
        verdicts.append(lipschitz_verdict(
            F, samples, NormValue.theta(-epsilon),
            "epsilon-lipschitz-on-samples", values))
    return F, verdicts, samples, values


def _run_extend_cell(inst: Instance, rng, window, count):
    F = construct_extension(inst)
    transport = F.extras["transport"]
    pairs = [(Point((m,)), a * m + b)
             for cell, (a, b) in zip(inst.cells, inst.pieces)
             for m in _members(cell)]
    anchors = [p for p, _ in pairs] + [Point((x,)) for x in
                                       transport.source.points()]
    samples = sample_points(rng, inst.field, 1, anchors, window, count)
    values = [F(x) for x in samples]
    verdicts = [values_verdict(samples, values, pairs, "extends-members"),
                configuration_verdict(inst.cells, transport),
                lipschitz_verdict(F, samples, values=values)]
    return F, verdicts, samples, values


def _run_extend_graphs(inst: Instance, rng, window, count):
    family = inst.family
    F = construct_extension(inst)
    olist = F.extras["origins"]
    pairs = [(Point((x1, br.phi(x1))), br.value(x1))
             for cell, branches in zip(family.base_cells, family.branches)
             for x1 in _members(cell) for br in branches]
    anchors = [p for p, _ in pairs] + [o for o, _ in olist]
    samples = sample_points(rng, inst.field, 2, anchors, window, count)
    values = [F(x) for x in samples]
    verdicts = [values_verdict(samples, values, pairs, "extends-graph-data"),
                values_verdict(samples, values, olist,
                               "origin-reduction-vanishes"),
                lipschitz_verdict(F, samples, values=values)]
    return F, verdicts, samples, values


def _run_glue(inst: Instance, rng, window, count):
    F = construct_extension(inst)
    if inst.parts is not None:
        pairs, name = union_function(inst.parts).entries, "extends-data"
    else:
        b_points = list(inst.glue_b)
        zero, b_set = inst.field.zero(), set(b_points)
        pairs = [(p, zero if p in b_set else v)
                 for p, v in inst.glue_a.entries] \
            + [(p, zero) for p in b_points]
        name = "glue-value-table"
    samples = sample_points(rng, inst.field, F.n, [p for p, _ in pairs],
                            window, count)
    values = [F(x) for x in samples]
    verdicts = [values_verdict(samples, values, pairs, name)]
    if inst.parts is None:
        a_pts = list(inst.glue_a.domain())
        conditions = F.extras["conditions"]
        bad = next((x for x in samples if conditions(x)
                    != glue_conditions_pointwise(x, a_pts, b_points)), None)
        verdicts.append(_point_verdict("condition-routes-agree", bad))
    verdicts.append(lipschitz_verdict(F, samples, values=values))
    return F, verdicts, samples, values


def _run_skeleton(inst: Instance, rng, window, count):
    cells = list(inst.cells)
    skel = build_skeleton(cells)
    verdicts = [_verdict(name, ok, {"detail": msg} if not ok else None)
                for name, ok, msg in check_skeleton(skel, cells)]

    bad = next((x for (cell, _), moved in zip(skel.attachments, skel.recentered)
                for x in _members(cell) + _members(moved) + list(skel.points())
                if cell.contains(x) != moved.contains(x)), None)
    verdicts.append(_point_verdict("member-sets-preserved", bad))

    shuffled = cells[:]
    rng.shuffle(shuffled)
    other = build_skeleton(shuffled)

    def shape(s):
        return {"points": [emit_element(p) for p in s.points()],
                "radii": [emit_cut(lv.radius) for lv in s.levels]}

    same = set(skel.points()) == set(other.points()) \
        and [lv.radius for lv in skel.levels] == [lv.radius for lv in other.levels]
    verdicts.append(_verdict("permutation-invariant", same, None if same else
                             {"given": shape(skel), "shuffled": shape(other)}))
    return skel, verdicts


# ---------------------------------------------------------------------------
# Reports


def _sample_rows(samples: list[Point], values: list) -> list[dict]:
    return [{"x": x.to_text(), "value": emit_element(v)}
            for x, v in zip(samples, values)]


def _replay(inst: Instance, seed: int, count: int, window,
            epsilon) -> tuple[dict, ExtendedFunction | None]:
    """The report of one construction command, and its F (None for
    skeleton tasks; Feps when epsilon is given)."""
    if epsilon is not None and inst.task != "extend-finite":
        raise InstanceError("$.epsilon",
                            f"a {inst.task} task takes no epsilon")
    rng = random.Random(seed * 9176 + 11)
    start = time.monotonic()
    caught: list[str] = []
    F = None
    with warnings.catch_warnings(record=True) as wlist:
        warnings.simplefilter("always", PDivisibleCountWarning)
        if inst.task == "skeleton":
            skel, verdicts = _run_skeleton(inst, rng, window, count)
            report = {"skeleton": emit_skeleton(skel, inst.cells)}
            provenance = "skeleton"
            samples_out = []
        else:
            run = {"extend-finite": partial(_run_extend_finite,
                                            epsilon=epsilon),
                   "extend-cell": _run_extend_cell,
                   "extend-graphs": _run_extend_graphs,
                   "glue": _run_glue}[inst.task]
            F, verdicts, samples, values = run(inst, rng, window, count)
            provenance = F.provenance
            report = {"extension": {"provenance": F.provenance,
                                    "description": F.description}}
            samples_out = _sample_rows(samples, values)
        caught = [str(w.message) for w in wlist
                  if issubclass(w.category, PDivisibleCountWarning)]
    elapsed = (time.monotonic() - start) * 1000.0
    report.update({
        "task": inst.task,
        "provenance": provenance,
        "verdicts": verdicts,
        "samples": samples_out,
        "warnings": caught,
        "timing_ms": round(elapsed, 3),
        "instance": emit_instance(inst),
        "seed": seed,
        "sample_count": count,
        "window": list(window),
        "epsilon": None if epsilon is None else emit_rational(epsilon),
    })
    return report, F


def run_instance(inst: Instance, seed: int, count: int, window,
                 epsilon) -> dict:
    return _replay(inst, seed, count, window, epsilon)[0]


def _positive_rational(s, path: str) -> Fraction:
    q = parse_rational(s, path)
    if q <= 0:
        raise InstanceError(path, "must be positive")
    return q


def _int_at(obj, path: str) -> int:
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise InstanceError(path, "expected an integer")
    return obj


def _count_at(obj, path: str) -> int:
    if _int_at(obj, path) < 0:
        raise InstanceError(path, "must not be negative")
    return obj


def _window_at(obj, path: str) -> tuple[int, int]:
    if not isinstance(obj, list) or len(obj) != 2:
        raise InstanceError(path, "expected [lo, hi]")
    lo, hi = (_int_at(v, f"{path}[{i}]") for i, v in enumerate(obj))
    if lo > hi:
        raise InstanceError(path, "lo exceeds hi")
    return lo, hi


def _recorded_parameters(report_in: dict, seed: int, count: int, window,
                         epsilon) -> tuple:
    """The parameters the report was made with; a flag stands in for a
    value the report does not record (reports of older versions)."""
    def recorded(key, flag, parse):
        return parse(report_in[key], f"$.{key}") if key in report_in else flag

    return (recorded("seed", seed, _int_at),
            recorded("sample_count", count, _count_at),
            recorded("window", window, _window_at),
            recorded("epsilon", epsilon, lambda v, path: None if v is None
                     else _positive_rational(v, path)))


def _samples_reproduce(inst: Instance, F: ExtendedFunction | None,
                       stored, fresh: list[dict]) -> dict:
    """Whether every stored sample row holds F's value at its x.

    A stored row is compared with the fresh row at the same position
    when their x texts agree (same seed and count give the same points);
    F is evaluated only at stored points with no such twin.
    """
    if not isinstance(stored, list):
        raise InstanceError("$.samples", "expected a list of sample rows")
    for i, s in enumerate(stored):
        path = f"$.samples[{i}]"
        if not isinstance(s, dict) or "x" not in s or "value" not in s:
            raise InstanceError(path, "expected {'x': [...], 'value': ...}")
        if i < len(fresh) and fresh[i]["x"] == s["x"]:
            got = fresh[i]["value"]
        elif F is None:
            raise InstanceError(path, f"a {inst.task} report has no samples")
        else:
            got = emit_element(F(parse_point(inst.field, s["x"], F.n,
                                             f"{path}.x")))
        if got != s["value"]:
            return _verdict("samples-reproduce", False,
                            {"x": s["x"], "stored": s["value"],
                             "recomputed": got})
    return _verdict("samples-reproduce", True)


def run_verify(report_in: dict, seed: int, count: int, window, epsilon) -> dict:
    """Replay the report's command once from its embedded instance and
    recorded parameters, then check its stored samples against F."""
    if not isinstance(report_in, dict):
        raise InstanceError("$", "a report must be a JSON object")
    inst = parse_instance(report_in.get("instance"))
    fresh, F = _replay(inst, *_recorded_parameters(report_in, seed, count,
                                                   window, epsilon))
    fresh["verdicts"].append(_samples_reproduce(
        inst, F, report_in.get("samples", []), fresh["samples"]))
    fresh["task"] = "verify"
    return fresh


# ---------------------------------------------------------------------------
# Entry point


def _window_arg(s: str) -> tuple[int, int]:
    try:
        lo, hi = (int(part) for part in s.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo,hi, got {s!r}")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"lo exceeds hi in {s!r}")
    return lo, hi


def _int_from(least: int):
    """An argparse type for the integers >= least."""
    def parse(s: str) -> int:
        try:
            v = int(s)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {s!r}")
        if v < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, "
                                             f"got {v}")
        return v
    return parse


def _epsilon_arg(s: str) -> Fraction:
    try:
        return _positive_rational(s, repr(s))
    except InstanceError as e:
        raise argparse.ArgumentTypeError(str(e))


def _attach_window(argv: list[str]) -> list[str]:
    """Join `--window lo,hi` into one word: argparse takes a value such
    as -3,3 that begins with '-' for an option."""
    out, words = [], iter(argv)
    for word in words:
        out.append(f"--window={next(words, '')}" if word == "--window"
                   else word)
    return out


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ultralip",
        description="Exact Lipschitz extension constructions and their "
                    "verification over computable valued fields.")
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--input", "-i", help="input JSON path (or - for stdin)")
    p.add_argument("--output", "-o", help="output JSON path (default stdout)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=_int_from(0), default=60,
                   help="number (>= 0) of pseudo-random verification points")
    p.add_argument("--window", type=_window_arg, default="-6,6",
                   help="exponent window lo,hi for sampling and generation")
    p.add_argument("--epsilon", type=_epsilon_arg, default=None,
                   help="rational q > 0: extend-finite also runs the theta(-q) "
                        "scaling pipeline")
    p.add_argument("--profile", choices=PROFILES, default=None,
                   help="instance profile for generate (default finite-line)")
    p.add_argument("--size", type=_int_from(1), default=None,
                   help="instance size hint (>= 1) for generate")
    p.add_argument("--field", default=None,
                   choices=("t-adic", "puiseux", "p-adic"),
                   help="field backend for generate (default t-adic)")
    p.add_argument("--prime", type=int, default=None,
                   help="prime of the p-adic backend for generate")
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
    parser = build_parser()
    args = parser.parse_args(
        _attach_window(sys.argv[1:] if argv is None else argv))
    window, epsilon = args.window, args.epsilon
    if epsilon is not None and args.command not in ("extend-finite", "verify"):
        parser.error(f"--epsilon applies to extend-finite, not {args.command}")
    if args.command != "generate":
        # generate's options default to None, so any use elsewhere shows
        for flag in ("profile", "size", "field", "prime"):
            if getattr(args, flag) is not None:
                parser.error(f"--{flag} applies to generate, "
                             f"not {args.command}")
    try:
        if args.command == "generate":
            field = FieldDescriptor(args.field or "t-adic", args.prime)
            try:
                payload = generate(args.seed, args.profile or "finite-line",
                                   field, args.size, window)
            except RuntimeError as e:  # no sound instance within its tries
                print(f"generate gave up: {e}", file=sys.stderr)
                return 2
            code = 0
        else:
            raw = _read_input(args.input)
            if args.command == "verify":
                payload = run_verify(json.loads(raw), args.seed,
                                     args.samples, window, epsilon)
            else:
                inst = parse_instance(raw)
                if inst.task != args.command:
                    print(f"instance task {inst.task!r} does not match "
                          f"command {args.command!r}", file=sys.stderr)
                    return 2
                payload = run_instance(inst, args.seed, args.samples,
                                       window, epsilon)
            code = 0 if all(v["pass"] for v in payload["verdicts"]) else 1
        _write_output(args.output, payload)
    except InstanceError as e:
        print(f"instance error: {e}", file=sys.stderr)
        return 2
    except (NotLipschitzError, ExtensionError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
