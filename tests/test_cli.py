"""Serialization round-trips, generator soundness, CLI contracts."""

import contextlib
import copy
import dataclasses
import io
import json
import os
import random
import re
import sys
import tempfile
import time
import warnings
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ultralip import cli, extension
from ultralip.cli import main, run_instance
from ultralip.extension import (
    ExtendedFunction,
    GraphBranch,
    GraphFamily,
    _fiberwise,
    origins,
)
from ultralip.field import CutValue, FieldDescriptor, NormValue
from ultralip.generate import (
    PROFILES,
    generate,
    generate_instance,
    generate_vanishing_pair,
    sample_points,
)
from ultralip.geometry import AnnulusBox, Cell1D, cell_member, cells_intersect
from ultralip.lipschitz import FiniteFunction, is_lipschitz
from ultralip.serialize import (
    Instance,
    InstanceError,
    emit_cut,
    emit_element,
    emit_instance,
    emit_rational,
    parse_element,
    parse_field,
    parse_instance,
)

T = FieldDescriptor("t-adic")
PX = FieldDescriptor("puiseux")
P3 = FieldDescriptor("p-adic", prime=3)
NORM_ONE = NormValue.theta(0)


def t(e, c=1):
    return T.monomial(e, c)


# -- element grammar -----------------------------------------------------------


def test_element_text_round_trip():
    elems = [T.zero(), T.one(), t(1), t(-2, 3), T.one() + t(1),
             T.one() / (T.one() + t(1)),
             (t(2) + t(3, -5)) / (T.one() + t(1, 7)),
             T.from_rational(Q(3, 2))]
    for e in elems:
        assert parse_element(T, emit_element(e)) == e
    px = PX.monomial(Q(1, 2), 3) + PX.one()
    assert parse_element(PX, emit_element(px)) == px
    for q in (0, 1, -7, Q(22, 7)):
        e = P3.from_rational(q)
        assert parse_element(P3, emit_element(e)) == e


def test_element_parse_inputs():
    assert parse_element(T, "(t)") == t(1)
    assert parse_element(T, "(2*t^3 + -1*t^0)") == t(3, 2) - T.one()
    assert parse_element(T, "(t^-1)") == t(-1)
    assert parse_element(T, "0") == T.zero()
    assert parse_element(PX, "(2*t^(1/2))") == PX.monomial(Q(1, 2), 2)
    with pytest.raises(InstanceError):
        parse_element(T, "(2**t)")
    with pytest.raises(InstanceError):
        parse_element(T, "(t^(1/2))")  # not in the discrete exponent group


def _finite_line(kind, pairs):
    return {"task": "extend-finite", "field": {"kind": kind},
            "function": {"n": 1, "entries": [{"x": [x], "fx": fx}
                                             for x, fx in pairs]}}


# (x, f(x)) written with spaces, bare t, unsorted and zero terms, an
# unreduced coefficient and common factors, next to to_text's forms
NON_CANONICAL_LINE = [("(t + t^2)/(t + t^3)", "t"),
                      ("( t^2 )", "(t^2 + t + 0*t^5)"),
                      ("0", "(2/2*t^2 + 1*t^1)/(1*t^0 + 1*t^1)")]
CANONICAL_LINE = [("(1*t^0 + 1*t^1)/(1*t^0 + 1*t^2)", "(1*t^1)/(1*t^0)"),
                  ("(1*t^2)/(1*t^0)", "(1*t^1 + 1*t^2)/(1*t^0)"),
                  ("(0)", "(1*t^1)/(1*t^0)")]


def test_non_canonical_text_reports_like_its_canonical_twin(tmp_path):
    reports = []
    for pairs in (NON_CANONICAL_LINE, CANONICAL_LINE):
        rc, out_path = _report(tmp_path, _finite_line("t-adic", pairs),
                               "extend-finite")
        assert rc == 0
        reports.append(json.loads(open(out_path).read()))
        reports[-1].pop("timing_ms")
    assert reports[0] == reports[1]
    assert [e["x"] for e in reports[0]["instance"]["function"]["entries"]] \
        == [[x] for x, _ in CANONICAL_LINE]


@pytest.mark.parametrize("kind", ("t-adic", "puiseux", "p-adic"))
def test_a_non_ascii_digit_exits_2_and_names_its_path(tmp_path, kind):
    # "٣" is a decimal digit to Python's \d and int, but not in the grammar
    payload = _finite_line(kind, [("1", "0"), ("٣", "0")])
    if kind == "p-adic":
        payload["field"]["prime"] = 3
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc, _ = _report(tmp_path, payload, "extend-finite")
    assert rc == 2
    assert "$.function.entries[1].x[0]" in err.getvalue()
    assert "Traceback" not in err.getvalue()


# -- instance round-trips ---------------------------------------------------------


@pytest.mark.parametrize("profile", PROFILES)
def test_instance_round_trip(profile):
    data = generate(11, profile)
    inst = parse_instance(json.dumps(data))
    assert emit_instance(inst) == data


def test_parse_instance_errors():
    with pytest.raises(InstanceError, match="task"):
        parse_instance({"task": "fly", "field": {"kind": "t-adic"}})
    with pytest.raises(InstanceError, match="kind"):
        parse_instance({"task": "extend-finite", "field": {"kind": "q-adic"},
                        "function": {"n": 1, "entries": []}})
    with pytest.raises(InstanceError, match="duplicate"):
        parse_instance({
            "task": "extend-finite", "field": {"kind": "t-adic"},
            "function": {"n": 1, "entries": [
                {"x": ["(t)"], "fx": "0"}, {"x": ["(t)"], "fx": "(t)"}]}})


# -- generator soundness -------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_generated_finite_instances_are_lipschitz(seed):
    """The pair scan, which shares no code with the generator's ball-tree
    check, on every backend."""
    for field in (FieldDescriptor("t-adic"), FieldDescriptor("puiseux"),
                  FieldDescriptor("p-adic", prime=3)):
        for profile in ("finite-line", "finite-plane", "finite-nd"):
            inst = parse_instance(json.dumps(generate(seed, profile, field)))
            assert is_lipschitz(inst.function, NORM_ONE).ok


@pytest.mark.parametrize("seed", range(6))
def test_generated_cells_are_disjoint(seed):
    inst = parse_instance(json.dumps(generate(seed, "cells-line")))
    cells = list(inst.cells)
    for i, a in enumerate(cells):
        for b in cells[i + 1:]:
            assert not cells_intersect(a, b)


def test_generate_instance_rejects_sizes_below_one():
    for size in (0, -3):
        for profile in ("finite-line", "cells-line", "graphs"):
            with pytest.raises(ValueError, match="at least 1"):
                generate_instance(0, profile, T, size=size)


def test_generate_determinism():
    a = generate(7, "finite-plane")
    b = generate(7, "finite-plane")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert generate(8, "finite-plane") != a


def test_sample_points_mix_scales():
    rng = random.Random(5)
    anchors = []
    pts = sample_points(rng, T, 1, anchors, (-3, 3), 30)
    norms = {p.norm() for p in pts}
    assert len(norms) >= 4  # several radius scales appear


# -- CLI end to end -------------------------------------------------------------------


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize("profile,command", [
    ("finite-line", "extend-finite"),
    ("finite-plane", "extend-finite"),
    ("cells-line", "extend-cell"),
    ("graphs", "extend-graphs"),
])
def test_cli_pipeline(tmp_path, profile, command):
    inst_path = str(tmp_path / "inst.json")
    out_path = str(tmp_path / "report.json")
    assert main(["generate", "--seed", "5", "--profile", profile,
                 "-o", inst_path]) == 0
    assert main([command, "-i", inst_path, "-o", out_path,
                 "--samples", "25"]) == 0
    report = json.loads(open(out_path).read())
    assert all(v["pass"] for v in report["verdicts"])
    # verification of the report reproduces the stored samples
    verify_out = str(tmp_path / "verify.json")
    assert main(["verify", "-i", out_path, "-o", verify_out]) == 0


def test_cli_skeleton_and_exit_codes(tmp_path):
    data = generate(4, "cells-line")
    data["task"] = "skeleton"
    data.pop("pieces")
    inst_path = _write(tmp_path, "skel.json", data)
    out_path = str(tmp_path / "skel_report.json")
    assert main(["skeleton", "-i", inst_path, "-o", out_path]) == 0
    report = json.loads(open(out_path).read())
    assert "skeleton" in report and report["skeleton"]["levels"]

    bad = _write(tmp_path, "bad.json", {"task": "nope"})
    assert main(["extend-finite", "-i", bad]) == 2


def test_cli_detects_corruption(tmp_path):
    inst_path = str(tmp_path / "i.json")
    out_path = str(tmp_path / "r.json")
    main(["generate", "--seed", "9", "--profile", "finite-line", "-o", inst_path])
    main(["extend-finite", "-i", inst_path, "-o", out_path, "--samples", "10"])
    report = json.loads(open(out_path).read())
    report["samples"][0]["value"] = "(123*t^0)/(1*t^0)"
    corrupted = _write(tmp_path, "c.json", report)
    verify_out = str(tmp_path / "v.json")
    assert main(["verify", "-i", corrupted, "-o", verify_out]) == 1
    vr = json.loads(open(verify_out).read())
    bad = [v for v in vr["verdicts"] if not v["pass"]]
    assert bad and bad[0]["name"] == "samples-reproduce"
    assert "witness" in bad[0]


@pytest.mark.parametrize("command", ["extend-finite", "verify"])
def test_an_unwritable_output_exits_2(tmp_path, capsys, command):
    rc, report_path = _report(tmp_path, generate(2, "finite-line"),
                              "extend-finite")
    assert rc == 0
    source = report_path if command == "verify" else str(tmp_path / "inst.json")
    capsys.readouterr()
    missing = tmp_path / "missing"
    assert main([command, "-i", source, "-o", str(missing / "out.json")]) == 2
    err = capsys.readouterr().err
    assert "i/o error" in err and "Traceback" not in err
    assert not missing.exists()


def test_cli_epsilon_flag(tmp_path):
    inst_path = str(tmp_path / "i.json")
    main(["generate", "--seed", "2", "--profile", "finite-line", "-o", inst_path])
    out_path = str(tmp_path / "r.json")
    assert main(["extend-finite", "-i", inst_path, "-o", out_path,
                 "--epsilon", "1", "--samples", "15"]) == 0
    names = [v["name"] for v in json.loads(open(out_path).read())["verdicts"]]
    assert "epsilon-lipschitz-on-samples" in names


def test_run_instance_report_shape():
    inst = parse_instance(json.dumps(generate(3, "finite-line")))
    report = run_instance(inst, seed=3, count=10, window=(-4, 4), epsilon=None)
    assert report["task"] == "extend-finite"
    assert report["samples"] and report["instance"]
    assert isinstance(report["timing_ms"], float)


def test_readme_verdict_table_names_the_corpus_verdicts():
    """The README's verdict table has one row per verdict that the golden
    corpus holds, so a deleted verdict cannot stay documented."""
    here = Path(__file__).parent
    readme = (here.parent / "README.md").read_text()
    rows = re.findall(r"^\| `([a-z-]+)` \|", readme, re.MULTILINE)
    corpus = {v["name"] for path in (here / "golden").rglob("*.json")
              for v in json.loads(path.read_text()).get("verdicts", [])}
    assert len(rows) == len(set(rows))
    assert set(rows) == corpus


def _named_verdict(report, name):
    return next(v for v in report["verdicts"] if v["name"] == name)


def _cell_report_with_transport(monkeypatch, break_transport):
    """The extend-cell report of a 4-cell, 2-level instance whose
    construction returns the transport break_transport makes of its own."""
    real = cli.extend_cell_risometry_line

    def broken(cells, pieces):
        F = real(cells, pieces)
        F.extras["transport"] = break_transport(F.extras["transport"])
        return F

    inst = generate_instance(0, "cells-line", T)
    report = run_instance(inst, 0, 10, (-6, 6), None)
    assert _named_verdict(report, "configuration-preserved")["pass"]
    monkeypatch.setattr(cli, "extend_cell_risometry_line", broken)
    return run_instance(inst, 0, 10, (-6, 6), None)


def test_configuration_verdict_sees_moved_image_cells(monkeypatch):
    def move_first_onto_second(tr):
        first, second, *rest = tr.image_cells
        moved = Cell1D(second.center, first.boxes)
        return dataclasses.replace(tr, image_cells=(moved, second, *rest))

    report = _cell_report_with_transport(monkeypatch, move_first_onto_second)
    verdict = _named_verdict(report, "configuration-preserved")
    assert not verdict["pass"]
    centers = verdict["witness"]["image_centers"]
    assert centers[0] == centers[1] != verdict["witness"]["centers"][0]


def test_configuration_verdict_sees_a_level_change(monkeypatch):
    def map_every_point_to_the_first_image(tr):
        q = tr.point_map[0][1]
        return dataclasses.replace(
            tr, point_map=tuple((p, q) for p, _ in tr.point_map))

    report = _cell_report_with_transport(
        monkeypatch, map_every_point_to_the_first_image)
    verdict = _named_verdict(report, "configuration-preserved")
    assert not verdict["pass"]
    p, q = verdict["witness"]["x"], verdict["witness"]["image"]
    assert p != q


def test_origin_verdict_sees_a_missing_origin_extension(monkeypatch):
    def without_origin_extension(family):
        # the reduction with the origin values never added back
        F = _fiberwise(family, lambda ci, bi, x1:
                       family.branches[ci][bi].value(x1))
        F.extras["origins"] = origins(family)[0]
        return F

    inst = generate_instance(1, "graphs", T)
    report = run_instance(inst, 1, 10, (-6, 6), None)
    assert _named_verdict(report, "origin-reduction-vanishes")["pass"]
    monkeypatch.setattr(cli, "extend_graph_family_via_reduction",
                        without_origin_extension)
    report = run_instance(inst, 1, 10, (-6, 6), None)
    assert _named_verdict(report, "extends-graph-data")["pass"]
    verdict = _named_verdict(report, "origin-reduction-vanishes")
    assert not verdict["pass"]
    assert verdict["witness"]["got"] != verdict["witness"]["expected"]


def _off_by_one(F, where=lambda x: True):
    """F with one added to its value at the points where holds."""
    one = F.backend.one()
    return dataclasses.replace(
        F, evaluator=lambda x: F.evaluator(x) + one if where(x)
        else F.evaluator(x))


def test_extends_members_witness_is_the_first_failing_member(monkeypatch):
    real = cli.extend_cell_risometry_line
    monkeypatch.setattr(cli, "extend_cell_risometry_line",
                        lambda cells, pieces: _off_by_one(real(cells, pieces)))
    inst = generate_instance(0, "cells-line", T)
    verdict = _named_verdict(run_instance(inst, 0, 10, (-6, 6), None),
                             "extends-members")
    cell, (a, b) = inst.cells[0], inst.pieces[0]
    m = cell_member(cell, 0)
    assert len(inst.cells) > 1 and verdict["witness"] == {
        "x": [emit_element(m)], "expected": emit_element(a * m + b),
        "got": emit_element(a * m + b + T.one())}


@pytest.mark.parametrize("field", [T, P3])
def test_glue_value_table_witness_at_a_b_point(monkeypatch, field):
    inst = generate_vanishing_pair(2, field, n=1, a_size=4, b_size=2)
    b0 = inst.glue_b[0]
    evaluated = []
    real = cli.glue_vanishing

    def broken(a, b, base):
        F = real(a, b, base)
        G = _off_by_one(F, lambda x: x == b0)
        inner = G.evaluator
        return dataclasses.replace(
            G, evaluator=lambda x: evaluated.append(x) or inner(x))

    monkeypatch.setattr(cli, "glue_vanishing", broken)
    report = run_instance(inst, 2, 10, (-6, 6), None)
    verdict = _named_verdict(report, "glue-value-table")
    assert verdict["witness"] == {"x": b0.to_text(),
                                  "expected": emit_element(field.zero()),
                                  "got": emit_element(field.one())}
    assert verdict["witness"]["expected"] == ("0/1" if field is P3 else "(0)")
    # once, as a sampling anchor: the value table reads the sample values
    assert evaluated.count(b0) == 1


def _flipped_conditions(monkeypatch, at):
    """Patch the glue construction so that its conditions flip at the
    point at."""
    real = cli.glue_vanishing

    def patched(a, b, base):
        F = real(a, b, base)
        own = F.extras["conditions"]

        def conditions(x):
            c1, c2 = own(x)
            return (not c1, not c2) if x == at else (c1, c2)

        return dataclasses.replace(F, extras={"conditions": conditions})

    monkeypatch.setattr(cli, "glue_vanishing", patched)


@pytest.mark.parametrize("field", [T, P3])
def test_condition_verdict_checks_the_extensions_own_route(
        monkeypatch, tmp_path, field):
    inst = generate_vanishing_pair(2, field, n=2, a_size=4, b_size=2)
    b0 = inst.glue_b[0]
    _flipped_conditions(monkeypatch, b0)
    report = run_instance(inst, 2, 10, (-6, 6), None)
    assert _named_verdict(report, "glue-value-table")["pass"]
    verdict = _named_verdict(report, "condition-routes-agree")
    assert verdict == {"name": "condition-routes-agree", "pass": False,
                       "witness": {"x": b0.to_text()}}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(emit_instance(inst)))
    assert main(["glue", "-i", str(path), "-o", str(tmp_path / "r.json"),
                 "--seed", "2", "--samples", "10"]) == 1


def test_permutation_invariant_failure_carries_both_skeletons(monkeypatch):
    real = cli.build_skeleton
    calls = []

    def second_call_drops_a_level(cells):
        calls.append(cells)
        s = real(cells)
        return s if len(calls) == 1 else dataclasses.replace(
            s, levels=s.levels[:-1])

    cells = generate_instance(0, "cells-line", T).cells
    monkeypatch.setattr(cli, "build_skeleton", second_call_drops_a_level)
    report = run_instance(Instance("skeleton", T, cells=cells), 0, 10,
                          (-6, 6), None)
    verdict = _named_verdict(report, "permutation-invariant")
    given, shuffled = verdict["witness"]["given"], verdict["witness"]["shuffled"]
    skel = real(cells)
    assert given == {"points": [emit_element(p) for p in skel.points()],
                     "radii": [emit_cut(lv.radius) for lv in skel.levels]}
    assert len(skel.levels) > 1 and shuffled["radii"] == given["radii"][:-1]
    assert set(shuffled["points"]) < set(given["points"])


@pytest.mark.parametrize("command,profile", [
    ("extend-cell", "cells-line"), ("extend-graphs", "graphs"),
    ("glue", None), ("skeleton", "cells-line"), ("generate", None)])
def test_epsilon_is_a_usage_error_outside_extend_finite(tmp_path, command,
                                                        profile):
    if profile is None:
        payload = emit_instance(generate_vanishing_pair(3, T))
    else:
        payload = generate(3, profile)
    if command == "skeleton":
        payload["task"] = "skeleton"
        del payload["pieces"]
    inst_path = _write(tmp_path, "inst.json", payload)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main([command, "-i", inst_path, "--epsilon", "1"])
    assert exc.value.code == 2
    assert "--epsilon" in err.getvalue() and "Traceback" not in err.getvalue()


@pytest.mark.parametrize("flag,value", [
    ("--profile", "graphs"), ("--size", "3"), ("--field", "p-adic"),
    ("--prime", "5")])
@pytest.mark.parametrize("command", ["extend-finite", "verify"])
def test_generate_flags_are_a_usage_error_elsewhere(tmp_path, command, flag,
                                                    value):
    rc, path = _report(tmp_path, generate(3, "finite-line"), "extend-finite",
                       "--samples", "5")
    assert rc == 0
    if command == "extend-finite":
        path = str(tmp_path / "inst.json")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main([command, "-i", path, flag, value])
    assert exc.value.code == 2
    assert flag in err.getvalue() and "Traceback" not in err.getvalue()


def test_verify_refuses_an_epsilon_on_another_task(tmp_path):
    rc, out_path = _report(tmp_path, generate(3, "cells-line"), "extend-cell",
                           "--samples", "5")
    report = json.loads(open(out_path).read())
    assert rc == 0 and report["epsilon"] is None
    report["epsilon"] = "1"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["verify", "-i", _write(tmp_path, "in.json", report)])
    assert rc == 2 and "$.epsilon" in err.getvalue()


def test_generate_singleton_profile():
    inst = parse_instance(json.dumps(generate(3, "finite-line", size=1)))
    assert len(inst.function.entries) == 1


# -- verify replays the recorded command once ------------------------------------


def _report(tmp_path, payload, command, *flags):
    inst_path = _write(tmp_path, "inst.json", payload)
    out_path = str(tmp_path / "report.json")
    rc = main([command, "-i", inst_path, "-o", out_path, *flags])
    return rc, out_path


def _verify(tmp_path, report, *flags):
    out_path = str(tmp_path / "verify.json")
    rc = main(["verify", "-i", _write(tmp_path, "in.json", report),
               "-o", out_path, *flags])
    return rc, json.loads(open(out_path).read())


def _samples_verdict(vr):
    return next(v for v in vr["verdicts"] if v["name"] == "samples-reproduce")


@pytest.mark.parametrize("field,q", [(T, "1"), (PX, "1/2")])
def test_epsilon_report_round_trip(tmp_path, field, q):
    payload = generate(2, "finite-line", field)
    rc, out_path = _report(tmp_path, payload, "extend-finite",
                           "--epsilon", q, "--samples", "15",
                           "--window", "-4,4")
    assert rc == 0
    report = json.loads(open(out_path).read())
    assert (report["epsilon"], report["window"], report["sample_count"]) \
        == (emit_rational(Q(q)), [-4, 4], 15)
    # no flags: every parameter comes from the report
    rc, vr = _verify(tmp_path, report)
    assert rc == 0 and _samples_verdict(vr)["pass"]
    assert vr["samples"] == report["samples"]


def _call_counter(monkeypatch):
    calls = [0]
    inner = ExtendedFunction.__call__

    def counted(self, x):
        calls[0] += 1
        return inner(self, x)

    monkeypatch.setattr(ExtendedFunction, "__call__", counted)
    return calls


def _union_payload():
    entries = list(generate_instance(4, "finite-line", T, 8).function.entries)
    parts = tuple(FiniteFunction(1, tuple(entries[i::3])) for i in range(3))
    return emit_instance(Instance("glue", T, parts=parts))


@pytest.mark.parametrize("kind", ["cell", "graphs", "glue-vanishing",
                                  "glue-union", "epsilon"])
def test_verify_evaluates_as_often_as_its_command(tmp_path, monkeypatch, kind):
    command, payload, flags = {
        "cell": ("extend-cell", lambda: generate(5, "cells-line"), ()),
        "graphs": ("extend-graphs", lambda: generate(5, "graphs"), ()),
        "glue-vanishing": ("glue", lambda: emit_instance(
            generate_vanishing_pair(5, T, n=1, a_size=5, b_size=3)), ()),
        "glue-union": ("glue", _union_payload, ()),
        "epsilon": ("extend-finite", lambda: generate(5, "finite-line"),
                    ("--epsilon", "1")),
    }[kind]
    calls = _call_counter(monkeypatch)
    rc, out_path = _report(tmp_path, payload(), command, "--samples", "12",
                           *flags)
    assert rc == 0
    built = calls[0]
    report = json.loads(open(out_path).read())
    for _ in range(2):
        calls[0] = 0
        rc, _vr = _verify(tmp_path, report)
        assert rc == 0 and calls[0] == built > 0


def test_verify_recomputes_a_stored_point_with_no_twin(tmp_path, monkeypatch):
    calls = _call_counter(monkeypatch)
    rc, out_path = _report(tmp_path, generate(9, "finite-line"),
                           "extend-finite", "--samples", "10")
    built = calls[0]
    report = json.loads(open(out_path).read())
    rows = report["samples"]
    i, j = next((i, j) for i in range(len(rows)) for j in range(len(rows))
                if rows[i]["value"] != rows[j]["value"])
    rows[i]["x"] = rows[j]["x"]
    calls[0] = 0
    rc, vr = _verify(tmp_path, report)
    assert rc == 1 and calls[0] > built
    assert _samples_verdict(vr)["witness"] == {
        "x": rows[j]["x"], "stored": rows[i]["value"],
        "recomputed": rows[j]["value"]}


def test_verify_falls_back_to_flags_for_older_reports(tmp_path):
    rc, out_path = _report(tmp_path, generate(6, "finite-line"),
                           "extend-finite", "--samples", "10")
    report = json.loads(open(out_path).read())
    for key in ("sample_count", "window", "epsilon"):
        del report[key]
    rc, vr = _verify(tmp_path, report, "--samples", "14")
    assert rc == 0 and _samples_verdict(vr)["pass"]
    assert vr["sample_count"] == 14
    assert len(vr["samples"]) > len(report["samples"])


def test_window_space_form_and_bad_flags(tmp_path):
    payload = generate(3, "finite-line")
    rc, out_path = _report(tmp_path, payload, "extend-finite",
                           "--window", "-3,3", "--samples", "5")
    assert rc == 0
    assert json.loads(open(out_path).read())["window"] == [-3, 3]
    for flag, bad in (("--window", "3,-3"), ("--window", "x"),
                      ("--epsilon", "abc"), ("--epsilon", "0"),
                      ("--samples", "-1"), ("--size", "-3"), ("--size", "0")):
        with pytest.raises(SystemExit) as exc:
            main(["extend-finite", "-i", str(tmp_path / "inst.json"),
                  flag, bad])
        assert exc.value.code == 2


# -- malformed input exits 2 --------------------------------------------------------


def _mutate(payload, where, kind, junk):
    key = where[-1]
    parent = _at(payload, where[:-1])
    if kind == "drop":
        del parent[key]
    elif kind == "empty":
        parent[key] = [] if isinstance(parent[key], list) else {}
    else:
        parent[key] = copy.deepcopy(junk)


def _locations(obj, prefix=()):
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for k, v in items:
        yield prefix + (k,)
        if isinstance(v, (dict, list)):
            yield from _locations(v, prefix + (k,))


def _payload_field(payload):
    """The payload's field, or None when an earlier mutation broke it."""
    try:
        return parse_field(next(_at(payload, w) for w in _locations(payload)
                                if w[-1] == "field"))
    except (StopIteration, InstanceError):
        return None


def _element_places(payload):
    """Locations of the strings that parse as elements of the payload's
    field, with those strings."""
    field = _payload_field(payload)
    if field is None:
        return []
    found = []
    for where in _locations(payload):
        value = _at(payload, where)
        if isinstance(value, str):
            try:
                parse_element(field, value)
            except InstanceError:
                continue
            found.append((where, value))
    return found


_BRANCH_KEYS = ("slope", "intercept", "phi_slope", "phi_intercept",
                "value_slope", "value_intercept")


def _is_box_bound(where) -> bool:
    """An exact box's radius or an annulus cut's order or attainment."""
    return "boxes" in where and where[-1] in ("ord", "attained")


def _moved_bound(value, shift: int):
    if isinstance(value, bool):
        return not value
    try:
        return emit_rational(Q(value) + shift)
    except (TypeError, ValueError):  # None (a zero box) or earlier junk
        return shift


def _element_strings(payload) -> list[str]:
    """The payload's element strings and a few small elements of its
    field, every one of them valid."""
    field = _payload_field(payload)
    if field is None:
        return []
    small = [field.from_int(k) for k in (0, 1, 2)]
    small += [field.monomial(e, c) for e in (-1, 1) for c in (1, -1)]
    return sorted({v for _, v in _element_places(payload)}
                  | {emit_element(e) for e in small})


def _at(payload, where):
    for k in where:
        payload = payload[k]
    return payload


def _fuzz_bases():
    """(payload, command) pairs: instances of every task, and a report."""
    instances = [generate(1, profile, field, 3)
                 for field in (T, P3) for profile in PROFILES]
    skel = generate(1, "cells-line", P3, 3)
    skel["task"] = "skeleton"
    del skel["pieces"]
    instances += [skel, _union_payload(),
                  emit_instance(generate_vanishing_pair(1, T))]
    report = run_instance(parse_instance(instances[0]), 1, 4, (-4, 4), Q(1))
    return [(p, p["task"]) for p in instances] + [(report, "verify")]


_BASES = _fuzz_bases()
_JUNK = (None, 0, -1, True, "x", 1.5, [], {}, [0], {"x": 0})


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutated_payloads_exit_cleanly(data):
    payload, command = data.draw(st.sampled_from(_BASES))
    payload = copy.deepcopy(payload)
    for _ in range(data.draw(st.integers(1, 3))):
        places = list(_locations(payload))
        if not places:
            break
        kind = data.draw(st.sampled_from(("drop", "retype", "empty", "swap",
                                          "bound", "branch")))
        if kind in ("bound", "branch"):
            # the structure stays: a cell's box bound moves, or a graph
            # branch's (or a cell piece's) slope or intercept becomes
            # another valid element, so cells may now overlap or miss
            # their members and branches may cross
            if kind == "bound":
                targets = [w for w in places if _is_box_bound(w)]
            else:
                targets = [w for w in places if w[-1] in _BRANCH_KEYS]
            if not targets:
                continue
            where = data.draw(st.sampled_from(targets))
            old = _at(payload, where)
            if kind == "bound":
                new = _moved_bound(old, data.draw(st.sampled_from((-2, -1, 1, 2))))
            else:
                choices = [v for v in _element_strings(payload) if v != old]
                if not choices:
                    continue
                new = data.draw(st.sampled_from(choices))
            _mutate(payload, where, "retype", new)
            continue
        if kind == "swap":
            # one element string for another from the same payload: the
            # swap alone leaves the instance parsing, but it may no longer
            # be Lipschitz, may hold overlapping cells or break a graph
            # branch
            elements = _element_places(payload)
            values = sorted(set(v for _, v in elements))
            if len(values) < 2:
                continue
            where, old = data.draw(st.sampled_from(elements))
            new = data.draw(st.sampled_from([v for v in values if v != old]))
            _mutate(payload, where, "retype", new)
            continue
        where = data.draw(st.sampled_from(places))
        _mutate(payload, where, kind, data.draw(st.sampled_from(_JUNK)))
    if command != "verify":
        try:
            parse_instance(json.dumps(payload))
        except InstanceError:
            pass
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        with contextlib.redirect_stderr(io.StringIO()), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = main([command, "-i", path, "-o", os.path.join(tmp, "out.json"),
                       "--samples", "4"])
    assert rc in (0, 1, 2)


@pytest.mark.parametrize("mutation", ["entries-int", "prime-text",
                                      "entries-empty", "box-int"])
def test_malformed_instances_exit_2(tmp_path, mutation):
    payload = generate(3, "cells-line" if mutation == "box-int"
                       else "finite-line")
    if mutation == "entries-int":
        payload["function"]["entries"] = [5]
    elif mutation == "prime-text":
        payload["field"] = {"kind": "p-adic", "prime": "3"}
    elif mutation == "entries-empty":
        payload["function"]["entries"] = []
    else:
        payload["cells"][0]["boxes"][0] = {"exact": 7}
    with pytest.raises(InstanceError):
        parse_instance(json.dumps(payload))
    assert _report(tmp_path, payload, payload["task"])[0] == 2


def test_generate_giving_up_exits_2(tmp_path):
    # the window [0, 0] holds seven t-adic elements (0 and six constants),
    # fewer than the eight distinct points asked for
    assert main(["generate", "--window", "0,0", "--size", "8",
                 "-o", str(tmp_path / "i.json")]) == 2


@pytest.mark.parametrize("profile,prime,count", [
    ("finite-line", 3, 105), ("finite-line", 5, 209), ("finite-plane", 3, 105 ** 2)])
def test_padic_size_beyond_the_point_space_exits_2_at_once(tmp_path, profile,
                                                          prime, count):
    # 13 exponents in the window -6,6, 4 * (p - 1) units each, and zero
    args = ["generate", "--profile", profile, "--field", "p-adic",
            "--prime", str(prime), "-o", str(tmp_path / "i.json")]
    err = io.StringIO()
    start = time.process_time()
    with contextlib.redirect_stderr(err):
        assert main(args + ["--size", str(count + 1)]) == 2
    assert time.process_time() - start < 1
    assert f"only {count} distinct points" in err.getvalue()
    assert "Traceback" not in err.getvalue()
    with pytest.raises(ValueError, match=f"only {count} distinct"):
        generate_instance(0, profile, FieldDescriptor("p-adic", prime),
                          size=count + 1)
    if profile == "finite-line":  # every point of the space can be drawn
        assert main(args + ["--size", str(count)]) == 0


@pytest.mark.parametrize("profile,seed,size", [
    ("finite-nd", 0, 8), ("finite-nd", 4, 16), ("finite-plane", 25, 24)],
    ids=["0-8", "4-16", "plane-25-24"])
def test_combined_fiber_refusal_names_the_fiber(tmp_path, profile, seed,
                                                size):
    # the generated data is 1-Lipschitz, but the ladder's p-adic averages
    # give a combined fiber that is not: the refusal must blame that
    # fiber, not the input, in the plane as in higher dimensions
    inst_path = str(tmp_path / "i.json")
    assert main(["generate", "--seed", str(seed), "--profile", profile,
                 "--size", str(size), "--field", "p-adic", "--prime", "3",
                 "-o", inst_path]) == 0
    inst = parse_instance(open(inst_path).read())
    assert is_lipschitz(inst.function, NORM_ONE).ok
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = main(["extend-finite", "-i", inst_path,
                   "-o", str(tmp_path / "r.json")])
    assert rc == 2
    assert "combined fiber" in err.getvalue()
    assert "input is not" not in err.getvalue()
    assert "Traceback" not in err.getvalue()


# -- box decisions and graph origins through the CLI ----------------------------------


def _one_cell(field, *boxes):
    return {"task": "extend-cell", "field": field,
            "cells": [{"center": "0", "boxes": [{"annulus": b} for b in boxes]}],
            "pieces": [{"slope": "1", "intercept": "0"}]}


def _cut(ord_, attained):
    return {"ord": ord_, "attained": attained}


def test_sphere_and_half_open_annulus_make_one_cell(tmp_path):
    # |x| = theta(1) and theta(3) <= |x| < theta(1) share no norm
    payload = _one_cell({"kind": "t-adic"},
                        {"lower": _cut(1, True), "upper": _cut(1, True)},
                        {"lower": _cut(3, True), "upper": _cut(1, False)})
    rc, out_path = _report(tmp_path, payload, "extend-cell")
    assert rc == 0
    report = json.loads(open(out_path).read())
    rc, vr = _verify(tmp_path, report)
    assert rc == 0 and all(v["pass"] for v in vr["verdicts"])


def test_empty_padic_annulus_exits_2(tmp_path):
    # no integer exponent lies strictly between 1 and 2
    payload = _one_cell({"kind": "p-adic", "prime": 3},
                        {"lower": _cut(2, False), "upper": _cut(1, False)})
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc, _ = _report(tmp_path, payload, "extend-cell")
    assert rc == 2
    assert "is empty over p-adic" in err.getvalue()
    assert "Traceback" not in err.getvalue()


def _vanishing_graphs_payload():
    # f = t*u on the unit sphere, graph x2 = 0: the origin value is 0
    base = Cell1D(T.zero(), (AnnulusBox(CutValue(NORM_ONE, True),
                                        CutValue(NORM_ONE, True)),))
    branch = GraphBranch(T.zero(), T.zero(), t(1), T.zero())
    family = GraphFamily((base,), ((branch,),))
    return emit_instance(Instance("extend-graphs", T, family=family))


@pytest.mark.parametrize("vanishing", [False, True])
def test_extend_graphs_finds_the_origins_once(tmp_path, vanishing):
    payload = _vanishing_graphs_payload() if vanishing \
        else generate(1, "graphs")
    inst_path = _write(tmp_path, "inst.json", payload)
    calls = []

    def count(frame, event, arg):
        if event == "call" and frame.f_code is extension.origins.__code__:
            calls.append(1)

    sys.setprofile(count)
    try:
        rc = main(["extend-graphs", "-i", inst_path,
                   "-o", str(tmp_path / "report.json")])
    finally:
        sys.setprofile(None)
    assert rc == 0
    report = json.loads(open(tmp_path / "report.json").read())
    assert report["provenance"] == ("graph-fiberwise" if vanishing
                                    else "graph-fiberwise-reduced")
    assert len(calls) == 1
