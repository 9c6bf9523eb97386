"""Golden corpus: generated instances and their reports stay
byte-identical.

Each case stores the `generate` output (as the CLI writes it) and the
report of the matching construction command with `timing_ms` removed; a
construction the CLI refuses (exit 2) stores its error instead.  Beside
these, with `timing_ms` removed as well:

- `.verify.json`: the `verify` report of the stored construction report
  (not for stored errors);
- `.skeleton.json`: for `cells-line`, the `skeleton` report of the same
  cells (task `skeleton`, pieces dropped);
- `.epsilon.json`: for `finite-line` and `finite-plane`, the report with
  `--epsilon 1`.

The `unit-finite-line` and `unit-finite-plane` cases (series backends)
map a generated instance by x -> u*x, f -> u*f with u = 1/(1+t), so their
elements carry the denominator 1+t and differences cross denominators;
they store the same four files as their unmapped profiles.

The `deep-finite-plane` (24 points) and `deep-finite-nd` (8 points)
cases are generated at a fixed size, so their ladders are several
levels deep; they store the instance, the report and `.verify.json`.

The `union` cases split the 8-point `finite-line` instance into three
parts (`entries[i::3]`) and store the `glue` instance of those parts, its
report and `.verify.json`, so the union gluing is pinned.

The `graphs-14` case is the one `graphs` seed whose origin values all
vanish, so its construction takes the vanishing route (provenance
`graph-fiberwise`) and runs the graph estimate check; it stores the
instance, the report and `.verify.json`.

To rewrite the corpus after a deliberate change of output, run

    PYTHONPATH=src python tests/test_golden.py --record
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ultralip.cli import run_instance, run_verify
from ultralip.extension import ExtensionError
from ultralip.field import FieldDescriptor, Point
from ultralip.generate import (PROFILES, generate, generate_instance,
                               generate_vanishing_pair)
from ultralip.lipschitz import FiniteFunction, NotLipschitzError
from ultralip.serialize import Instance, emit_instance, parse_instance

GOLDEN = Path(__file__).parent / "golden"
BACKENDS = {"t-adic": FieldDescriptor("t-adic"),
            "puiseux": FieldDescriptor("puiseux"),
            "p-adic-3": FieldDescriptor("p-adic", 3)}
SEEDS = (0, 1, 2)
UNIT_PROFILES = ("finite-line", "finite-plane")
DEEP_SIZES = {"finite-plane": 24, "finite-nd": 8}
REPORT_SEED, REPORT_SAMPLES, WINDOW = 0, 20, (-6, 6)


def _cases():
    for backend in BACKENDS:
        for seed in SEEDS:
            for profile in PROFILES:
                yield backend, f"{profile}-{seed}"
            yield backend, f"vanishing-{seed}"
            yield backend, f"union-{seed}"
            for profile in DEEP_SIZES:
                yield backend, f"deep-{profile}-{seed}"
            if BACKENDS[backend].is_series:
                for profile in UNIT_PROFILES:
                    yield backend, f"unit-{profile}-{seed}"
        yield backend, "graphs-14"


def _text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _unit_map(inst: Instance) -> Instance:
    """Map x -> u*x, f -> u*f with u = 1/(1+t), a norm-one unit; the data
    stays 1-Lipschitz, since multiplying by a unit is an isometry."""
    f = inst.field
    u = f.one() / (f.one() + f.monomial(1))
    fn = inst.function
    entries = tuple((Point(tuple(u * c for c in p.coords)), u * v)
                    for p, v in fn.entries)
    return Instance("extend-finite", f, function=FiniteFunction(fn.n, entries))


def _union_parts(seed: int, field: FieldDescriptor) -> Instance:
    """The 8-point finite-line data split into three glue parts."""
    entries = list(generate_instance(seed, "finite-line", field, 8)
                   .function.entries)
    parts = tuple(FiniteFunction(1, tuple(entries[i::3])) for i in range(3))
    return Instance("glue", field, parts=parts)


def _instance(backend: str, name: str) -> dict:
    kind, seed = name.rsplit("-", 1)
    field = BACKENDS[backend]
    if kind == "vanishing":
        return emit_instance(generate_vanishing_pair(int(seed), field))
    if kind == "union":
        return emit_instance(_union_parts(int(seed), field))
    if kind.startswith("unit-"):
        return emit_instance(_unit_map(
            generate_instance(int(seed), kind.removeprefix("unit-"), field)))
    if kind.startswith("deep-"):
        profile = kind.removeprefix("deep-")
        return generate(int(seed), profile, field, DEEP_SIZES[profile])
    return generate(int(seed), kind, field)


def _report(instance, epsilon=None) -> dict:
    try:
        report = run_instance(parse_instance(instance), REPORT_SEED,
                              REPORT_SAMPLES, WINDOW, epsilon)
    except (NotLipschitzError, ExtensionError, ValueError) as e:
        return {"error": f"{type(e).__name__}: {e}"}
    del report["timing_ms"]
    return report


def _verify(report: dict) -> dict:
    out = run_verify(report, REPORT_SEED, REPORT_SAMPLES, WINDOW, None)
    del out["timing_ms"]
    return out


def _files(backend: str, name: str) -> dict[Path, str]:
    """The corpus files of one case, each with the text it must hold."""
    base = GOLDEN / backend / name
    instance = _text(_instance(backend, name))
    report = _report(instance)
    files = {base.with_suffix(".json"): instance,
             base.with_suffix(".report.json"): _text(report)}
    if "error" not in report:
        files[base.with_suffix(".verify.json")] = _text(_verify(report))
    kind = name.rsplit("-", 1)[0]
    if kind == "cells-line":
        skeleton = {**json.loads(instance), "task": "skeleton"}
        del skeleton["pieces"]
        files[base.with_suffix(".skeleton.json")] = _text(_report(skeleton))
    if kind.removeprefix("unit-") in ("finite-line", "finite-plane"):
        files[base.with_suffix(".epsilon.json")] = _text(
            _report(instance, Fraction(1)))
    return files


@pytest.mark.parametrize("backend,name", list(_cases()))
def test_golden_case(backend, name):
    for path, text in _files(backend, name).items():
        assert text == path.read_text(), path.name


def _record():
    for backend, name in _cases():
        for path, text in _files(backend, name).items():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    _record()
