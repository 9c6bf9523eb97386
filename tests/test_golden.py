"""Golden corpus: generated instances and their construction reports stay
byte-identical.

Each case stores the `generate` output (as the CLI writes it) and the
report of the matching construction command with `timing_ms` removed; a
construction the CLI refuses (exit 2) stores its error instead.  To
rewrite the corpus after a deliberate change of output, run

    PYTHONPATH=src python tests/test_golden.py --record
"""

import json
import sys
from pathlib import Path

import pytest

from ultralip.cli import run_instance
from ultralip.extension import ExtensionError
from ultralip.field import FieldDescriptor
from ultralip.generate import PROFILES, generate, generate_vanishing_pair
from ultralip.lipschitz import NotLipschitzError
from ultralip.serialize import emit_instance, parse_instance

GOLDEN = Path(__file__).parent / "golden"
BACKENDS = {"t-adic": FieldDescriptor("t-adic"),
            "puiseux": FieldDescriptor("puiseux"),
            "p-adic-3": FieldDescriptor("p-adic", 3)}
SEEDS = (0, 1, 2)
REPORT_SEED, REPORT_SAMPLES, WINDOW = 0, 20, (-6, 6)


def _cases():
    for backend in BACKENDS:
        for seed in SEEDS:
            for profile in PROFILES:
                yield backend, f"{profile}-{seed}"
            yield backend, f"vanishing-{seed}"


def _text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _instance(backend: str, name: str) -> dict:
    kind, seed = name.rsplit("-", 1)
    field = BACKENDS[backend]
    if kind == "vanishing":
        return emit_instance(generate_vanishing_pair(int(seed), field))
    return generate(int(seed), kind, field)


def _report(instance_text: str) -> dict:
    try:
        report = run_instance(parse_instance(instance_text), REPORT_SEED,
                              REPORT_SAMPLES, WINDOW, None)
    except (NotLipschitzError, ExtensionError, ValueError) as e:
        return {"error": f"{type(e).__name__}: {e}"}
    del report["timing_ms"]
    return report


def _paths(backend: str, name: str) -> tuple[Path, Path]:
    base = GOLDEN / backend / name
    return base.with_suffix(".json"), base.with_suffix(".report.json")


@pytest.mark.parametrize("backend,name", list(_cases()))
def test_golden_case(backend, name):
    inst_path, report_path = _paths(backend, name)
    instance = _text(_instance(backend, name))
    assert instance == inst_path.read_text()
    assert _text(_report(instance)) == report_path.read_text()


def _record():
    for backend, name in _cases():
        inst_path, report_path = _paths(backend, name)
        inst_path.parent.mkdir(parents=True, exist_ok=True)
        instance = _text(_instance(backend, name))
        inst_path.write_text(instance)
        report_path.write_text(_text(_report(instance)))


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    _record()
