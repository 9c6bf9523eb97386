"""Deterministic call counts of the CLI chain, with CPU times.

    python3 bench/counts.py [--repeats 5] [-o FILE]   record BENCH_<k>.json
    python3 bench/counts.py --check                   gate on the newest one

Run from anywhere; the package is imported from the `src/` next to this
directory.  Each entry runs its construction command and then `verify`
on the report, through `ultralip.cli.main`, in a fresh process started
with PYTHONHASHSEED=0, so that no set order and no cache left by an
earlier entry can move a count.  Generated entries are t-adic at seed 1;
the others are instances of the golden corpus.  The `generate-*` entries
count the `generate --seed 1` command alone, and the `parse-*` entries
one `parse_instance` of their instance alone, from its loaded JSON.  The
`field-*` and `nod-*` entries count one field operation over fixed,
seeded operand pairs, on t-adic and on puiseux: `+`, `*` and `/`, and
`norm_of_difference` over one denominator and across denominators.
Every entry imports the package before its profile starts; the `import`
entry counts that first `import ultralip.cli` alone, and records no CPU
time, since only the first import in a process does the work.

Per entry the record holds:

* `counts`: from one cProfile pass over both commands, `calls` is the
  sum of `callcount` over `Profile.getstats()` (pstats merges the
  dataclass-generated methods, which all sit at `<string>:2`), and the
  named functions' own call counts.  These are exact and are gated.
* `cpu_s`: `time.process_time` of both commands without the profiler,
  median, min and max over the repeats.  CPU time of identical work
  moves by 15-40% on a shared machine, so it is reported, never gated.

Without `-o` the record goes to the next free `bench/BENCH_<k>.json`.
`--check` recounts (no CPU repeats) and exits 1 when any count exceeds
the newest `BENCH_<k>.json` by more than 2%.  It compares only the counts
that both have, so an older record that lacks a newer key still serves.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import fractions
import importlib
import io
import json
import operator
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDEN = HERE.parent / "tests" / "golden"
TOLERANCE = 0.02

# name -> (profile, size) for `generate --seed 1`, or a golden instance,
# whose chain is counted; ["generate", flags...] counted alone;
# {"parse": either instance form}, whose parse_instance is counted alone;
# {"field": (backend, operation[, pairs])}, see _field_pairs; or
# {"import": module}, whose first import is counted alone
ENTRIES = {
    "line-50": ("finite-line", 50),
    "line-200": ("finite-line", 200),
    "line-800": ("finite-line", 800),
    "plane-20": ("finite-plane", 20),
    "plane-80": ("finite-plane", 80),
    "plane-240": ("finite-plane", 240),
    "nd-8": ("finite-nd", 8),
    "nd-32": ("finite-nd", 32),
    "cells-line": ("cells-line", None),
    "graphs": ("graphs", None),
    "union-glue": "t-adic/union-1.json",
    "glue-vanishing-t-adic": "t-adic/vanishing-1.json",
    "glue-vanishing-p-adic-3": "p-adic-3/vanishing-1.json",
    "unit-finite-plane": "t-adic/unit-finite-plane-0.json",
    "unit-finite-line": "puiseux/unit-finite-line-1.json",
    # the corpus chain whose canonical forms meet non-constant gcds
    "unit-finite-line-2": "t-adic/unit-finite-line-2.json",
    "generate-line-800": ["generate", "--profile", "finite-line", "--size", "800"],
    "generate-line-2000": ["generate", "--profile", "finite-line",
                           "--size", "2000"],
    "generate-plane-240": ["generate", "--profile", "finite-plane",
                           "--size", "240"],
    "generate-nd-40": ["generate", "--profile", "finite-nd", "--size", "40"],
    "generate-p-adic-3-line-100": ["generate", "--profile", "finite-line",
                                   "--size", "100", "--field", "p-adic",
                                   "--prime", "3"],
    "parse-line-800": {"parse": ("finite-line", 800)},
    "parse-unit-finite-plane": {"parse": "t-adic/unit-finite-plane-0.json"},
    **{f"field-{name}-{kind}": {"field": (kind, op)}
       for kind in ("t-adic", "puiseux")
       for name, op in (("add", "+"), ("mul", "*"), ("div", "/"))},
    **{f"nod-{pairs}-den-{kind}": {"field": (kind, "nod", pairs)}
       for kind in ("t-adic", "puiseux") for pairs in ("one", "cross")},
    "import": {"import": "ultralip.cli"},
}

# qualified names of the functions counted one by one, in the package or
# in the standard fractions module
COUNTED = (
    "Fraction.__eq__",
    "Fraction.__lt__",
    "Fraction.__hash__",
    "FieldElement.__hash__",
    "FieldElement.norm_of_difference",
    "FieldElement.lead_of_difference",
    "FieldElement.__add__",
    "FieldElement.__mul__",
    "FieldElement.__truediv__",
    "FieldElement.scale",
    "_canonical_fraction",
    "_cross_numerator",
    "_pgcd_int",
    "_euclid_gcd",
    "BallTree.__init__",
    "BallTree._step",
)


def _instance(spec, tmp: str) -> str:
    """The path of a golden or generated instance, generating it if need
    be."""
    from ultralip.cli import main

    if isinstance(spec, str):
        return str(GOLDEN / spec)
    profile, size = spec
    path = os.path.join(tmp, "instance.json")
    argv = ["generate", "--seed", "1", "--profile", profile, "-o", path]
    if size is not None:
        argv += ["--size", str(size)]
    if main(argv) != 0:
        raise SystemExit(f"{profile}: generate failed")
    return path


def _generate(argv: list, tmp: str) -> None:
    """The generate command alone, at seed 1."""
    from ultralip.cli import main

    out = os.path.join(tmp, "instance.json")
    if main(argv + ["--seed", "1", "-o", out]) != 0:
        raise SystemExit(f"{' '.join(argv)} failed")


def _parse(data: dict, tmp: str) -> None:
    """parse_instance alone, on the loaded JSON of an instance."""
    from ultralip.serialize import parse_instance

    parse_instance(data)


def _field_pairs(kind: str, op: str, pairs: str = "all") -> tuple:
    """The function and the ordered operand pairs of a field entry.

    The operands are 16 seeded Laurent polynomials of one to three terms,
    with exponents in -8..8 (halved on puiseux) and coefficients in
    +-1..3, and 16 more such polynomials divided by 1 + t (by 1 + t^(1/2)
    on puiseux), the unit that maps the rational-forms data.  The pairs
    are all ordered pairs of them, or, with pairs "one" or "cross", those
    whose denominators are equal or differ.
    """
    from ultralip.field import FieldDescriptor, FieldElement, Q

    field = FieldDescriptor(kind)
    step = Q(1, 2) if kind == "puiseux" else 1
    rng = random.Random(1)

    def poly():
        exponents = rng.sample(range(-8, 9), rng.randint(1, 3))
        return field.from_terms([(e * step, rng.choice((-3, -2, -1, 1, 2, 3)))
                                 for e in exponents])

    unit = field.from_terms([(0, 1), (step, 1)])
    operands = [poly() for _ in range(16)] + [poly() / unit for _ in range(16)]
    fn = {"+": operator.add, "*": operator.mul, "/": operator.truediv,
          "nod": FieldElement.norm_of_difference}[op]
    return fn, [(a, b) for a in operands for b in operands
                if pairs == "all" or (a.den == b.den) == (pairs == "one")]


def _field_ops(arg: tuple, tmp: str) -> None:
    """One field operation on every pair of _field_pairs."""
    fn, pairs = arg
    for a, b in pairs:
        fn(a, b)


def _chain(inst: str, tmp: str) -> None:
    """The construction command on inst, then verify on its report; both
    must pass, since a command that stops early makes fewer calls."""
    from ultralip.cli import main

    with open(inst) as fh:
        task = json.load(fh)["task"]
    report = os.path.join(tmp, "report.json")
    for argv in ([task, "-i", inst, "-o", report],
                 ["verify", "-i", report, "-o", os.path.join(tmp, "verify.json")]):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(argv)
        if rc != 0:
            raise SystemExit(f"{argv[0]} exited {rc}: {err.getvalue()}")


def _counts(profile: cProfile.Profile) -> dict:
    counts = dict.fromkeys(("calls",) + COUNTED, 0)
    sources = (str(SRC), fractions.__file__)
    for entry in profile.getstats():
        counts["calls"] += entry.callcount
        code = entry.code
        if (not isinstance(code, str) and code.co_filename.startswith(sources)
                and code.co_qualname in counts):
            counts[code.co_qualname] += entry.callcount
    return counts


def measure(name: str, repeats: int) -> dict:
    """One entry, in this process: counts from a first, profiled chain,
    then CPU times of `repeats` more."""
    sys.path.insert(0, str(SRC))
    spec = ENTRIES[name]
    if isinstance(spec, dict) and "import" in spec:
        profile = cProfile.Profile()
        profile.runcall(importlib.import_module, spec["import"])
        return {"counts": _counts(profile)}
    importlib.import_module("ultralip.cli")  # outside the profile
    with tempfile.TemporaryDirectory() as tmp:
        if isinstance(spec, list):
            work, arg = _generate, spec
        elif isinstance(spec, dict) and "field" in spec:
            work, arg = _field_ops, _field_pairs(*spec["field"])
        elif isinstance(spec, dict):
            with open(_instance(spec["parse"], tmp)) as fh:
                work, arg = _parse, json.load(fh)
        else:
            work, arg = _chain, _instance(spec, tmp)
        profile = cProfile.Profile()
        profile.runcall(work, arg, tmp)
        out = {"counts": _counts(profile)}
        times = []
        for _ in range(repeats):
            start = time.process_time()
            work(arg, tmp)
            times.append(time.process_time() - start)
    if times:
        out["cpu_s"] = {"median": round(statistics.median(times), 4),
                        "min": round(min(times), 4),
                        "max": round(max(times), 4)}
    return out


def _run_entry(name: str, repeats: int) -> dict:
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    proc = subprocess.run(
        [sys.executable, __file__, "--entry", name, "--repeats", str(repeats)],
        env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{name}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def newest_record() -> Path | None:
    found = [(int(m.group(1)), p) for p in HERE.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return max(found)[1] if found else None


def check(record: Path) -> int:
    """Recount every entry of record; 1 if any count rose by more than 2%."""
    old = json.loads(record.read_text())["entries"]
    worse = 0
    for name in ENTRIES:
        new = _run_entry(name, 0)["counts"]
        for key, value in new.items():
            before = old.get(name, {}).get("counts", {}).get(key)
            if before is None:
                print(f"{name:18} {key:34} {value:>10}  (not in {record.name})")
                continue
            flag = ""
            if value > before * (1 + TOLERANCE):
                flag, worse = "  ROSE", worse + 1
            print(f"{name:18} {key:34} {before:>10} -> {value:>10}{flag}")
    print(f"{worse} count(s) more than {TOLERANCE:.0%} over {record.name}")
    return 1 if worse else 0


def record(path: Path, repeats: int) -> None:
    entries = {}
    for name in ENTRIES:
        entries[name] = _run_entry(name, repeats)
        print(f"{name:18} {json.dumps(entries[name])}", flush=True)
    payload = {
        "machine": {"nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "implementation": platform.python_implementation()},
        "hashseed": "0",
        "repeats": repeats,
        "entries": entries,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {path}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--repeats", type=int, default=5,
                   help="CPU-timed runs per entry (default 5)")
    p.add_argument("--output", "-o", type=Path, default=None,
                   help="record path (default the next bench/BENCH_<k>.json)")
    p.add_argument("--check", action="store_true",
                   help="compare fresh counts with the newest BENCH_<k>.json")
    p.add_argument("--entry", choices=ENTRIES, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if sys.version_info < (3, 11):  # counted functions are named by co_qualname
        raise SystemExit("bench/counts.py needs Python 3.11 or later")
    if args.entry:
        print(json.dumps(measure(args.entry, args.repeats)))
        return 0
    newest = newest_record()
    if args.check:
        if newest is None:
            raise SystemExit("no BENCH_<k>.json to check against")
        return check(newest)
    if args.output is None:
        k = 0 if newest is None else int(newest.stem.split("_")[1]) + 1
        args.output = HERE / f"BENCH_{k}.json"
    record(args.output, args.repeats)
    return 0


if __name__ == "__main__":
    sys.exit(main())
