"""Run one job through `ultralip.cli.main` and check what it wrote.

A command fails when it raises, exits with a code other than 0 or 1,
exits with a code that disagrees with its verdicts, or emits a failing
verdict that the reference does not expect.  Expected failures are
counted, never filtered out: they are the verdicts listed in
`reference.json` under `expected_failures`, and, for a seed whose
reports are recorded there, any verdict that failed at recording time.
Likewise a construction that exits 2 is a refusal, not a failure, when
`expected_refusals` lists its backend and task (or, for a recorded
seed, when it was refused at recording time); refused commands are
counted but not timed.  A seed with recorded reports also has its sample
values and skeleton compared by digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time
import traceback
import warnings
from dataclasses import dataclass, field

from ultralip import cli
from ultralip.field import PDivisibleCountWarning

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def report_digest(report: dict) -> str:
    """Digest of a report's sample values and skeleton (no timings)."""
    body = {"samples": report.get("samples"),
            "skeleton": report.get("skeleton")}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def outcome(res: "CommandResult") -> dict:
    """The reference record of a checked command."""
    if res.refused:
        return {"refused": True}
    return {"digest": report_digest(res.report),
            "failing": sorted(v["name"] for v in res.report["verdicts"]
                              if not v["pass"])}


def matches(rules: list[dict], job, **want) -> bool:
    """Whether a rule names every wanted value and fits the job."""
    for rule in rules:
        if any(rule.get(k) != v for k, v in want.items()):
            continue
        if "backend" in rule and rule["backend"] != job.backend:
            continue
        if "with_flag" in rule and rule["with_flag"] not in job.flags:
            continue
        return True
    return False


@dataclass
class CommandResult:
    command: str
    cpu_s: float | None  # None when the command could not be run
    failed: bool
    refused: bool = False
    verdicts: int = 0
    verdict_fails: int = 0
    pdiv_warnings: int = 0
    report: dict | None = None
    problems: list[str] = field(default_factory=list)


def run_command(argv: list[str]) -> tuple[int | None, float, int, str, str | None]:
    """Run one CLI command in-process; return (exit code, CPU s, warnings,
    standard error, error text).  The CPU time covers main() alone."""
    err = None
    rc = None
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always", PDivisibleCountWarning)
        t0 = time.process_time()
        try:
            rc = cli.main(argv)
        except SystemExit as e:  # argparse rejects the command line
            err = f"SystemExit({e.code})"
        except Exception:
            err = traceback.format_exc(limit=3)
        cpu = time.process_time() - t0
    pdiv = sum(1 for w in caught
               if issubclass(w.category, PDivisibleCountWarning))
    return rc, cpu, pdiv, stderr.getvalue(), err


def check_command(job, command: str, rc, cpu, pdiv, stderr, err, out_path,
                  reference: dict, recorded: dict | None) -> CommandResult:
    res = CommandResult(command, cpu, False, pdiv_warnings=pdiv)
    refused_before = recorded is not None and recorded.get("refused", False)
    if err is not None:
        res.problems.append(f"raised: {err}")
    elif rc == 2 and command != "verify" and (
            refused_before if recorded is not None
            else matches(reference["expected_refusals"], job, task=job.task)):
        res.refused = True
    elif rc not in (0, 1):
        res.problems.append(f"exit code {rc}: {stderr.strip()[-300:]}")
    else:
        try:
            with open(out_path) as fh:
                res.report = json.load(fh)
        except (OSError, ValueError) as e:
            res.problems.append(f"unreadable report: {e}")
    if refused_before:
        recorded = None  # refused at recording time, accepted now
    if res.report is not None:
        verdicts = res.report.get("verdicts") or []
        res.verdicts = len(verdicts)
        all_pass = True
        for v in verdicts:
            if v.get("pass"):
                continue
            all_pass = False
            res.verdict_fails += 1
            name = v.get("name")
            if recorded is not None:
                if name not in recorded["failing"]:
                    res.problems.append(f"verdict {name} passed in the reference")
            elif not matches(reference["expected_failures"], job, verdict=name):
                res.problems.append(f"unexpected failing verdict {name}")
        if not verdicts:
            res.problems.append("no verdicts")
        if rc != (0 if all_pass else 1):
            res.problems.append(f"exit code {rc} disagrees with the verdicts")
        if recorded is not None and report_digest(res.report) != recorded["digest"]:
            res.problems.append("sample values or skeleton differ from the reference")
    res.failed = bool(res.problems)
    if res.failed:
        print(f"FAILED {job.id} {command}: {'; '.join(res.problems)}",
              file=sys.stderr)
    return res


def run_job(job, workdir: str, reference: dict, recorded: dict) -> list[CommandResult]:
    """Construction command, then `verify` on its report, both checked.

    `recorded` maps "<job id>:<command>" to the reference outcome of that
    command for this workload and seed (see `outcome`), when one was
    recorded."""
    report_path = os.path.join(workdir, f"{job.id}.report.json")
    verify_path = os.path.join(workdir, f"{job.id}.verify.json")
    results = []
    for command, inp, out in ((job.task, job.path, report_path),
                              ("verify", report_path, verify_path)):
        if os.path.exists(out):
            os.remove(out)
        rc, cpu, pdiv, stderr, err = run_command(job.argv(command, inp, out))
        res = check_command(job, command, rc, cpu, pdiv, stderr, err, out,
                            reference, recorded.get(f"{job.id}:{command}"))
        results.append(res)
        if res.refused:
            break
        if res.report is None and command != "verify":
            results.append(CommandResult("verify", None, True,
                                         problems=["skipped: no report"]))
            break
    return results
