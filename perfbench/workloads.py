"""Seeded instance pools for the three benchmark workloads.

A pool is a list of rounds; a round is a list of jobs, and every round of
a workload holds the same mix of instance kinds, so any whole number of
rounds gives the same weights to the percentiles.  Each job is one
instance file plus the flags of the construction command a user would
run on it, followed by `verify` on the report.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

from ultralip import cli
from ultralip.field import FieldDescriptor, Point
from ultralip.generate import generate_instance, generate_vanishing_pair
from ultralip.lipschitz import FiniteFunction
from ultralip.serialize import Instance, emit_instance

WORKLOADS = ("finite-large", "small-mixed", "rational-forms")

# distinct rounds generated per workload; a run that measures more
# rounds than this cycles through the pool again
POOL_ROUNDS = {"finite-large": 2, "small-mixed": 18, "rational-forms": 12}

SAMPLES = {"finite-large": 60, "small-mixed": 60, "rational-forms": 20}

BACKENDS = {
    "t-adic": FieldDescriptor("t-adic"),
    "puiseux": FieldDescriptor("puiseux"),
    "p-adic": FieldDescriptor("p-adic", 3),
}

# two n=128 lines put the 90th percentile inside their cluster rather than
# at its edge; two n=16 nd instances give the round an odd count, so the
# median command lies among the mid-sized instances
FINITE_LARGE = (("finite-line", "line", 32), ("finite-line", "line", 64),
                ("finite-line", "line", 128), ("finite-line", "line", 128),
                ("finite-plane", "plane", 24), ("finite-plane", "plane", 48),
                ("finite-nd", "nd", 8), ("finite-nd", "nd", 16),
                ("finite-nd", "nd", 16))

# two line instances per plane instance: the median command then falls
# among the line instances and the 90th percentile among the plane ones,
# not in the gap between the two
RATIONAL_FORMS = (("finite-line", "line", 6), ("finite-line", "line", 6),
                  ("finite-plane", "plane", 5))


@dataclass
class Job:
    """One instance and the construction command that consumes it."""

    id: str
    kind: str            # extension kind: line, plane, nd, cell, graphs,
                         # glue, epsilon or skeleton
    backend: str
    task: str            # the construction command
    seed: int            # --seed of both commands
    samples: int
    path: str            # instance file
    flags: tuple = ()    # extra flags of both commands
    size: int | None = None
    gen_s: float = 0.0   # CPU seconds spent generating the instance

    def argv(self, command: str, inp: str, out: str) -> list[str]:
        return [command, "-i", inp, "-o", out, "--seed", str(self.seed),
                "--samples", str(self.samples), *self.flags]


def _cli_generate(path: str, seed: int, profile: str, backend: str,
                  size: int | None = None) -> None:
    argv = ["generate", "--seed", str(seed), "--profile", profile,
            "--field", BACKENDS[backend].kind, "-o", path]
    if BACKENDS[backend].prime is not None:
        argv += ["--prime", str(BACKENDS[backend].prime)]
    if size is not None:
        argv += ["--size", str(size)]
    rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"generate {profile} seed {seed} exited {rc}")


def _write(path: str, inst: Instance) -> None:
    with open(path, "w") as fh:
        json.dump(emit_instance(inst), fh, indent=2, sort_keys=True)


def _unit_map(inst: Instance) -> Instance:
    """Map x -> u*x, f -> u*f with u = 1/(1+t), a norm-one unit.

    Multiplying by a unit is an isometry, so the data stays 1-Lipschitz,
    but every element now carries the denominator 1+t (or none, where it
    cancels), which sends the field layer through canonicalization.
    """
    f = inst.field
    u = f.one() / (f.one() + f.monomial(1))
    fn = inst.function
    entries = tuple((Point(tuple(u * c for c in p.coords)), u * v)
                    for p, v in fn.entries)
    return Instance("extend-finite", f, function=FiniteFunction(fn.n, entries))


def _round_jobs(workload: str, seed: int, r: int, workdir: str) -> list[Job]:
    base = seed * 1009 + r * 17
    samples = SAMPLES[workload]
    jobs: list[Job] = []

    def add(job: Job, make) -> None:
        t0 = time.process_time()
        make(job.path)
        job.gen_s = time.process_time() - t0
        jobs.append(job)

    def path(name: str) -> str:
        return os.path.join(workdir, f"r{r}.{name}.json")

    if workload == "finite-large":
        for k, (profile, kind, size) in enumerate(FINITE_LARGE):
            s = base + k
            jid = f"r{r}.{kind}.n{size}.{k}"
            add(Job(jid, kind, "t-adic", "extend-finite", s, samples,
                    path(f"{kind}.n{size}.{k}"), size=size),
                lambda p, s=s, pr=profile, n=size:
                _cli_generate(p, s, pr, "t-adic", n))
        return jobs

    # each backend gets its own sub-seeds: the series backends draw the
    # same elements from the same seed
    if workload == "rational-forms":
        for b, bk in enumerate(("t-adic", "puiseux")):
            for k, (profile, kind, size) in enumerate(RATIONAL_FORMS):
                s = base + 3 * b + k

                def make(p, s=s, pr=profile, n=size, bk=bk):
                    _write(p, _unit_map(
                        generate_instance(s, pr, BACKENDS[bk], n)))
                add(Job(f"r{r}.{bk}.{kind}{k}", kind, bk, "extend-finite", s,
                        samples, path(f"{bk}.{kind}{k}")), make)
        return jobs

    for b, (bk, fd) in enumerate(BACKENDS.items()):
        s = base + b

        def cells(p, s=s, bk=bk):
            _cli_generate(p, s, "cells-line", bk)

        def skeleton(p, s=s, bk=bk):
            # the same cells as the extend-cell job, as a skeleton task
            _cli_generate(p, s, "cells-line", bk)
            with open(p) as fh:
                data = json.load(fh)
            data["task"] = "skeleton"
            del data["pieces"]
            with open(p, "w") as fh:
                json.dump(data, fh, indent=2, sort_keys=True)

        def vanishing(p, s=s, fd=fd):
            _write(p, generate_vanishing_pair(s, fd, n=1, a_size=5, b_size=3))

        def union(p, s=s, fd=fd):
            entries = list(generate_instance(s, "finite-line", fd, 8)
                           .function.entries)
            parts = tuple(FiniteFunction(1, tuple(entries[i::3]))
                          for i in range(3))
            _write(p, Instance("glue", fd, parts=parts))

        q = "1/2" if bk == "puiseux" else "1"
        specs = (
            ("cell", "extend-cell", cells, ()),
            ("graphs", "extend-graphs",
             lambda p, s=s, bk=bk: _cli_generate(p, s, "graphs", bk), ()),
            ("skeleton", "skeleton", skeleton, ()),
            ("glue.vanishing", "glue", vanishing, ()),
            ("glue.union", "glue", union, ()),
            ("epsilon", "extend-finite",
             lambda p, s=s, bk=bk: _cli_generate(p, s, "finite-line", bk),
             ("--epsilon", q)),
        )
        for name, task, make, flags in specs:
            kind = name.split(".")[0]
            add(Job(f"r{r}.{bk}.{name}", kind, bk, task, s, samples,
                    path(f"{bk}.{name}"), flags=flags), make)
    return jobs


def build_pool(workload: str, seed: int, workdir: str) -> list[list[Job]]:
    """Generate every instance of the workload's pool into workdir."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    return [_round_jobs(workload, seed, r, workdir)
            for r in range(POOL_ROUNDS[workload])]
