#!/usr/bin/env python3
"""A day of Frontier operations — scheduler, failures, and utilisation.

Simulates a realistic mixed workload on the machine model: small debug
jobs, mid-size production runs, and a hero full-machine job, with nodes
failing at the modeled MTTI and the checknode health gate draining them
between jobs — the §3.4.2 machinery end to end.

Run:  python examples/operations_day.py
"""

import numpy as np

from repro.resilience.mtti import MttiModel
from repro.reporting import Table
from repro.rng import as_generator
from repro.scheduler.placement import allocation_stats
from repro.scheduler.slurm import JobRequest, JobState, SlurmScheduler
from repro.units import HOUR


def main() -> None:
    rng = as_generator(2026)
    machine_nodes = 2048   # a Frontier "slice" to keep the demo quick
    mtti = MttiModel.frontier()
    node_fail_rate = (1.0 / (mtti.system_mtti_hours * HOUR)) / 9472

    # nodes break randomly during the day; checknode catches them between
    # jobs (the paper: "At boot and between every job, Slurm runs a
    # checknode script")
    broken: set[int] = set()
    sched = SlurmScheduler(n_nodes=machine_nodes,
                           checknode=lambda nodes: ~np.isin(nodes,
                                                            list(broken)))

    # a day's workload
    workload = []
    for _ in range(30):
        workload.append(JobRequest(int(rng.integers(8, 64)),
                                   float(rng.uniform(600, 3600)),
                                   name="debug"))
    for _ in range(10):
        workload.append(JobRequest(int(rng.integers(128, 512)),
                                   float(rng.uniform(3600, 4 * HOUR)),
                                   name="production"))
    workload.append(JobRequest(2048, 6 * HOUR, name="hero"))
    ids = [sched.submit(req) for req in workload]

    node_seconds_used = 0.0
    events = 0
    while True:
        before = sched.now
        running = [j for j in ids
                   if sched.job(j).state is JobState.RUNNING]
        t = sched.step()
        if t is None:
            break
        events += 1
        dt = t - before
        node_seconds_used += dt * sum(sched.job(j).request.n_nodes
                                      for j in running)
        # random failures during the elapsed window
        expected = node_fail_rate * dt * machine_nodes
        for _ in range(rng.poisson(expected)):
            broken.add(int(rng.integers(machine_nodes)))

    makespan = sched.now
    utilisation = node_seconds_used / (machine_nodes * makespan)
    print(f"jobs completed: {len(ids)}; makespan {makespan / HOUR:.1f} h; "
          f"events {events}")
    print(f"node utilisation: {utilisation:.1%}")
    print(f"nodes drained by checknode during the day: "
          f"{len(sched.drained_nodes)}")

    table = Table(["job", "nodes", "groups spanned", "packed?"],
                  title="\nPlacement of a few representative jobs")
    for j in ids[:3] + ids[-2:]:
        job = sched.job(j)
        stats = allocation_stats(job.nodes)
        table.add_row([job.request.name, job.request.n_nodes,
                       stats.groups_spanned,
                       "yes" if stats.is_single_group else "no"])
    print(table.render())


if __name__ == "__main__":
    main()
