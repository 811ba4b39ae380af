"""Batch scheduler: named queues, FCFS first-fit, prolog/epilog hooks.

§III-A: *"At the begin and end of every job TACC Stats is executed by a
job scheduler ... generally a single statement is added to the prolog
and epilog scripts."*  The scheduler therefore exposes prolog and
epilog hook lists; the monitor registers its collection callback there,
which is how every job is guaranteed at least two data points.

Queue layout mirrors Stampede: ``normal`` (the bulk of the machine),
``largemem`` (a handful of expensive 1 TB nodes, §V-A) and
``development``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.jobs import Job, JobSpec, JobState
from repro.cluster.node import Node

Hook = Callable[[Job, int], None]


@dataclass
class Queue:
    """A named scheduling queue owning a set of nodes."""

    name: str
    node_names: List[str]
    max_walltime: int = 48 * 3600

    def __post_init__(self) -> None:
        if not self.node_names:
            raise ValueError(f"queue {self.name!r} owns no nodes")


class Scheduler:
    """FCFS first-fit scheduler over queues of nodes.

    With ``backfill=True`` (EASY backfill, the production default on
    the paper's systems): when the queue head cannot start, a *shadow
    time* is computed — the earliest instant enough running jobs will
    have ended for the head to fit — and the head's nodes are reserved
    at that time.  A later job may jump ahead only if it fits in the
    currently free nodes **and** either finishes (by its requested
    wall limit) before the shadow time or uses nodes the head will not
    need.  The head is therefore never delayed.
    """

    def __init__(
        self,
        nodes: Dict[str, Node],
        queues: Sequence[Queue],
        backfill: bool = True,
    ) -> None:
        self.backfill = backfill
        self.nodes = nodes
        self.queues: Dict[str, Queue] = {q.name: q for q in queues}
        owned = [n for q in queues for n in q.node_names]
        unknown = set(owned) - set(nodes)
        if unknown:
            raise ValueError(f"queues reference unknown nodes: {sorted(unknown)}")
        if len(owned) != len(set(owned)):
            raise ValueError("a node may belong to only one queue")
        self.pending: List[Job] = []
        self.running: Dict[str, Job] = {}
        self.finished: List[Job] = []
        self.prolog_hooks: List[Hook] = []
        self.epilog_hooks: List[Hook] = []
        self._ids = itertools.count(1000001)

    # -- submission -----------------------------------------------------------
    def submit(self, spec: JobSpec, now: int) -> Job:
        """Enqueue a job; returns the pending Job with its id assigned."""
        if spec.queue not in self.queues:
            raise KeyError(
                f"unknown queue {spec.queue!r}; have {sorted(self.queues)}"
            )
        q = self.queues[spec.queue]
        if spec.nodes > len(q.node_names):
            raise ValueError(
                f"job wants {spec.nodes} nodes but queue {q.name!r} "
                f"has only {len(q.node_names)}"
            )
        job = Job(jobid=str(next(self._ids)), spec=spec, submit_time=int(now))
        self.pending.append(job)
        return job

    # -- scheduling ---------------------------------------------------------
    def free_nodes(self, queue: str) -> List[str]:
        """Idle, healthy nodes of a queue, in stable order."""
        q = self.queues[queue]
        return [
            n
            for n in q.node_names
            if not self.nodes[n].busy and not self.nodes[n].failed
        ]

    def schedule_pending(self, now: int, runtime_for: Callable[[Job], int]) -> List[Job]:
        """Start every pending job that fits, FCFS per queue.

        ``runtime_for`` supplies the actual runtime the job will need
        (drawn from its application model, truncated by the wall limit).
        Returns the list of jobs started this call.
        """
        started: List[Job] = []
        still_pending: List[Job] = []
        free: Dict[str, List[str]] = {
            qname: self.free_nodes(qname) for qname in self.queues
        }
        # per-queue EASY state: (shadow_time, nodes_spare_at_shadow)
        blocked: Dict[str, Tuple[Optional[int], int]] = {}
        for job in self.pending:
            qname = job.spec.queue
            can_start = len(free[qname]) >= job.spec.nodes
            if qname in blocked:
                if not self.backfill or not can_start:
                    still_pending.append(job)
                    continue
                shadow, spare = blocked[qname]
                ends_by = now + min(job.spec.requested_runtime,
                                    self.queues[qname].max_walltime)
                fits_spare = job.spec.nodes <= spare
                done_in_time = shadow is None or ends_by <= shadow
                if not (fits_spare or done_in_time):
                    still_pending.append(job)
                    continue
                if fits_spare:
                    # consume the spare allowance so later backfills
                    # cannot collectively eat the head's reservation
                    blocked[qname] = (shadow, spare - job.spec.nodes)
            elif not can_start:
                # this job becomes the queue head: reserve for it
                blocked[qname] = self._easy_reservation(qname, job, free)
                still_pending.append(job)
                continue
            nodes = free[qname][: job.spec.nodes]
            free[qname] = free[qname][job.spec.nodes :]
            runtime = min(runtime_for(job), job.spec.requested_runtime,
                          self.queues[qname].max_walltime)
            job.mark_started(now, nodes, runtime)
            for i, nname in enumerate(nodes):
                self.nodes[nname].assign(job, i)
            self.running[job.jobid] = job
            for hook in self.prolog_hooks:
                hook(job, now)
            started.append(job)
        self.pending = still_pending
        return started

    def _easy_reservation(
        self, qname: str, head: Job, free: Dict[str, List[str]]
    ) -> Tuple[Optional[int], int]:
        """Shadow time and spare-node allowance for a blocked head.

        Walk running jobs in the queue by expected end (start +
        planned runtime); the shadow time is when cumulative releases
        plus currently free nodes first cover the head's request.  The
        spare allowance is what remains free at that instant beyond
        the head's need.
        """
        qnodes = set(self.queues[qname].node_names)
        ends = sorted(
            (job.start_time + job.planned_runtime, job.nodes)
            for job in self.running.values()
            if job.start_time is not None
            and job.planned_runtime is not None
            and set(job.assigned_nodes) & qnodes
        )
        avail = len(free[qname])
        for end_t, released in ends:
            avail += released
            if avail >= head.spec.nodes:
                return int(end_t), avail - head.spec.nodes
        return None, max(0, avail - head.spec.nodes)

    def finish(self, jobid: str, now: int, state: JobState, status: str) -> Job:
        """Tear a running job down and fire epilog hooks."""
        job = self.running.pop(jobid)
        # epilog (and its collection) runs while nodes still map the job
        job.mark_finished(now, state, status)
        for hook in self.epilog_hooks:
            hook(job, now)
        for nname in job.assigned_nodes:
            self.nodes[nname].release(jobid)
        self.finished.append(job)
        return job

    def jobs_on_failed_nodes(self) -> List[Job]:
        """Running jobs touching at least one failed node."""
        out = []
        for job in self.running.values():
            if any(self.nodes[n].failed for n in job.assigned_nodes):
                out.append(job)
        return out
