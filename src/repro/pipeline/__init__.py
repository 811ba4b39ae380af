"""ETL pipeline: raw stats → per-job data → metrics → database.

§IV-A: *"After data collection TACC Stats maps the raw output from each
node to job ids.  Metadata describing each job along with a set of
computed metrics are then ingested into a PostgreSQL database."*

Per job, the pass is:

1. :func:`map_jobs` — stream every host's raw samples out of the
   :class:`~repro.core.store.CentralStore` and bucket them by job id
   (a sample tagged with several jobs lands in each — shared nodes).
2. :func:`accumulate` → :class:`JobAccum` — rollover-corrected
   per-interval deltas of the canonical quantities, the metrics
   engine's input representation.
3. :func:`~repro.metrics.table1.compute_metrics` and
   :func:`~repro.metrics.flags.evaluate_flags` — the Table I metrics
   and §V-A flags that become one database row.

The portal job view, the chaos harness and the stream analyzer use
these per-job functions directly.  The ingest driver,
:func:`parallel_ingest_jobs`, runs the same pass over whole arrays:
per-host raw files are (optionally) sharded across a worker pool and
parsed into columnar blocks (:class:`~repro.core.rawfile.BlockParser`),
jobs are accumulated with whole-array NumPy operations
(:func:`accumulate_blocks`), metrics are evaluated on stacked job
tensors, and rows reach the database via bulk inserts.  Its output is
byte-identical to rows built job by job from the per-job functions at
any worker count — see ``docs/architecture.md`` for the full data-flow
picture and ``docs/performance.md`` for tuning.

Example
-------
Write a two-host raw store, then run the parallel batched ingest:

>>> import tempfile
>>> import numpy as np
>>> from repro.core.collector import Sample
>>> from repro.core.rawfile import RawFileWriter
>>> from repro.core.store import CentralStore
>>> from repro.db import Database
>>> from repro.hardware.devices.base import Schema, SchemaEntry
>>> from repro.pipeline import parallel_ingest_jobs
>>> schemas = {"cpu": Schema([SchemaEntry("user", unit="cs"),
...                           SchemaEntry("idle", unit="cs")])}
>>> tmp = tempfile.TemporaryDirectory()
>>> store = CentralStore(tmp.name)
>>> for host in ("c100-001", "c100-002"):
...     w = RawFileWriter(host, "intel_snb", schemas, mem_bytes=1 << 34)
...     parts = [w.header()]
...     for i in range(3):
...         data = {"cpu": {"0": np.array([100.0 * i, 50.0 * i])}}
...         parts.append(w.record(Sample(host=host, timestamp=600 * i,
...                                      jobids=["42"], data=data,
...                                      procs=[])))
...     store.append(host, "".join(parts), arrived_at=1800)
>>> db = Database()
>>> result = parallel_ingest_jobs(store, None, db, workers=2,
...                               executor="thread")
>>> result.ingested
1
>>> tmp.cleanup()
"""

from repro.pipeline.accum import (
    CANONICAL_QUANTITIES,
    JobAccum,
    accumulate,
    accumulate_blocks,
)
from repro.pipeline.jobmap import JobData, map_jobs
from repro.pipeline.parallel import (
    IngestResult,
    ShardedCheckpoint,
    assemble_jobs,
    parallel_ingest_jobs,
    parse_blocks,
    shard_hosts,
)
from repro.pipeline.pickles import JobPickleStore

__all__ = [
    "JobData",
    "map_jobs",
    "JobAccum",
    "accumulate",
    "accumulate_blocks",
    "CANONICAL_QUANTITIES",
    "IngestResult",
    "JobPickleStore",
    "parallel_ingest_jobs",
    "parse_blocks",
    "assemble_jobs",
    "shard_hosts",
    "ShardedCheckpoint",
]
