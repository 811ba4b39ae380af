"""StreamPipeline: live TSDB feed, wiring guards, portal integration."""

import typing

import pytest

from repro import monitoring_session, obs
from repro.broker import Delivery, Message
from repro.cluster import JobSpec, make_app
from repro.portal.app import PortalApp
from repro.stream import StreamPipeline
from repro.stream.pipeline import STREAM_QUEUE
from repro.stream.retention import RetentionPolicy
from repro.tsdb import TimeSeriesDB, ingest_store

#: keep nothing out and roll nothing up: the live feed must then be
#: byte-identical to a post-hoc ingest_store() of the same store
KEEP_ALL = RetentionPolicy(raw_horizon=10**10, tiers=(), prune_interval=10**10)


@pytest.fixture(scope="module")
def mirror_run():
    """A small live run whose store is also ingested post-hoc."""
    obs.reset()
    sess = monitoring_session(nodes=4, seed=31)
    obs.set_clock(sess.cluster.clock.now)
    stream = StreamPipeline(
        sess.broker, jobs=sess.cluster.jobs,
        types=["mdc", "cpu"], retention=KEEP_ALL,
    )
    stream.start()
    sess.cluster.submit(JobSpec(
        user="alice", app=make_app("wrf", runtime_mean=3000.0,
                                   fail_prob=0.0), nodes=2))
    sess.cluster.submit(JobSpec(
        user="mduser", app=make_app("metadata_thrash", runtime_mean=3000.0,
                                    fail_prob=0.0), nodes=2))
    sess.cluster.run_for(4 * 3600)
    stream.finalize()
    return sess, stream


def _points(db, metric="stats"):
    out = {}
    for s in db.select(metric):
        t, v = s.arrays()
        out[tuple(sorted(s.tags.items()))] = (t.tolist(), v.tolist())
    return out


def test_live_feed_matches_posthoc_ingest(mirror_run):
    sess, stream = mirror_run
    posthoc = TimeSeriesDB()
    ingest_store(posthoc, sess.store, types=["mdc", "cpu"])
    live = _points(stream.tsdb)
    ref = _points(posthoc)
    assert set(live) == set(ref)
    assert live == ref


def test_live_feed_uses_paper_tag_scheme(mirror_run):
    _, stream = mirror_run
    s = stream.tsdb.select("stats")[0]
    assert set(s.tags) == {"host", "type", "device", "event"}
    assert set(stream.tsdb.tag_values("type")) == {"mdc", "cpu"}


def test_type_filter_respected(mirror_run):
    _, stream = mirror_run
    assert "mem" not in stream.tsdb.tag_values("type")


def test_start_twice_rejected(mirror_run):
    sess, stream = mirror_run
    with pytest.raises(RuntimeError):
        stream.start()


def test_pipeline_counts_are_consistent(mirror_run):
    _, stream = mirror_run
    assert stream.samples > 0
    assert stream.points == stream.tsdb.n_points()
    assert stream.last_seen > 0
    # the write path's annotations resolve (every name they use is
    # imported), so introspection tools can read them
    hints = typing.get_type_hints(StreamPipeline._write_batch)
    assert hints["return"] is int


def test_corrupt_delivery_is_quarantined_not_fatal():
    obs.reset()
    from repro.broker import Broker

    pipe = StreamPipeline(Broker())
    pipe._started = True  # bypass wiring; drive the handler directly
    msg = Message(body="this is not a stats block\nnor this\n",
                  headers={"host": "n9"}, published_at=600)
    pipe._on_delivery(None, Delivery(
        message=msg, delivery_tag=1, queue=STREAM_QUEUE, delivered_at=601,
    ))
    assert pipe.samples == 0
    assert obs.counter(
        "repro_stream_parse_errors_total"
    ).value(host="n9") >= 1
    obs.reset()


def test_portal_fleet_live_section(mirror_run, fresh_db):
    sess, stream = mirror_run
    app = PortalApp(fresh_db, stream=stream)
    resp = app.get("/fleet")
    assert resp.ok
    assert "Live health" in resp.body
    assert "Alert feed" in resp.body
    assert "samples streamed" in resp.body
    if stream.alerts.ledger:
        newest = stream.alerts.recent(1)[0]
        assert newest.rule in resp.body
        assert f'href="/job/{newest.jobid}"' in resp.body


def test_portal_fleet_without_stream_still_404s_on_empty_db(fresh_db):
    assert PortalApp(fresh_db).get("/fleet").status == 404


def test_portal_fleet_live_activity_chart(mirror_run, fresh_db):
    _, stream = mirror_run
    app = PortalApp(fresh_db, stream=stream)
    resp = app.get("/fleet")
    assert resp.ok
    assert "Live activity" in resp.body
    assert "rate by host" in resp.body
    # the three read-path accelerators report separately (ISSUE 6)
    assert "result cache" in resp.body
    assert "buffer cache" in resp.body
    assert "preagg:" in resp.body
    assert "chunk decodes" in resp.body


def test_portal_tsdb_plot_endpoint(mirror_run, fresh_db):
    _, stream = mirror_run
    app = PortalApp(fresh_db, stream=stream)
    resp = app.get_url(
        "/tsdb?metric=stats&tag.type=mdc&group_by=host&rate=1"
        "&downsample=600:avg"
    )
    assert resp.ok
    assert "<svg" in resp.body
    assert "store epoch" in resp.body
    # a reload of the unchanged store is served from the result cache
    hits_before = stream.tsdb.cache.hits
    assert app.get_url(
        "/tsdb?metric=stats&tag.type=mdc&group_by=host&rate=1"
        "&downsample=600:avg"
    ).ok
    assert stream.tsdb.cache.hits == hits_before + 1


def test_portal_tsdb_rejects_bad_query(mirror_run, fresh_db):
    _, stream = mirror_run
    app = PortalApp(fresh_db, stream=stream)
    assert app.get_url("/tsdb?agg=median").status == 400
    assert app.get_url("/tsdb?range=abc:def").status == 400


def test_portal_tsdb_requires_stream(fresh_db):
    assert PortalApp(fresh_db).get("/tsdb").status == 404
