"""ObsSession lifecycle and the `repro watch` driver."""

import json
import urllib.request

from repro.obs import ObsSession, watch_scenario


def test_session_without_server_has_no_url():
    with ObsSession(serve=False) as session:
        assert session.url is None
        assert session.server is None


def test_watch_scenario_finite_loops():
    seen = {}

    def on_ready(session):
        seen["url"] = session.url
        with urllib.request.urlopen(session.url + "/healthz", timeout=5) as r:
            seen["health"] = json.load(r)

    report = watch_scenario("smoke-small", loops=2, on_ready=on_ready)
    assert report["loops"] == 2
    assert seen["health"]["status"] == "ok"
    snap = report["snapshot"]
    assert snap["runs"] == {"started": 2, "ended": 2}
    assert snap["totals"]["batches"] == 6  # 3 batches per loop
    assert snap["bus"]["dropped"] == 0
    # Two identical seeded loops: the digest is reproducible.
    assert report["last_run"]["digest"]


def test_watch_loops_are_deterministic():
    a = watch_scenario("smoke-small", loops=1)
    b = watch_scenario("smoke-small", loops=1)
    assert a["last_run"]["digest"] == b["last_run"]["digest"]
