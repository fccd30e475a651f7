"""The closed-form supersteps charge what the reference superstep charges.

``Network.fanout`` and ``Network.point_to_point`` deliver nothing.  On the
columnar engine they charge from loads computed over the requests
(``Network.superstep_plane``, which also takes both kinds in one
superstep); on the reference engine, and whenever a fault hook is
enabled, they materialize the ``Message`` list and run
``Network.superstep``.  Here
randomized request sets are charged in closed form on one network and as
``superstep`` over independently materialized messages on another: the
ledger transcript, the ingress/egress gauges and every recorder superstep
field except the engine tag must agree, on both models.
"""

import io
import json

import numpy as np
import pytest

from repro.errors import BandwidthExceeded, StrictModeViolation
from repro.sim import KMachineNetwork, MPCNetwork, Message
from repro.sim.strict import check_message_words
from repro.trace.recorder import TraceRecorder

KS = [1, 2, 5, 8, 16]
MODELS = {
    "kmachine-w1": lambda k, **kw: KMachineNetwork(k, **kw),
    "kmachine-w3": lambda k, **kw: KMachineNetwork(k, words_per_round=3, **kw),
    # S = 7 words against widths up to 5: most MPC supersteps take > 1 round.
    "mpc-s7": lambda k, **kw: MPCNetwork(k, space=7, enforce_budget=False, **kw),
}


def _fanout_requests(rng, k):
    return [
        (int(rng.integers(0, k)), ("p", int(rng.integers(100))), int(rng.integers(1, 6)))
        for _ in range(int(rng.integers(1, 12)))
    ]


def _sends(rng, k):
    sends = []
    for _ in range(int(rng.integers(1, 12))):
        src = int(rng.integers(0, k))
        dst = int(rng.integers(0, k - 1))
        dst += dst >= src
        sends.append((src, dst, ("q", int(rng.integers(100))), int(rng.integers(1, 6))))
    return sends


def _requests(rng, k):
    """A random superstep: ("fanout", requests) or ("p2p", sends)."""
    if k == 1 or rng.random() < 0.5:
        return "fanout", _fanout_requests(rng, k)
    return "p2p", _sends(rng, k)


def _materialize(kind, reqs, k):
    if kind == "fanout":
        return [
            Message(src, dst, payload, words)
            for (src, payload, words) in reqs
            for dst in range(k)
            if dst != src
        ]
    return [Message(s, d, p, w) for (s, d, p, w) in reqs]


def _recorded(net):
    buf = io.StringIO()
    net.ledger.recorder = TraceRecorder(buf)
    return buf


def _steps(buf):
    """Superstep events, without the engine tag and call site."""
    events = [json.loads(line) for line in buf.getvalue().splitlines()]
    return [
        {k: v for k, v in e.items() if k not in ("engine", "site")}
        for e in events
        if e["type"] == "superstep"
    ], [e["engine"] for e in events if e["type"] == "superstep"]


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("seed", range(3))
def test_closed_form_charges_the_materialized_superstep(model, k, seed):
    rng = np.random.default_rng([seed, k])
    closed = MODELS[model](k, fast=True, strict=False)
    reference = MODELS[model](k, fast=False, strict=False)
    scalar = MODELS[model](k, fast=False, strict=False)
    bufs = [_recorded(net) for net in (closed, reference, scalar)]
    for _ in range(12):
        kind, reqs = _requests(rng, k)
        if kind == "fanout":
            closed.fanout(reqs)
            reference.fanout(reqs)
        else:
            closed.point_to_point(reqs)
            reference.point_to_point(reqs)
        scalar.superstep(_materialize(kind, reqs, k))
    for net in (closed, reference):
        assert net.ledger.transcript == scalar.ledger.transcript
        assert net.ingress_words == scalar.ingress_words
        assert net.egress_words == scalar.egress_words
    (closed_steps, closed_engines), (ref_steps, ref_engines), (want, _) = map(_steps, bufs)
    assert closed_steps == want and ref_steps == want
    assert set(closed_engines) <= {"columnar"} and set(ref_engines) <= {"scalar"}
    if k == 1:
        assert scalar.ledger.transcript == []
    elif model == "mpc-s7":
        assert max(rounds for rounds, _m, _w in scalar.ledger.transcript) > 1


@pytest.mark.parametrize("k", [k for k in KS if k > 1])
@pytest.mark.parametrize("model", sorted(MODELS))
def test_mixed_plane_charges_fanout_copies_then_sends(model, k):
    """One closed-form superstep of fan-outs and sends: the fan-out's
    per-link load adds to the sends' on every link it shares."""
    rng = np.random.default_rng([7, k])
    closed = MODELS[model](k, fast=True, strict=True)
    scalar = MODELS[model](k, fast=False, strict=True)
    bufs = [_recorded(net) for net in (closed, scalar)]
    for _ in range(12):
        reqs, sends = _fanout_requests(rng, k), _sends(rng, k)
        closed.superstep_plane(reqs, sends)
        scalar.superstep(_materialize("fanout", reqs, k) + _materialize("p2p", sends, k))
    assert closed.ledger.transcript == scalar.ledger.transcript
    assert closed.ingress_words == scalar.ingress_words
    assert closed.egress_words == scalar.egress_words
    assert _steps(bufs[0])[0] == _steps(bufs[1])[0]


def test_empty_requests_are_free():
    for fast in (True, False):
        net = KMachineNetwork(4, fast=fast)
        net.fanout([])
        net.point_to_point([])
        assert net.ledger.transcript == []


def _outcome(entry, arg):
    try:
        entry(arg)
    except (BandwidthExceeded, ValueError) as exc:
        return type(exc), str(exc)
    return None


BAD = {
    "fanout-src-high": ("fanout", lambda k: [(0, "a", 1), (k, "b", 1)]),
    "fanout-src-negative": ("fanout", lambda k: [(-1, "a", 1)]),
    "fanout-zero-width": ("fanout", lambda k: [(0, "a", 1), (k - 1, "b", 0)]),
    "p2p-dst-high": ("p2p", lambda k: [(0, k, "a", 1)]),
    "p2p-zero-width": ("p2p", lambda k: [(0, k, "a", 1), (k - 1, 0, "b", 0)]),
    "p2p-self-send": ("p2p", lambda k: [(0, k, "a", 1), (k - 1, k - 1, "b", 1)]),
}


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("case", sorted(BAD))
def test_bad_requests_raise_as_the_reference_does(case, k):
    kind, build = BAD[case]
    outcomes = []
    for fast in (True, False):
        net = KMachineNetwork(k, fast=fast, strict=False)
        entry = net.fanout if kind == "fanout" else net.point_to_point
        outcomes.append(_outcome(entry, build(k)))
        assert net.ledger.transcript == []
        assert net.ingress_words == [0] * k
    scalar = KMachineNetwork(k, fast=False, strict=False)

    def materialized(reqs):
        return scalar.superstep(_materialize(kind, reqs, k))

    want = _outcome(materialized, build(k))
    assert outcomes == [want, want]
    if k > 1:
        expected = BandwidthExceeded if "width" not in case and "self" not in case else ValueError
        assert want is not None and want[0] is expected


class TestStrict:
    FAT = tuple(range(40))

    def test_fanout_checks_each_request_once(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args[:2])
            return check_message_words(*args)

        monkeypatch.setattr("repro.sim.network.check_message_words", counting)
        reqs = [(0, (1, 2), 2), (3, (4,), 1), (0, (5,), 1)]
        KMachineNetwork(5, fast=True, strict=True).fanout(reqs)
        assert calls == [(0, 1), (3, 0), (0, 1)]
        calls.clear()
        KMachineNetwork(5, fast=False, strict=True).fanout(reqs)
        assert len(calls) == len(reqs) * 4

    @pytest.mark.parametrize("kind", ["fanout", "p2p"])
    def test_undercharged_payload_raises_the_reference_violation(self, kind):
        got = []
        for fast in (True, False):
            net = KMachineNetwork(4, fast=fast, strict=True)
            buf = _recorded(net)
            with pytest.raises(StrictModeViolation) as exc:
                if kind == "fanout":
                    net.fanout([(1, "ok", 1), (2, self.FAT, 3)])
                else:
                    net.point_to_point([(1, 0, "ok", 1), (2, 3, self.FAT, 3)])
            assert net.strict_violations == 1
            assert net.ledger.transcript == []
            events = [json.loads(line) for line in buf.getvalue().splitlines()]
            violations = [e for e in events if e["type"] == "violation"]
            got.append((exc.value.kind, str(exc.value), violations))
        assert got[0] == got[1]
        assert got[0][0] == "undercharged-words"
        assert got[0][1].startswith("message 2->0 " if kind == "fanout" else "message 2->3 ")
