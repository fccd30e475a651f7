"""The vectorized protocol helpers agree with their scalar definitions.

The protocol-side kernels — the §6.2 component map and candidate table,
§6.1's batched seam reads (M′ member rows, parent intervals) with the
step-3/5 kernel over them, and the batched graph-edge drop and tour
prune read — are pure reformulations: every answer they give must equal
the scalar definition they replace, on both storages, and every case
they cannot decide must be flagged, never guessed.
"""

import numpy as np
import pytest

from repro.core import DynamicMST, batch_deletion
from repro.core.decomposition import (
    AnchorInfo,
    build_paths,
    in_m_prime,
    path_set_maxima,
    steiner_junctions,
)
from repro.core.init_build import free_init, make_states
from repro.errors import ProtocolError
from repro.euler.brackets import BracketComponents
from repro.graphs import (
    Update,
    WeightedGraph,
    churn_stream,
    random_forest,
    random_weighted_graph,
)
from repro.perf import components
from repro.perf.components import (
    FALLBACK,
    UNAFFECTED,
    component_codes,
    gap_tables,
    scan_candidates,
)
from repro.sim import KMachineNetwork, random_vertex_partition


def _random_nesting(rng, size, m):
    """m random non-crossing intervals over distinct labels in [0, size)."""
    labels = sorted(int(x) for x in rng.choice(size, size=2 * m, replace=False))
    opens, pairs = [], []
    n_open = 0
    for i, lab in enumerate(labels):
        remaining = 2 * m - i
        must_close = len(opens) == remaining
        must_open = not opens
        if not must_close and (
            must_open or (n_open < m and rng.random() < 0.5)
        ):
            opens.append(lab)
            n_open += 1
        else:
            pairs.append((opens.pop(), lab))
    return pairs


class TestComponentMap:
    @pytest.mark.parametrize("seed", range(10))
    def test_innermost_matches_bracket_walk(self, seed):
        """Every surviving label's gap reads its bracket component."""
        rng = np.random.default_rng(seed)
        size = int(rng.integers(8, 120))
        m = int(rng.integers(1, max(2, size // 4)))
        bc = BracketComponents(_random_nesting(rng, size, m), size)
        deleted, gap = gap_tables({7: bc})[7]
        assert deleted.tolist() == sorted(bc._deleted_labels)
        surviving = np.array(
            [w for w in range(size) if w not in bc._deleted_labels],
            dtype=np.int64,
        )
        got = gap[np.searchsorted(deleted, surviving)]
        want = [bc.component_of_label(int(w)) for w in surviving]
        assert got.tolist() == want

    @staticmethod
    def _codes(rows, brackets, comp_base):
        """component_codes over rows of (tour, witness labels or None)."""
        tours = np.array([t for t, _w in rows], dtype=np.int64)
        wt1 = np.array([w[0] if w else 0 for _t, w in rows], dtype=np.int64)
        wt2 = np.array([w[1] if w else 0 for _t, w in rows], dtype=np.int64)
        walive = np.array([w is not None for _t, w in rows], dtype=bool)
        return component_codes(
            tours, wt1, wt2, walive, brackets, comp_base, gap_tables(brackets),
        ).tolist()

    def test_fallback_and_none_classification(self):
        # Tour 1 is affected (one deleted interval), tour 2 is not.
        bc = BracketComponents([(1, 4)], 6)
        got = self._codes(
            [
                (1, (2, 3)),   # surviving labels → decided
                (1, None),     # missing → fallback
                (2, (0, 5)),   # unaffected tour → None
                (1, (1, 4)),   # deleted pair → fallback
            ],
            {1: bc}, {1: 0},
        )
        assert got[0] == bc.component_of_label(2)  # comp_base is 0
        assert got[1] == FALLBACK
        assert got[2] == UNAFFECTED
        assert got[3] == FALLBACK

    def test_out_of_range_label_falls_back(self):
        bc = BracketComponents([(1, 2)], 4)
        got = self._codes(
            [
                (1, (0, 9)),    # 0 survives → decided
                (1, (-3, 7)),   # corrupt → scalar raises it
            ],
            {1: bc}, {1: 5},
        )
        assert got[0] == 5 + bc.component_of_label(0)
        assert got[1] == FALLBACK


def _fleet(seed, fast):
    """A random forest with isolated vertices, split over 1–8 machines on
    one storage; the same seed draws the same fleet on either storage."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    k = int(rng.integers(1, 9))
    g = random_forest(n, int(rng.integers(1, max(2, n // 6))), rng)
    for x in range(n, n + int(rng.integers(0, 3))):
        g.add_vertex(x)
    net = KMachineNetwork(k, fast=fast)
    vp = random_vertex_partition(sorted(g.vertices()), k, rng)
    states, tid = make_states(g, vp, net)
    free_init(g, vp, states, tid)
    return rng, vp, states


def _protocol_anchors(rng, vp, states):
    """A random A set and the anchors §6.1 derives from it, by the scalar
    definitions: per-vertex parent intervals, and B as the owned vertices
    with at least three incident M′ edges."""
    xs = sorted(x for st in states for x in st.vertices)
    picked = rng.choice(xs, size=int(rng.integers(1, min(len(xs), 12) + 1)), replace=False)
    anchors, entries = [], {}
    for x in sorted(int(x) for x in picked):
        st = states[vp.home(x)]
        tid = st.tour_id(x)
        interval = st.parent_interval(x) or (-1, st.tour_size.get(tid, 0))
        anchors.append(AnchorInfo(x, tid, interval))
        entries.setdefault(tid, []).append(interval[0])
    for e in entries.values():
        e.sort()
    eligible = {t: e for t, e in entries.items() if len(e) >= 2}
    a_set = {a.vertex for a in anchors}
    for st in states:
        for x in sorted(st.vertices - a_set):
            tid = st.tour_id(x)
            if tid in eligible and _degree(st, x, eligible) >= 3:
                interval = st.parent_interval(x) or (-1, st.tour_size.get(tid, 0))
                anchors.append(AnchorInfo(x, tid, interval))
    return anchors, entries, eligible


def _degree(st, x, eligible):
    return sum(
        1 for e in st.incident_mst(x)
        if e.tour in eligible and in_m_prime(e.labels(), eligible[e.tour])
    )


def _rows(rows):
    return sorted(zip(*(col.tolist() for col in rows)))


SEEDS = range(40)
#: The dict storage and the fleet columns, built from the same seed.
STORAGES = (False, True)


class TestMPrime:
    """§6.1's two batched seam reads and its step-3/5 kernel against the
    per-edge definitions, on both storages."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_members_match_scalar_predicate(self, seed):
        for fast in STORAGES:
            rng, vp, states = _fleet(seed, fast)
            _anchors, entries, _eligible = _protocol_anchors(rng, vp, states)
            want = sorted(
                (st.mid, e.u, e.v, e.weight, e.e_min, e.e_max, e.tour)
                for st in states
                for e in st.iter_mst()
                if e.tour in entries and in_m_prime(e.labels(), entries[e.tour])
            )
            assert _rows(states[0].m_prime_rows(states, entries)) == want

    @pytest.mark.parametrize("seed", SEEDS)
    def test_path_maxima_match_the_loop(self, seed):
        for fast in STORAGES:
            rng, vp, states = _fleet(seed, fast)
            anchors, entries, eligible = _protocol_anchors(rng, vp, states)
            paths = build_paths(anchors, entries)
            paths_by_tour = {}
            for p in paths:
                paths_by_tour.setdefault(p.tour, []).append(p)
            want = {p.query_id: [None] * len(states) for p in paths}
            for st in states:
                for e in st.iter_mst():
                    labels = e.labels()
                    if e.tour not in paths_by_tour or not in_m_prime(labels, entries[e.tour]):
                        continue
                    hit = [p for p in paths_by_tour[e.tour] if p.matches_interval(labels)]
                    if hit:
                        cur = want[hit[0].query_id][st.mid]
                        cand = (e.key, e.u, e.v)
                        want[hit[0].query_id][st.mid] = cand if cur is None else max(cur, cand)
            rows = states[0].m_prime_rows(states, eligible)
            assert path_set_maxima(paths, rows, len(states)) == want

    def test_degrees_match_scalar_count(self):
        """The junctions a home machine owns are the per-vertex B test."""
        for seed in SEEDS:
            for fast in STORAGES:
                rng, vp, states = _fleet(seed, fast)
                _anchors, _entries, eligible = _protocol_anchors(rng, vp, states)
                rows = states[0].m_prime_rows(states, eligible)
                got = [
                    (m, x) for m, x in steiner_junctions(rows, len(states))
                    if x in states[m].vertices
                ]
                want = [
                    (st.mid, x) for st in states for x in sorted(st.vertices)
                    if _degree(st, x, eligible) >= 3
                ]
                assert got == want, (seed, fast)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_parent_intervals_match_per_vertex(self, seed):
        for fast in STORAGES:
            _rng, _vp, states = _fleet(seed, fast)
            reads = [(st.mid, x) for st in states for x in sorted(st.tracked)]
            want = [states[m].parent_interval(x) for m, x in reads]
            assert None in want  # every tour has a root
            assert states[0].parent_intervals(states, reads) == want

    def test_fewer_than_two_entries_is_empty(self):
        for fast in STORAGES:
            _rng, _vp, states = _fleet(3, fast)
            tours = {st.tour_id(x) for st in states for x in st.vertices}
            rows = states[0].m_prime_rows(states, {t: [0] for t in tours})
            assert _rows(rows) == []
            rows = states[0].m_prime_rows(states, {})
            assert _rows(rows) == []
            assert path_set_maxima([], rows, len(states)) == {}
            assert steiner_junctions(rows, len(states)) == []
            assert states[0].parent_intervals(states, []) == []

    def test_the_pair_set_keeps_both_arms(self):
        """1 - 0 - 2 with A = {1, 2}: the centre is a bend in neither A nor
        B, and both arms fall into the one pair set."""
        g = WeightedGraph.from_edges([(0, 1, 0.1), (0, 2, 0.2)])
        for fast in STORAGES:
            vp = random_vertex_partition([0, 1, 2], 2, np.random.default_rng(0))
            states, tid = make_states(g, vp, KMachineNetwork(2, fast=fast))
            free_init(g, vp, states, tid)
            anchors = [
                AnchorInfo(x, states[vp.home(x)].tour_id(x), states[vp.home(x)].parent_interval(x))
                for x in (1, 2)
            ]
            entries = {anchors[0].tour: sorted(a.interval[0] for a in anchors)}
            paths = build_paths(anchors, entries)
            assert [p.kind for p in paths] == ["pair"]
            rows = states[0].m_prime_rows(states, entries)
            answers = path_set_maxima(paths, rows, 2)[paths[0].query_id]
            assert max(a for a in answers if a is not None) == ((0.2, 0, 2), 0, 2)


def _table(t):
    return [(col.dtype.kind, col.tolist()) for col in t]


def _churn(seed, backend):
    """A sparse random graph (many trees) on 2–8 machines of one storage,
    and 6 churn batches."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(12, 60))
    k = int(rng.integers(2, 9))
    g = random_weighted_graph(n, int(rng.integers(n // 2, 2 * n)), rng, connected=False)
    stream = list(churn_stream(g.copy(), int(rng.integers(4, 2 * k + 8)), 6, rng=rng))
    return DynamicMST.build(g, k, rng=seed, init="free", backend=backend), stream


class TestDeletionCandidates:
    """§6.2 steps 2–3 on the fleet against the reference scan."""

    @staticmethod
    def _spy(monkeypatch, seen):
        """Record every batch's columnar table, the reference scan's table
        over the same states, and the number of FALLBACK vertex rows."""
        real = batch_deletion.deletion_candidates

        def both(states, brackets, comp_base, comp_of, scan):
            got = real(states, brackets, comp_base, comp_of, scan)
            fleet = states[0].fleet
            nv = fleet.nv
            codes = component_codes(
                fleet.vtour[:nv], fleet.wt1[:nv], fleet.wt2[:nv], fleet.walive[:nv],
                brackets, comp_base, gap_tables(brackets),
            )
            seen.append((got, scan_candidates(states, scan), int((codes == FALLBACK).sum())))
            return got

        monkeypatch.setattr(batch_deletion, "deletion_candidates", both)

    @pytest.mark.parametrize("seed", range(12))
    def test_table_matches_reference_scan(self, seed, monkeypatch):
        seen = []
        self._spy(monkeypatch, seen)
        dm, stream = _churn(seed, "inproc-columnar")
        for batch in stream:
            dm.apply_batch(batch)
        dm.check()
        assert seen
        for got, want, _fallback in seen:
            assert _table(got) == _table(want)

    def test_deleted_edge_witnesses_are_fallback_rows(self, monkeypatch):
        """Vertices 1 and 2 keep the deleted edge (1, 2) as their witness
        (their lightest incident forest edge): Figure 4's boundary rule
        places them, through the scalar comp_of."""
        seen = []
        self._spy(monkeypatch, seen)
        g = WeightedGraph.from_edges([
            (0, 1, 5.0), (1, 2, 1.0), (2, 3, 4.0), (3, 4, 2.0), (4, 5, 3.0),
            (0, 2, 10.0), (1, 3, 11.0), (2, 4, 12.0), (3, 5, 13.0), (0, 5, 14.0),
        ])
        dm = DynamicMST.build(g, 2, rng=0, init="free", backend="inproc-columnar")
        dm.apply_batch([Update.delete(1, 2), Update.delete(3, 4)])
        dm.check()
        (got, want, fallback), = seen
        assert fallback >= 2
        assert len(got.machine) > 0
        assert _table(got) == _table(want)

    @staticmethod
    def _corrupt(dm, kind):
        """Break the first graph edge of two machines (the graph is one
        tree, so every vertex is in the split tour): the scan raises on
        both."""
        for st in dm.states[1:3]:
            x, _y = min(st.graph_edges)
            if kind == "no_witness":
                st.set_witness(x, None)
            else:
                st.set_tour_id(x, 10**6)  # a tour no deletion touched

    @pytest.mark.parametrize("kind", ["no_witness", "straddle"])
    @pytest.mark.parametrize("seed", range(3))
    def test_errors_match_reference(self, kind, seed, monkeypatch):
        """Same message, raised from the scan of the same machine."""
        real_dc, real_sc = components.deletion_candidates, components.scan_candidates
        outcome = {}
        for backend in ("reference", "inproc-columnar"):
            calls = []

            def record(scan, calls=calls):
                def wrapped(st):
                    calls.append(st.mid)
                    return scan(st)
                return wrapped

            monkeypatch.setattr(
                batch_deletion, "deletion_candidates",
                lambda states, b, c, co, scan: real_dc(states, b, c, co, record(scan)),
            )
            monkeypatch.setattr(
                batch_deletion, "scan_candidates",
                lambda states, scan: real_sc(states, record(scan)),
            )
            g = random_weighted_graph(40, 120, np.random.default_rng(seed))
            dm = DynamicMST.build(g, 4, rng=seed, init="free", backend=backend)
            u, v, _w = min(dm.msf_edges())
            self._corrupt(dm, kind)
            with pytest.raises(ProtocolError) as err:
                dm.apply_batch([Update.delete(u, v)])
            outcome[backend] = (str(err.value), calls)
        assert outcome["inproc-columnar"] == outcome["reference"]
        message, calls = outcome["reference"]
        assert ("no witness" if kind == "no_witness" else "straddles") in message
        assert calls == [0, 1]  # the first corrupted machine raises


class TestDeletionSeam:
    """The batched graph-edge drop and the tour prune read against their
    per-machine definitions, on both storages."""

    @staticmethod
    def _observe(states):
        out = {
            "records": [st.record() for st in states],
            "peak": [st.machine.peak_words for st in states],
            "used": [st.machine.space_words for st in states],
        }
        fleet = getattr(states[0], "fleet", None)
        if fleet is not None:
            live = np.flatnonzero(fleet.galive[: fleet.ng])
            rows = zip(*(c[live].tolist() for c in (fleet.gmid, fleet.gu, fleet.gv, fleet.gw)))
            out["rows"] = sorted(rows)
            assert out["rows"] == sorted(
                (st.mid, u, v, w) for st in states for (u, v), w in st.graph_edges.items()
            )
        return out

    @pytest.mark.parametrize("seed", SEEDS)
    def test_batched_drop_matches_per_edge(self, seed):
        for fast in STORAGES:
            runs = []
            for batched in (False, True):
                rng, vp, states = _fleet(seed, fast)
                keys = sorted({key for st in states for key in st.graph_edges})
                pick = rng.choice(len(keys), size=int(rng.integers(0, len(keys) + 1)),
                                  replace=False) if keys else []
                drops = [(m, keys[i]) for i in sorted(pick) for m in vp.edge_machines(*keys[i])]
                drops.append((0, (10**6, 10**6 + 1)))  # absent: only refreshes
                if batched:
                    states[0].drop_graph_edges(states, drops)
                else:
                    for m, key in drops:
                        states[m].drop_graph_edge(*key)
                runs.append(self._observe(states))
            assert runs[1] == runs[0], (seed, fast)

    @pytest.mark.parametrize("seed", range(8))
    def test_prune_read_matches_live_tours(self, seed, monkeypatch):
        real = DynamicMST._prune_tours
        reads = {}
        for backend in ("reference", "inproc-columnar"):
            got = []

            def spy(dm, got=got, backend=backend):
                if backend == "reference":
                    live = [st.live_tours() & st.tour_size.keys() for st in dm.states]
                else:
                    live = dm.states[0].live_tour_keys(dm.states)
                got.append(([sorted(st.tour_size) for st in dm.states],
                            [sorted(t) for t in live]))
                real(dm)

            monkeypatch.setattr(DynamicMST, "_prune_tours", spy)
            dm, stream = _churn(seed, backend)
            for batch in stream:
                dm.apply_batch(batch)
            reads[backend] = got
        assert reads["inproc-columnar"] == reads["reference"]
        assert any(keys != live for keys, live in reads["reference"])  # some are pruned
