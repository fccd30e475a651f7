"""Pin bench_run's trajectory-file naming and the stream schema.

Two same-day runs must auto-suffix within their *own* family —
``BENCH_<date>.json``, ``BENCH_<date>_init.json`` and
``BENCH_<date>_stream.json`` number independently — and the next
suffix is always max+1 over the files on disk, so run order and
suffix order never diverge.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "tools"))

import bench_run  # noqa: E402

DATE = "2026-01-31"


@pytest.fixture
def bench_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _touch(bench_dir, *names):
    for name in names:
        (bench_dir / name).write_text("{}\n")


class TestDefaultOutPath:
    def test_first_run_gets_the_bare_name(self, bench_dir):
        assert bench_run._default_out_path(DATE, "") == f"BENCH_{DATE}.json"
        assert (
            bench_run._default_out_path(DATE, "_stream")
            == f"BENCH_{DATE}_stream.json"
        )

    def test_second_run_suffixes_2(self, bench_dir, capsys):
        _touch(bench_dir, f"BENCH_{DATE}.json")
        assert bench_run._default_out_path(DATE, "") == f"BENCH_{DATE}_2.json"
        assert "--out" in capsys.readouterr().err

    def test_families_never_interleave(self, bench_dir):
        """A same-day --stream run must not perturb the plain family's
        counter, and vice versa — this was the original collision."""
        _touch(
            bench_dir,
            f"BENCH_{DATE}_stream.json",
            f"BENCH_{DATE}_stream_2.json",
            f"BENCH_{DATE}_init.json",
        )
        # plain family is untouched by the stream/init files
        assert bench_run._default_out_path(DATE, "") == f"BENCH_{DATE}.json"
        # and the stream family keeps its own count
        assert (
            bench_run._default_out_path(DATE, "_stream")
            == f"BENCH_{DATE}_stream_3.json"
        )
        assert (
            bench_run._default_out_path(DATE, "_init")
            == f"BENCH_{DATE}_init_2.json"
        )

    def test_plain_counter_ignores_suffixed_families(self, bench_dir):
        _touch(
            bench_dir,
            f"BENCH_{DATE}.json",
            f"BENCH_{DATE}_2.json",
            f"BENCH_{DATE}_stream.json",
            f"BENCH_{DATE}_stream_5.json",
        )
        assert bench_run._default_out_path(DATE, "") == f"BENCH_{DATE}_3.json"

    def test_holes_are_never_refilled(self, bench_dir):
        """Deleting an intermediate run must not hand its suffix to a
        later run — the next index is max+1, not first-free."""
        _touch(bench_dir, f"BENCH_{DATE}.json", f"BENCH_{DATE}_4.json")
        assert bench_run._default_out_path(DATE, "") == f"BENCH_{DATE}_5.json"

    def test_other_days_do_not_count(self, bench_dir):
        _touch(bench_dir, "BENCH_2025-12-25.json", "BENCH_2025-12-25_3.json")
        assert bench_run._default_out_path(DATE, "") == f"BENCH_{DATE}.json"

    def test_non_numeric_decorations_do_not_count(self, bench_dir):
        _touch(bench_dir, f"BENCH_{DATE}_backup.json", f"BENCH_{DATE}.json.bak")
        assert bench_run._default_out_path(DATE, "") == f"BENCH_{DATE}.json"


class TestStreamSchema:
    def test_envelope_fields(self):
        sweep = {"variants": [], "shapes": []}
        meta = {"cpu_count": 1, "k": 8, "seed": 0, "ticks": 24, "rate": 8,
                "repeats": 1}
        payload = bench_run.stream_payload(sweep, strict=False, metadata=meta)
        assert payload["schema"] == "repro-bench-stream/2"
        assert set(payload) == {
            "schema", "date", "python", "numpy", "strict", "metadata",
            "stream",
        }
        assert payload["strict"] is False
        assert payload["metadata"] == meta
        assert payload["stream"] is sweep

    def test_shape_rows_carry_the_frontier(self):
        """The per-shape contract consumers of the stream file rely on:
        a tiny real sweep has the pinned keys in every row."""
        sweep = bench_run.run_stream_sweep(
            ["uniform"], k=4, seed=0, ticks=4, rate=3, repeats=1
        )
        assert sweep["variants"] == [{"coalesced": False}, {"coalesced": True}]
        (shape,) = sweep["shapes"]
        assert {
            "shape", "k", "seed", "ticks", "rate", "admitted",
            "oracle_digest", "digest_parity", "speedup_coalesced",
            "runs", "frontier",
        } <= set(shape)
        assert shape["digest_parity"] is True
        for point in shape["frontier"]:
            assert {
                "shape", "coalesced", "updates_per_s",
                "p50_ticks", "p99_ticks", "rounds_per_update",
                "shipped_fraction",
            } <= set(point)
