"""Unit tests for the size-or-deadline cut rule."""

from repro.stream import DEADLINE_TICKS, cut_reason


class TestCutReason:
    def test_cuts_on_size_at_full_batch(self):
        assert cut_reason(queue_depth=7, oldest_age=0, capacity=8) is None
        assert cut_reason(queue_depth=8, oldest_age=0, capacity=8) == "size"
        assert cut_reason(queue_depth=20, oldest_age=0, capacity=8) == "size"

    def test_full_batch_wins_over_deadline(self):
        assert cut_reason(8, DEADLINE_TICKS + 1, 8) == "size"

    def test_deadline_fires_on_stale_partial_batch(self):
        assert cut_reason(3, DEADLINE_TICKS - 1, 8) is None
        assert cut_reason(3, DEADLINE_TICKS, 8) == "deadline"

    def test_empty_queue_never_cuts(self):
        assert cut_reason(0, 50, 8) is None
