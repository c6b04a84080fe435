"""Unit tests for the struct-of-arrays trace columns (batched kernel)."""

from repro.sim.soa import TraceColumns, _COLUMN_MEMO, trace_columns, trace_key
from repro.workloads.benchmarks import trace_for

LINE_BYTES = 64


class TestTraceColumns:
    def test_columns_match_iterator_replay(self):
        trace = trace_for("mcf", seed=9)
        columns = trace_columns(trace, LINE_BYTES)
        assert columns is not None
        events = list(iter(trace))
        assert columns.length == len(events)
        shift = LINE_BYTES.bit_length() - 1
        for index, event in enumerate(events):
            assert columns.works[index] == event[0]
            assert columns.addrs[index] == event[1]
            assert columns.iswrites[index] == bool(event[2])
            assert columns.lines[index] == event[1] >> shift

    def test_rows_zip_the_columns(self):
        columns = trace_columns(trace_for("omnetpp", seed=9), LINE_BYTES)
        assert len(columns.rows) == columns.length
        for index, (work, addr, is_write, line) in enumerate(columns.rows):
            assert work == columns.works[index]
            assert addr == columns.addrs[index]
            assert is_write == columns.iswrites[index]
            assert line == columns.lines[index]

    def test_columns_hold_plain_python_scalars(self):
        # np.int64 leaking into requests would poison fingerprints and
        # JSON documents downstream; the columns must be plain ints/bools.
        columns = trace_columns(trace_for("mcf", seed=9), LINE_BYTES)
        assert type(columns.works[0]) is int
        assert type(columns.addrs[0]) is int
        assert type(columns.iswrites[0]) is bool
        assert type(columns.lines[0]) is int

    def test_non_power_of_two_line_size_falls_back(self):
        assert trace_columns(trace_for("mcf", seed=9), 48) is None
        assert trace_columns(trace_for("mcf", seed=9), 0) is None

    def test_unmaterialisable_trace_falls_back(self):
        assert trace_columns(object(), LINE_BYTES) is None

    def test_memoized_per_profile_seed(self):
        a = trace_columns(trace_for("mcf", seed=9), LINE_BYTES)
        b = trace_columns(trace_for("mcf", seed=9), LINE_BYTES)
        assert a is b
        c = trace_columns(trace_for("mcf", seed=10), LINE_BYTES)
        assert c is not a

    def test_memo_stays_bounded(self):
        before = len(_COLUMN_MEMO)
        for seed in range(3):
            trace_columns(trace_for("mcf", seed=1000 + seed), LINE_BYTES)
        assert len(_COLUMN_MEMO) <= 64
        assert len(_COLUMN_MEMO) >= min(before, 61)

    def test_trace_key_requires_profile_and_seed(self):
        assert trace_key(object()) is None
        assert trace_key(trace_for("mcf", seed=9)) is not None
