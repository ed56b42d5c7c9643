"""The columnar ``ArrivalStream``: sequence contract, input hardening,
and bit-identity of every generator against the per-draw loops kept in
``reference_arrivals.py``."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import repro
import repro.workloads
from reference_arrivals import (
    bursty_reference,
    merge_reference,
    poisson_reference,
    rate_schedule_reference,
    uniform_reference,
)
from repro.workloads.arrivals import (
    Arrival,
    ArrivalStream,
    bursty_arrivals,
    diurnal_schedule,
    merge_arrivals,
    piecewise_schedule,
    poisson_arrivals,
    ramp_arrivals,
    ramp_schedule,
    rate_schedule_arrivals,
    uniform_arrivals,
)

QUERIES = [f"SELECT {i % 7} FROM t WHERE a = {i % 7}" for i in range(40)]
SEEDS = (0, 1, 7, 31337)
STARTS = (0.0, 3.7)


def _identical(stream: ArrivalStream, reference: list[Arrival]) -> bool:
    """Float ``==`` on every time, ``==`` on every statement."""
    return (
        isinstance(stream, ArrivalStream)
        and stream.times.tolist() == [a.time_s for a in reference]
        and [a.sql for a in stream] == [a.sql for a in reference]
    )


class TestSequenceContract:
    def test_exported_from_the_packages(self):
        assert repro.ArrivalStream is ArrivalStream
        assert repro.workloads.ArrivalStream is ArrivalStream

    def test_len_index_slice_iterate(self):
        stream = uniform_arrivals(QUERIES[:5], 1.0)
        assert len(stream) == 5
        assert stream[0] == Arrival(QUERIES[0], 1.0)
        assert stream[-1] == Arrival(QUERIES[4], 5.0)
        assert list(stream) == [stream[i] for i in range(5)]
        assert isinstance(stream[1:3], ArrivalStream)
        assert stream[1:3] == [stream[1], stream[2]]
        assert stream[::2] == [stream[0], stream[2], stream[4]]
        assert stream[3] in stream
        assert stream.index(stream[3]) == 3
        with pytest.raises(IndexError):
            stream[5]

    def test_equality_and_concatenation(self):
        a = uniform_arrivals(QUERIES[:3], 1.0)
        b = uniform_arrivals(QUERIES[3:6], 1.0, start_s=3.0)
        assert a == list(a) and list(a) == a and a == tuple(a)
        assert a == uniform_arrivals(QUERIES[:3], 1.0)
        assert a != b and a != list(b) and a != list(a)[:2]
        assert a != "abc" and a != 3
        assert a + b == list(a) + list(b)
        # Same arrivals over a differently ordered statement table.
        assert ArrivalStream(a.times, [2, 1, 0], a.distinct) != a
        recoded = ArrivalStream(
            a.times, [2 - i for i in a.sql_idx.tolist()], a.distinct[::-1]
        )
        assert recoded == a

    def test_empty_stream(self):
        empty = ArrivalStream((), (), ())
        assert len(empty) == 0 and empty == [] and list(empty) == []
        assert not empty
        assert empty.in_time_order() is empty
        assert ArrivalStream.coerce([]) == empty

    def test_coerce_roundtrip_and_identity(self):
        stream = poisson_arrivals(QUERIES, 0.5, seed=3)
        assert ArrivalStream.coerce(stream) is stream
        rebuilt = ArrivalStream.coerce(list(stream))
        assert rebuilt == stream
        assert np.array_equal(rebuilt.times, stream.times)

    def test_in_time_order_is_stable_and_canonical(self):
        stream = ArrivalStream(
            [2.0, 1.0, 2.0, 1.0], [0, 1, 2, 0], ["a", "b", "c", "unused"]
        )
        ordered = stream.in_time_order()
        assert [(a.sql, a.time_s) for a in ordered] == [
            ("b", 1.0), ("a", 1.0), ("a", 2.0), ("c", 2.0),
        ]
        # Statement table: exactly what occurs, in first-arrival order.
        assert ordered.distinct == ("b", "a", "c")
        assert ordered.in_time_order() is ordered

    def test_first_seen_finds_a_late_statement(self):
        codes = [0] * 500 + [1]
        stream = ArrivalStream(np.arange(501.0), codes, ["a", "b", "c"])
        assert stream.first_seen().tolist() == [0, 1]


class TestInputHardening:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.5])
    def test_bad_time_names_the_first_offender(self, bad):
        with pytest.raises(ValueError, match=r"arrival #2 has time_s"):
            ArrivalStream([0.0, 1.0, bad, bad], [0, 0, 0, 0], ["q"])
        with pytest.raises(ValueError, match=r"arrival #1 has time_s"):
            ArrivalStream.coerce([Arrival("q", 0.0), Arrival("q", bad)])

    def test_non_str_sql_rejected(self):
        with pytest.raises(ValueError, match=r"arrival #1 has non-str SQL"):
            ArrivalStream([0.0, 1.0], [0, 1], ["q", 42])
        with pytest.raises(ValueError, match=r"arrival #1 has non-str SQL"):
            ArrivalStream.coerce([Arrival("q", 0.0), Arrival(None, 1.0)])
        with pytest.raises(ValueError, match=r"arrival #0 has non-str SQL"):
            poisson_arrivals([b"SELECT 1"], 1.0)
        with pytest.raises(ValueError, match=r"queries\[1\] is not a str"):
            poisson_arrivals(["q", ["unhashable"]], 1.0)

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError, match="differ in shape"):
            ArrivalStream([0.0, 1.0], [0], ["q"])
        with pytest.raises(ValueError, match="differ in shape"):
            ArrivalStream([[0.0, 1.0]], [[0, 0]], ["q"])
        with pytest.raises(ValueError, match="arrival #1 has statement code"):
            ArrivalStream([0.0, 1.0], [0, 1], ["q"])
        with pytest.raises(ValueError, match="must be unique"):
            ArrivalStream([0.0], [0], ["q", "q"])
        with pytest.raises(ValueError, match="not numeric"):
            ArrivalStream(["soon"], [0], ["q"])

    def test_non_arrival_objects_rejected(self):
        with pytest.raises(ValueError, match="arrival #1 is not an Arrival"):
            ArrivalStream.coerce([Arrival("q", 0.0), ("q", 1.0)])

    def test_generator_contract_survives_python_O(self):
        """The unsorted-stream check is a real ``raise``: it must fire
        with asserts compiled out."""
        code = (
            "import numpy as np\n"
            "from repro.workloads.arrivals import _finalize\n"
            "assert False, 'asserts are live: -O did not take'\n"
            "try:\n"
            "    _finalize(np.array([2.0, 1.0]), np.array([0, 0]),"
            " ('q',), 0.0)\n"
            "except ValueError as exc:\n"
            "    print('rejected:', exc)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
        done = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "rejected: generator produced an unsorted stream" in done.stdout

    def test_generator_contract_rejects_early_arrivals(self):
        from repro.workloads.arrivals import _finalize

        with pytest.raises(ValueError, match="before start_s"):
            _finalize(np.array([1.0]), np.array([0]), ("q",), 2.0)

    def test_nan_interarrival_rejected(self):
        with pytest.raises(ValueError, match="arrival #0 has time_s"):
            poisson_arrivals(QUERIES, float("nan"))
        with pytest.raises(ValueError, match="arrival #0 has time_s"):
            uniform_arrivals(QUERIES, float("inf"))


class TestGeneratorIdentity:
    """Columnar generators == the per-draw loops, float for float."""

    @pytest.mark.parametrize("start_s", STARTS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_poisson(self, seed, start_s):
        assert _identical(
            poisson_arrivals(QUERIES, 0.05, seed=seed, start_s=start_s),
            poisson_reference(QUERIES, 0.05, seed=seed, start_s=start_s),
        )

    @pytest.mark.parametrize("start_s", STARTS)
    def test_uniform_and_bursty(self, start_s):
        assert _identical(
            uniform_arrivals(QUERIES, 0.1, start_s=start_s),
            uniform_reference(QUERIES, 0.1, start_s=start_s),
        )
        for burst in (1, 3, 40, 100):
            assert _identical(
                bursty_arrivals(QUERIES, burst, 0.7, 0.013,
                                start_s=start_s),
                bursty_reference(QUERIES, burst, 0.7, 0.013,
                                 start_s=start_s),
            )

    @pytest.mark.parametrize("start_s", STARTS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_thinning_generators(self, seed, start_s):
        schedules = {
            "diurnal": diurnal_schedule(1.0, 12.0, 20.0, 40.0),
            "ramp": ramp_schedule(0.5, 9.0, 30.0),
            "piecewise": piecewise_schedule([(5, 1.0), (5, 20.0), (5, 0.0)]),
        }
        for schedule in schedules.values():
            assert _identical(
                rate_schedule_arrivals(QUERIES[:9], schedule, seed=seed,
                                       start_s=start_s),
                rate_schedule_reference(QUERIES[:9], schedule, seed=seed,
                                        start_s=start_s),
            )
        assert _identical(
            ramp_arrivals(QUERIES, 0.5, 9.0, 30.0, seed=seed,
                          start_s=start_s),
            rate_schedule_reference(QUERIES, schedules["ramp"], seed=seed,
                                    start_s=start_s),
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_shared_rng_is_left_in_the_same_state(self, seed):
        """A fault plan sharing the generator draws its outcomes after
        the arrivals: the sized draw must consume ``rng`` exactly as
        the scalar draws did, for every generator in sequence."""
        schedule = ramp_schedule(0.5, 9.0, 30.0)
        mine, theirs = (np.random.default_rng(seed) for _ in range(2))
        assert _identical(
            poisson_arrivals(QUERIES, 0.05, start_s=3.7, rng=mine),
            poisson_reference(QUERIES, 0.05, start_s=3.7, rng=theirs),
        )
        assert _identical(
            rate_schedule_arrivals(QUERIES, schedule, rng=mine),
            rate_schedule_reference(QUERIES, schedule, rng=theirs),
        )
        assert mine.bit_generator.state == theirs.bit_generator.state
        assert mine.uniform() == theirs.uniform()


@st.composite
def _sorted_streams(draw):
    """A few sorted streams with plenty of cross-stream ties, each
    handed over as a stream or as a plain list."""
    streams = []
    for s in range(draw(st.integers(min_value=0, max_value=4))):
        times = sorted(draw(st.lists(
            st.integers(min_value=0, max_value=6), max_size=8
        )))
        arrivals = [
            Arrival(f"s{s}q{i % 3}", float(t)) for i, t in enumerate(times)
        ]
        as_stream = draw(st.booleans())
        streams.append(
            ArrivalStream.coerce(arrivals) if as_stream else arrivals
        )
    return streams


class TestMergeAgainstHeapq:
    @given(streams=_sorted_streams())
    def test_merge_equals_heapq_reference(self, streams):
        merged = merge_arrivals(*streams)
        assert isinstance(merged, ArrivalStream)
        assert list(merged) == merge_reference(*map(list, streams))

    def test_unsorted_stream_keeps_its_error(self):
        good = uniform_arrivals(QUERIES[:3], 1.0)
        with pytest.raises(
            ValueError, match="each stream must be sorted by time_s"
        ):
            merge_arrivals(good, good[::-1])
