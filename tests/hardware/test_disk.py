"""Disk model: timing, rails, and the Figure 5 microbenchmark."""

import pytest
from hypothesis import given, strategies as st

from repro.hardware.disk import Disk, DiskEnergy, DiskSpec


@pytest.fixture()
def disk():
    return Disk()


class TestSequential:
    def test_rate(self, disk):
        assert disk.sequential_time_s(72e6) == pytest.approx(1.0)

    def test_zero_bytes(self, disk):
        assert disk.sequential_time_s(0) == 0.0

    def test_negative_rejected(self, disk):
        with pytest.raises(ValueError):
            disk.sequential_time_s(-1)

    def test_throughput_flat_in_block_size(self, disk):
        """Fig. 5(a): sequential throughput constant regardless of block."""
        rates = [
            disk.throughput_bps(b, sequential=True)
            for b in (4096, 8192, 16384, 32768)
        ]
        assert max(rates) - min(rates) < 1e-6 * rates[0]


class TestRandom:
    def test_per_op_overhead_dominates_small_blocks(self, disk):
        t1 = disk.random_time_s(1, 4096)
        t2 = disk.random_time_s(2, 8192)
        assert t2 == pytest.approx(2 * t1, rel=1e-9)

    def test_monotone_in_ops(self, disk):
        assert disk.random_time_s(10, 40960) < disk.random_time_s(20, 81920)

    def test_random_much_slower_than_sequential(self, disk):
        seq = disk.throughput_bps(4096, sequential=True)
        rand = disk.throughput_bps(4096, sequential=False)
        assert rand < seq / 50

    def test_improvement_factors_match_paper(self, disk):
        """Fig. 5: 8/16/32 KB improve ~1.88x / ~3.5x / ~6x over 4 KB."""
        base = disk.throughput_bps(4096, sequential=False)
        for block, expected in ((8192, 1.88), (16384, 3.5), (32768, 6.0)):
            factor = disk.throughput_bps(block, sequential=False) / base
            assert factor == pytest.approx(expected, rel=0.12)

    def test_subproportional_scaling(self, disk):
        """Doubling the block size less than doubles throughput."""
        for block in (4096, 8192, 16384):
            small = disk.throughput_bps(block, sequential=False)
            large = disk.throughput_bps(2 * block, sequential=False)
            assert small < large < 2 * small

    @given(ops=st.integers(min_value=1, max_value=10_000))
    def test_time_positive(self, ops):
        disk = Disk()
        assert disk.random_time_s(ops, ops * 4096) > 0


class TestEnergy:
    def test_rails_sum(self):
        energy = DiskEnergy(2.0, 3.0)
        assert energy.total_joules == 5.0
        combined = energy + DiskEnergy(1.0, 1.0)
        assert combined.joules_5v == 3.0
        assert combined.joules_12v == 4.0

    def test_active_exceeds_idle(self, disk):
        assert disk.spec.active_power_w > disk.spec.idle_power_w

    def test_energy_per_kb_tracks_inverse_throughput(self, disk):
        """Fig. 5(b): energy per KB ~ power / throughput."""
        for block in (4096, 32768):
            rate = disk.throughput_bps(block, sequential=False)
            e_kb = disk.energy_per_kb(block, sequential=False)
            assert e_kb == pytest.approx(
                disk.spec.active_power_w / rate * 1024
            )

    def test_sequential_energy_per_kb_flat(self, disk):
        values = [
            disk.energy_per_kb(b, sequential=True)
            for b in (4096, 8192, 16384, 32768)
        ]
        assert max(values) == pytest.approx(min(values))

    def test_sequential_more_efficient_than_random(self, disk):
        """Paper: sequential is more energy efficient per KB --
        primarily because it is faster."""
        assert (
            disk.energy_per_kb(4096, sequential=True)
            < disk.energy_per_kb(4096, sequential=False) / 10
        )


class TestAccessSegments:
    def test_write_penalty(self, disk):
        read, write = disk.access_times_s(
            [1, 1], [1e6, 1e6], sequential=[True, True], write=[False, True]
        )
        assert write == pytest.approx(read * disk.spec.write_penalty)

    def test_segment_times_match_the_scalar_formulas(self, disk):
        seq, rand = disk.access_times_s(
            [3, 120], [2e8, 7.5e7], sequential=[True, False],
            write=[False, False],
        )
        assert seq == pytest.approx(disk.sequential_time_s(2e8), rel=1e-12)
        assert rand == pytest.approx(disk.random_time_s(120, 7.5e7),
                                     rel=1e-12)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            DiskSpec(seq_rate_bps=0)
        with pytest.raises(ValueError):
            DiskSpec(idle_5v_w=-1)

    def test_warm_run_power_magnitude(self, disk):
        """Idle draw ~4 W: the Sec. 3.5 warm run averages 4.43 W."""
        assert 3.5 < disk.spec.idle_power_w < 4.5
        assert 8.0 < disk.spec.active_power_w < 9.5
