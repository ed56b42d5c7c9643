"""Hard disk drive model: timing and split 5V/12V power rails.

Reproduces the behaviour behind the paper's Section 3.5 and Figure 5:

* Sequential reads run at a constant transfer rate, so throughput and
  energy-per-KB are flat in the read block size.
* Random reads pay a per-operation overhead (seek + rotational latency)
  plus a per-KB random-mode transfer cost, so throughput rises with block
  size but *sub-proportionally* -- the paper measures ~1.88x / ~3.5x /
  ~6x for 8/16/32 KB blocks over 4 KB, not the ideal 2x / 4x / 8x.
* Power is drawn on two lines, 5 V (electronics) and 12 V (spindle and
  actuator), which the paper measures with current probes; energy per KB
  tracks 1/throughput because active power is roughly constant.

Defaults are calibrated so the Sec. 3.5 Joule figures land: ~4.4 W
average with light warm-run activity and ~7.3 W averaged over a cold run.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class DiskSpec:
    """Static description of the drive (WD Caviar SE16-like defaults).

    Timing: ``seq_rate_bps`` is the sustained sequential rate;
    ``random_overhead_s`` is average seek + rotational latency per random
    operation; ``random_per_kb_s`` is the calibrated per-KB cost in
    random mode (head settle, cache-bypass transfer), responsible for the
    sub-proportional block-size scaling of Fig. 5.

    Power: idle and active draws per rail.  The 5 V rail powers the
    electronics (roughly constant); the 12 V rail powers the spindle
    (constant) and the actuator (active only while seeking).
    """

    capacity_bytes: float = 320e9
    seq_rate_bps: float = 72e6
    random_overhead_s: float = 12.9e-3
    random_per_kb_s: float = 0.22e-3
    #: the per-KB random settle cost applies only to the head of each
    #: operation; beyond this size the transfer runs at the sequential
    #: rate.  This reproduces Fig. 5's sub-proportional small-block
    #: scaling without making large chunked reads absurdly slow.
    random_per_kb_cap_bytes: float = 64 * 1024
    write_penalty: float = 1.05

    idle_5v_w: float = 1.4
    idle_12v_w: float = 2.6
    active_5v_w: float = 2.6
    active_12v_w: float = 6.0

    def __post_init__(self) -> None:
        if self.seq_rate_bps <= 0:
            raise ValueError("seq_rate_bps must be positive")
        if self.random_overhead_s < 0 or self.random_per_kb_s < 0:
            raise ValueError("random costs must be non-negative")
        for value in (
            self.idle_5v_w, self.idle_12v_w,
            self.active_5v_w, self.active_12v_w,
        ):
            if value < 0:
                raise ValueError("power terms must be non-negative")

    @property
    def idle_power_w(self) -> float:
        return self.idle_5v_w + self.idle_12v_w

    @property
    def active_power_w(self) -> float:
        return self.active_5v_w + self.active_12v_w


@dataclass(frozen=True)
class DiskEnergy:
    """Energy drawn on each rail over some window (paper's probe setup)."""

    joules_5v: float
    joules_12v: float

    @property
    def total_joules(self) -> float:
        return self.joules_5v + self.joules_12v

    def __add__(self, other: "DiskEnergy") -> "DiskEnergy":
        return DiskEnergy(
            self.joules_5v + other.joules_5v,
            self.joules_12v + other.joules_12v,
        )


ZERO_DISK_ENERGY = DiskEnergy(0.0, 0.0)


class Disk:
    """A drive instance: converts access batches to wall time."""

    def __init__(self, spec: DiskSpec | None = None):
        self.spec = spec if spec is not None else DiskSpec()

    # -- timing ------------------------------------------------------

    def sequential_time_s(self, bytes_total: float) -> float:
        """Wall time to stream ``bytes_total`` sequentially."""
        if bytes_total < 0:
            raise ValueError("bytes_total must be non-negative")
        return bytes_total / self.spec.seq_rate_bps

    def random_time_s(self, num_ops: int, bytes_total: float) -> float:
        """Wall time for ``num_ops`` random reads totalling ``bytes_total``.

        Per op: seek + rotational overhead, a settle cost proportional to
        the first ``random_per_kb_cap_bytes`` of the block, then
        sequential-rate transfer for the remainder.
        """
        if num_ops < 0 or bytes_total < 0:
            raise ValueError("ops/bytes must be non-negative")
        if num_ops == 0:
            return 0.0
        avg_block = bytes_total / num_ops
        settled = min(avg_block, self.spec.random_per_kb_cap_bytes)
        per_op = (
            self.spec.random_overhead_s
            + self.spec.random_per_kb_s * (settled / 1024.0)
        )
        return num_ops * per_op + bytes_total / self.spec.seq_rate_bps

    def access_times_s(self, num_ops, bytes_total, sequential, write):
        """Wall time of each disk segment, over parallel numpy arrays.

        Sequential segments stream at :meth:`sequential_time_s`'s rate,
        random ones pay :meth:`random_time_s`'s per-operation costs, and
        writes pay ``write_penalty`` on top; used by trace playback.
        """
        import numpy as np

        num_ops = np.asarray(num_ops, dtype=np.float64)
        bytes_total = np.asarray(bytes_total, dtype=np.float64)
        seq_time = bytes_total / self.spec.seq_rate_bps
        with np.errstate(divide="ignore", invalid="ignore"):
            avg_block = np.where(num_ops > 0, bytes_total / np.maximum(num_ops, 1), 0.0)
        settled = np.minimum(avg_block, self.spec.random_per_kb_cap_bytes)
        per_op = (
            self.spec.random_overhead_s
            + self.spec.random_per_kb_s * (settled / 1024.0)
        )
        rand_time = np.where(
            num_ops > 0, num_ops * per_op + seq_time, 0.0
        )
        times = np.where(np.asarray(sequential, dtype=bool),
                         seq_time, rand_time)
        return np.where(np.asarray(write, dtype=bool),
                        times * self.spec.write_penalty, times)

    # -- Figure 5 primitives ------------------------------------------

    def throughput_bps(self, block_bytes: int, sequential: bool,
                       total_bytes: float = 1.6e9) -> float:
        """Data throughput reading ``total_bytes`` in ``block_bytes`` calls.

        The Fig. 5 microbenchmark: same total volume, varying read size.
        """
        if block_bytes <= 0:
            raise ValueError("block_bytes must be positive")
        num_ops = int(total_bytes // block_bytes)
        moved = num_ops * block_bytes
        if sequential:
            time_s = self.sequential_time_s(moved)
        else:
            time_s = self.random_time_s(num_ops, moved)
        return moved / time_s

    def energy_per_kb(self, block_bytes: int, sequential: bool,
                      total_bytes: float = 1.6e9) -> float:
        """Joules per KB retrieved for the Fig. 5(b) series."""
        rate = self.throughput_bps(block_bytes, sequential, total_bytes)
        # Active power is constant while the access pattern runs, so
        # energy per byte is power / throughput.
        return self.spec.active_power_w / rate * 1024.0
