"""Measurement-method study: the EPU's 1 Hz GUI sampling.

The paper acknowledges drawbacks of sampling the 6-Engine GUI once per
second and mitigates them by using many-minute workloads and a 5-run
trimmed mean.  This bench quantifies the sampling estimator's error as
workload duration grows, confirming the mitigation works.
"""

from repro.hardware.sensors import EpuSensor
from repro.hardware.system import CPU_BOUND
from repro.hardware.trace import CpuWork, Idle, Trace
from repro.measurement.report import ComparisonTable


def run_sampling_study(sut):
    sensor = EpuSensor()
    errors = {}
    # Irregular bursty work so burst edges do not alias with the 1 Hz
    # sampling grid (real workloads are similarly aperiodic).
    unit = [
        CpuWork(2.4e9, 1.0), Idle(0.45),
        CpuWork(4.1e9, 1.0), Idle(0.23),
        CpuWork(0.9e9, 1.0), Idle(0.61),
        CpuWork(3.3e9, 1.0), Idle(0.17),
    ]
    for repeats in (1, 4, 16, 64):
        run = sut.run_compiled(Trace(unit * repeats), CPU_BOUND,
            with_timeline=True)
        errors[run.duration_s] = abs(sensor.sampling_error(run))
    return errors


def test_epu_sampling_error_shrinks_with_duration(benchmark,
                                                  mysql_runner):
    errors = benchmark.pedantic(
        run_sampling_study, args=(mysql_runner.sut,),
        rounds=1, iterations=1,
    )
    table = ComparisonTable(
        "EPU 1 Hz sampling: |error| vs workload duration"
    )
    for duration, error in errors.items():
        table.add(f"duration {duration:6.1f}s", None, error)
    table.print()

    durations = sorted(errors)
    # Short bursty runs can be badly misread; many-minute workloads
    # (the paper's setup) are measured to within a few percent.
    assert errors[durations[-1]] < 0.05
    assert errors[durations[-1]] <= errors[durations[0]]
