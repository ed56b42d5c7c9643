"""Measurement: instruments, reporting, ablation scenarios and gates."""

from repro.measurement.meter import InstrumentPanel, InstrumentedReading
from repro.measurement.report import ComparisonRow, ComparisonTable

__all__ = [
    "ComparisonRow",
    "ComparisonTable",
    "InstrumentPanel",
    "InstrumentedReading",
]
