"""Page-level bookkeeping for the disk storage engine."""

from __future__ import annotations

PAGE_SIZE_BYTES = 8192

#: Miss runs at least this long are read with sequential transfers;
#: shorter runs pay a random access (seek + rotation).
SEQUENTIAL_RUN_BYTES = 128 * 1024


def pages_for(row_count: int, row_width_bytes: int) -> int:
    """Number of pages a row-store table of this shape occupies."""
    if row_count < 0 or row_width_bytes <= 0:
        raise ValueError("row_count >= 0 and row_width_bytes > 0 required")
    if row_count == 0:
        return 0
    rows_per_page = max(1, PAGE_SIZE_BYTES // row_width_bytes)
    return -(-row_count // rows_per_page)  # ceil division
