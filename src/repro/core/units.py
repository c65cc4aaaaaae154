"""Units and conversions used throughout the model.

The paper quotes sizes in KB/MB/GB, bandwidths in Kbit/s and Mbit/s, and
times in minutes and hours.  Internally the library uses a single canonical
unit for each dimension:

* **time** — seconds (float), measured from the start of the scheduling
  horizon (t = 0);
* **size** — bytes (float; values are large enough that float rounding is
  irrelevant at the modelled granularity);
* **bandwidth** — bytes per second.

The helpers below exist so scenario-construction code can speak the paper's
units (``megabits_per_second(1.5)``) while the model itself stays unit-free.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Time
# ---------------------------------------------------------------------------

SECOND: float = 1.0
MINUTE: float = 60.0
HOUR: float = 3600.0
DAY: float = 24 * HOUR


def minutes(value: float) -> float:
    """Convert minutes to canonical seconds."""
    return value * MINUTE


def hours(value: float) -> float:
    """Convert hours to canonical seconds."""
    return value * HOUR


def days(value: float) -> float:
    """Convert days to canonical seconds."""
    return value * DAY


# ---------------------------------------------------------------------------
# Size (the paper uses decimal K/M/G, as was conventional for link budgets)
# ---------------------------------------------------------------------------

BYTE: float = 1.0
KILOBYTE: float = 1_000.0
MEGABYTE: float = 1_000_000.0
GIGABYTE: float = 1_000_000_000.0


def kilobytes(value: float) -> float:
    """Convert kilobytes (decimal) to canonical bytes."""
    return value * KILOBYTE


def megabytes(value: float) -> float:
    """Convert megabytes (decimal) to canonical bytes."""
    return value * MEGABYTE


def gigabytes(value: float) -> float:
    """Convert gigabytes (decimal) to canonical bytes."""
    return value * GIGABYTE


# ---------------------------------------------------------------------------
# Comparators
# ---------------------------------------------------------------------------
#
# The model's times are floats produced by chains of arithmetic; the
# scheduler's invariants (booking identity, breakpoint splitting, event
# grouping) rely on *exact* equality of values that were computed by the
# same expression, never on "close enough".  Raw ``==`` at a call site
# cannot distinguish the two readings, so rule R2 of
# ``tests/test_source_rules.py`` bans it on time/bandwidth expressions
# and requires these named comparators instead: ``time_eq`` documents the
# identical-computation contract, ``times_close`` documents a tolerance.
# ``duration_is_zero`` is the one comparator R2's name heuristic flags;
# that test's ``ALLOWED`` lists it by function name.

#: Tolerance for *approximate* time comparisons (analysis/reporting
#: only — scheduling decisions must use the exact comparators).
TIME_EPSILON: float = 1e-9


def time_eq(a: float, b: float) -> bool:
    """Exact equality of two canonical times.

    Both operands must originate from the *identical* computation (a
    stored breakpoint compared against the key it was inserted under, an
    event timestamp compared against the group timestamp it was read
    from).  For values produced by different arithmetic, use
    :func:`times_close`.
    """
    return a == b


def time_ne(a: float, b: float) -> bool:
    """Exact inequality of two canonical times (see :func:`time_eq`)."""
    return a != b


def times_close(a: float, b: float, tolerance: float = TIME_EPSILON) -> bool:
    """True when two times differ by at most ``tolerance`` seconds.

    For comparing times produced by *different* computations (analysis,
    assertions in tests, report thresholds).  Never use this to decide a
    booking — a tolerance there would make feasibility depend on float
    noise and break byte-identical replay.
    """
    return abs(a - b) <= tolerance


def duration_is_zero(duration: float) -> bool:
    """True for a zero-length duration (e.g. an empty booking)."""
    return duration == 0.0


def size_is_zero(size_bytes: float) -> bool:
    """True for a zero-byte size (e.g. a no-op capacity reservation)."""
    return size_bytes == 0.0


def bandwidth_eq(a: float, b: float) -> bool:
    """Exact equality of two bandwidths (see :func:`time_eq`)."""
    return a == b


# ---------------------------------------------------------------------------
# Bandwidth
# ---------------------------------------------------------------------------

BITS_PER_BYTE: float = 8.0


def kilobits_per_second(value: float) -> float:
    """Convert Kbit/s to canonical bytes/second."""
    return value * 1_000.0 / BITS_PER_BYTE


def megabits_per_second(value: float) -> float:
    """Convert Mbit/s to canonical bytes/second."""
    return value * 1_000_000.0 / BITS_PER_BYTE


def transfer_seconds(size_bytes: float, bandwidth_bytes_per_s: float) -> float:
    """Pure transmission time for ``size_bytes`` at the given bandwidth.

    This is the ``|d| / bandwidth`` term of the paper's ``D[i,j][k](|d|)``
    communication time; per-link latency is added by the caller.

    Raises:
        ValueError: if either argument is non-positive where it must not be.
    """
    if size_bytes < 0:
        raise ValueError(f"data size must be non-negative, got {size_bytes}")
    if bandwidth_bytes_per_s <= 0:
        raise ValueError(
            f"bandwidth must be positive, got {bandwidth_bytes_per_s}"
        )
    return size_bytes / bandwidth_bytes_per_s


def format_size(size_bytes: float) -> str:
    """Human-readable rendering of a byte count (for reports and repr)."""
    if size_bytes >= GIGABYTE:
        return f"{size_bytes / GIGABYTE:.2f}GB"
    if size_bytes >= MEGABYTE:
        return f"{size_bytes / MEGABYTE:.2f}MB"
    if size_bytes >= KILOBYTE:
        return f"{size_bytes / KILOBYTE:.2f}KB"
    return f"{size_bytes:.0f}B"


def format_time(seconds: float) -> str:
    """Human-readable rendering of a time offset (for reports and repr)."""
    if time_eq(seconds, float("inf")):
        return "inf"
    if seconds >= HOUR:
        return f"{seconds / HOUR:.2f}h"
    if seconds >= MINUTE:
        return f"{seconds / MINUTE:.2f}min"
    return f"{seconds:.2f}s"
