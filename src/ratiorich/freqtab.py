"""Frequency-count tables: ingestion, validation, and summaries.

A frequency-count table records, for each count value j, the number of taxa
observed exactly j times (f_j). All richness estimation in this package
starts from such a table; raw per-taxon abundances reduce to one losslessly.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence

__all__ = [
    "FrequencyCountTable",
    "InsufficientDataError",
    "MIN_RATIO_POINTS",
    "parse_frequency_table",
    "parse_abundance_vector",
    "from_abundances",
    "observed_richness",
    "tail_cutoff",
    "serialize_frequency_table",
    "expand_to_abundances",
]

# Ratio fitting needs at least this many usable points; below it the largest
# admissible model has no residual degrees of freedom left.
MIN_RATIO_POINTS = 4


class InsufficientDataError(ValueError):
    """The usable run of nonzero frequencies is too short to fit on."""


@dataclass(frozen=True)
class FrequencyCountTable:
    """Sparse map from count value j to the number of taxa seen exactly j times.

    Entries are (j, f_j) pairs sorted by j. Zero frequencies are never stored;
    absence of a count value means f_j = 0. A lookup dict built once at
    construction backs get and tail_cutoff; it is not a field, so equality,
    hashing and repr see the entries alone.
    """

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("empty frequency table")
        prev = 0
        for j, f in self.entries:
            if j < 1:
                raise ValueError(f"count value must be >= 1, got {j}")
            if j <= prev:
                raise ValueError(f"count values must be distinct and increasing (j={j})")
            if f < 1:
                raise ValueError(f"frequency f_{j} must be >= 1, got {f}")
            prev = j
        object.__setattr__(self, "_lookup", dict(self.entries))

    @classmethod
    def from_counts(cls, counts: dict[int, int]) -> "FrequencyCountTable":
        return cls(tuple(sorted((int(j), int(f)) for j, f in counts.items())))

    def get(self, j: int) -> int:
        """f_j, or 0 when no taxa were observed exactly j times."""
        return self._lookup.get(j, 0)

    @property
    def counts(self) -> dict[int, int]:
        return dict(self.entries)

    @property
    def max_count(self) -> int:
        return self.entries[-1][0]


def _data_lines(text: str) -> Iterator[tuple[int, str, list[str]]]:
    """(line number, stripped line, fields) for each line that is not blank or a '#' comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line, line.replace(",", " ").split()


def parse_frequency_table(text: str) -> FrequencyCountTable:
    """Parse two-column "j f_j" text (tab, comma, or whitespace separated).

    Blank lines and lines starting with '#' are ignored. A leading header row
    with alphabetic fields is skipped with a warning. Zero-frequency rows are
    dropped with a warning; duplicate count values, negative fields, and
    non-integer fields are rejected with their line number.
    """
    counts: dict[int, int] = {}
    seen: set[int] = set()
    for lineno, line, fields in _data_lines(text):
        try:
            values = [int(tok) for tok in fields]
        except ValueError:
            if not seen and any(ch.isalpha() for ch in line):
                warnings.warn(f"skipping header row at line {lineno}: {line!r}")
                continue
            raise ValueError(f"line {lineno}: non-integer field in {line!r}") from None
        if len(values) != 2:
            raise ValueError(f"line {lineno}: expected two fields, got {len(values)}")
        j, f = values
        if j < 1:
            raise ValueError(f"line {lineno}: count value must be >= 1, got {j}")
        if f < 0:
            raise ValueError(f"line {lineno}: negative frequency {f}")
        if j in seen:
            raise ValueError(f"line {lineno}: duplicate count value {j}")
        seen.add(j)
        if f == 0:
            warnings.warn(f"dropping zero-frequency row for count value {j}")
            continue
        counts[j] = f
    if not counts:
        raise ValueError("no usable rows in frequency table input")
    return FrequencyCountTable.from_counts(counts)


def parse_abundance_vector(text: str) -> list[int]:
    """Parse abundance-format text: one positive integer count per line.

    Blank lines and '#' comments are allowed. A line with more than one field
    is rejected (that is frequency-table format, not an abundance vector).
    """
    out: list[int] = []
    for lineno, _, fields in _data_lines(text):
        if len(fields) != 1:
            raise ValueError(
                f"line {lineno}: expected one count per line, got {len(fields)} fields"
            )
        try:
            x = int(fields[0])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer count {fields[0]!r}") from None
        if x < 1:
            raise ValueError(f"line {lineno}: counts must be >= 1, got {x}")
        out.append(x)
    if not out:
        raise ValueError("no counts in abundance input")
    return out


def from_abundances(abundances: Sequence[int]) -> FrequencyCountTable:
    """Reduce per-taxon counts to a table: f_j = #{taxa observed exactly j times}."""
    if len(abundances) == 0:
        raise ValueError("empty abundance vector")
    normalized: list[int] = []
    for x in abundances:
        ix = int(x)
        if ix != x or ix < 1:
            raise ValueError(f"abundances must be positive integers, got {x!r}")
        normalized.append(ix)
    return FrequencyCountTable.from_counts(Counter(normalized))


def observed_richness(table: FrequencyCountTable) -> int:
    """Number of distinct taxa in the sample: the sum of all f_j."""
    return sum(f for _, f in table.entries)


def tail_cutoff(table: FrequencyCountTable, j_start: int) -> int:
    """Largest J such that every count value in [j_start, J+1] has f_j >= 1.

    Ratios r_j = f_{j+1}/f_j need both endpoints, so the usable regression
    range is the contiguous run of nonzero frequencies starting at j_start.
    Raises InsufficientDataError when fewer than MIN_RATIO_POINTS ratio
    points survive.
    """
    if j_start not in table._lookup:
        raise ValueError(f"table has no entry at count value {j_start}")
    end = j_start
    while end + 1 in table._lookup:
        end += 1
    big_j = end - 1
    n_points = big_j - j_start + 1
    if n_points < MIN_RATIO_POINTS:
        raise InsufficientDataError(
            f"only {n_points} usable ratio points from j={j_start}"
            f" (need >= {MIN_RATIO_POINTS})"
        )
    return big_j


def serialize_frequency_table(table: FrequencyCountTable) -> str:
    """Render a table in the same two-column format parse_frequency_table reads."""
    return "".join(f"{j}\t{f}\n" for j, f in table.entries)


def expand_to_abundances(table: FrequencyCountTable) -> list[int]:
    """Expand a table back to a sorted multiset of per-taxon counts."""
    out: list[int] = []
    for j, f in table.entries:
        out.extend([j] * f)
    return out
