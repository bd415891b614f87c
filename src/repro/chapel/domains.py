"""Chapel-style ranges and rectangular domains.

Chapel arrays are declared over *domains* built from inclusive, possibly
strided ranges (``[1..n]``, ``[0..9 by 2]``).  The linearization algorithms in
:mod:`repro.compiler.linearize` walk these domains to compute dense layouts,
so the domain abstraction must expose both Chapel-style (1-based, inclusive)
indices and 0-based dense positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

from repro.util.errors import DomainError

__all__ = ["Range", "Domain"]


@dataclass(frozen=True)
class Range:
    """An inclusive, optionally strided integer range: ``low..high by stride``.

    Mirrors Chapel's bounded range type.  ``stride`` must be positive; Chapel
    negative strides are not needed by any reduction in the paper.
    """

    low: int
    high: int
    stride: int = 1

    def __post_init__(self) -> None:
        if self.stride <= 0:
            raise DomainError(f"range stride must be positive, got {self.stride}")

    def __len__(self) -> int:
        if self.high < self.low:
            return 0
        return (self.high - self.low) // self.stride + 1

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.low, self.high + 1, self.stride))

    def __contains__(self, index: object) -> bool:
        if not isinstance(index, int) or isinstance(index, bool):
            return False
        if index < self.low or index > self.high:
            return False
        return (index - self.low) % self.stride == 0

    def position_of(self, index: int) -> int:
        """Return the 0-based dense position of a member index.

        This is the inverse of :meth:`index_at`; the linearizer uses it to
        turn Chapel indices into offsets into the packed buffer.
        """
        if index not in self:
            raise DomainError(f"index {index} not in range {self}")
        return (index - self.low) // self.stride

    def index_at(self, position: int) -> int:
        """Return the Chapel index at a 0-based dense position."""
        if not 0 <= position < len(self):
            raise DomainError(
                f"position {position} out of bounds for range of size {len(self)}"
            )
        return self.low + position * self.stride

    def __str__(self) -> str:
        if self.stride == 1:
            return f"{self.low}..{self.high}"
        return f"{self.low}..{self.high} by {self.stride}"


@dataclass(frozen=True)
class Domain:
    """A rectangular domain: the cross product of one or more ranges.

    Iteration order is row-major (last dimension fastest), matching both
    Chapel's default iteration order for rectangular domains and the memory
    order produced by linearization.
    """

    ranges: tuple[Range, ...]

    def __init__(self, *ranges: Range | tuple[int, int] | int) -> None:
        normalized: list[Range] = []
        for r in ranges:
            if isinstance(r, Range):
                normalized.append(r)
            elif isinstance(r, tuple) and len(r) == 2:
                normalized.append(Range(r[0], r[1]))
            elif isinstance(r, int) and not isinstance(r, bool):
                # Chapel idiom: `[1..n]`; a bare int n means 1..n.
                normalized.append(Range(1, r))
            else:
                raise DomainError(f"cannot build a range from {r!r}")
        if not normalized:
            raise DomainError("a domain needs at least one range")
        object.__setattr__(self, "ranges", tuple(normalized))

    @property
    def rank(self) -> int:
        return len(self.ranges)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.ranges)

    @cached_property
    def size(self) -> int:
        n = 1
        for r in self.ranges:
            n *= len(r)
        return n

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[tuple[int, ...] | int]:
        """Yield indices; rank-1 domains yield bare ints like Chapel."""
        if self.rank == 1:
            yield from self.ranges[0]
            return
        yield from self._iter_rec((), 0)

    def _iter_rec(
        self, prefix: tuple[int, ...], dim: int
    ) -> Iterator[tuple[int, ...]]:
        if dim == self.rank:
            yield prefix
            return
        for i in self.ranges[dim]:
            yield from self._iter_rec(prefix + (i,), dim + 1)

    def __contains__(self, index: object) -> bool:
        idx = self._as_tuple(index)
        if idx is None or len(idx) != self.rank:
            return False
        return all(i in r for i, r in zip(idx, self.ranges))

    @staticmethod
    def _as_tuple(index: object) -> tuple[int, ...] | None:
        if isinstance(index, int) and not isinstance(index, bool):
            return (index,)
        if isinstance(index, tuple) and all(
            isinstance(i, int) and not isinstance(i, bool) for i in index
        ):
            return index
        return None

    def flat_position(self, index: int | Sequence[int]) -> int:
        """Row-major 0-based dense position of a Chapel index tuple."""
        idx = self._as_tuple(tuple(index) if isinstance(index, Sequence) else index)
        if idx is None or len(idx) != self.rank:
            raise DomainError(f"index {index!r} has wrong rank for {self}")
        pos = 0
        for i, r in zip(idx, self.ranges):
            pos = pos * len(r) + r.position_of(i)
        return pos

    def index_at(self, position: int) -> int | tuple[int, ...]:
        """Chapel index at a row-major dense position (inverse of above)."""
        if not 0 <= position < self.size:
            raise DomainError(
                f"position {position} out of bounds for domain of size {self.size}"
            )
        out: list[int] = []
        for r in reversed(self.ranges):
            position, p = divmod(position, len(r))
            out.append(r.index_at(p))
        out.reverse()
        if self.rank == 1:
            return out[0]
        return tuple(out)

    def __str__(self) -> str:
        return "{" + ", ".join(str(r) for r in self.ranges) + "}"
