"""Query result sets."""

from __future__ import annotations

from typing import Any, Iterator

from repro.db.column import Column
from repro.db.types import DataType, render_value
from repro.errors import ExecutionError


class Result:
    """A materialised query result: named, typed columns."""

    def __init__(self, names: list[str], columns: list[Column]) -> None:
        if len(names) != len(columns):
            raise ExecutionError("result names/columns mismatch")
        self.names = names
        self.columns = columns

    @classmethod
    def concat(cls, names: list[str], dtypes: list[DataType],
               batches: "list[Result]") -> "Result":
        """A stream's row batches as one result (a lone batch as is)."""
        if len(batches) == 1:
            return batches[0]
        if not batches:
            return cls(names, [Column.from_values(dt, []) for dt in dtypes])
        return cls(names, [Column.concat([b.columns[i] for b in batches])
                           for i in range(len(names))])

    # -- shape -------------------------------------------------------------------

    @property
    def row_count(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    @property
    def column_count(self) -> int:
        return len(self.columns)

    def __len__(self) -> int:
        return self.row_count

    @property
    def dtypes(self) -> list[DataType]:
        return [col.dtype for col in self.columns]

    # -- access -----------------------------------------------------------------

    def column(self, name: str) -> Column:
        try:
            return self.columns[self.names.index(name.lower())]
        except ValueError:
            raise ExecutionError(f"no result column {name!r}") from None

    def rows(self) -> list[tuple]:
        """All rows as Python tuples (``None`` for NULL)."""
        return list(zip(*(col.to_pylist() for col in self.columns)))

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows())

    def scalar(self) -> Any:
        """The single value of a 1x1 result."""
        if self.row_count != 1 or self.column_count != 1:
            raise ExecutionError(
                f"scalar() needs a 1x1 result, got "
                f"{self.row_count}x{self.column_count}"
            )
        return self.columns[0].value_at(0)

    def first(self) -> tuple:
        if self.row_count == 0:
            raise ExecutionError("first() on an empty result")
        return tuple(col.value_at(0) for col in self.columns)

    def to_pydict(self) -> dict[str, list]:
        return {name: col.to_pylist()
                for name, col in zip(self.names, self.columns)}

    # -- display -------------------------------------------------------------------

    def format(self, max_rows: int = 25) -> str:
        """Aligned text rendering (used by examples and the demo tour)."""
        shown = min(self.row_count, max_rows)
        cells = [
            [render_value(col.value_at(i), col.dtype) for col in self.columns]
            for i in range(shown)
        ]
        widths = [len(n) for n in self.names]
        for row in cells:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [
            " | ".join(n.ljust(widths[i]) for i, n in enumerate(self.names)),
            "-+-".join("-" * w for w in widths),
        ]
        for row in cells:
            lines.append(" | ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
        if shown < self.row_count:
            lines.append(f"... ({self.row_count - shown} more rows)")
        lines.append(f"({self.row_count} row{'s' if self.row_count != 1 else ''})")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Result({self.row_count}x{self.column_count})"
