"""The decorator behind adil's plain (unfrozen) records.

`record` makes a dataclass with the same fields, `__init__`, repr and value
equality as `@dataclass` would, and no hash. What differs is the cost of
defining the class: `dataclass` writes out the source of a `__repr__` and an
`__eq__` for each class and compiles it, while `record` builds both from the
class's fields as closures over two shared bodies. With CPython 3.11 to 3.13
that about halves the cost of defining a record class (≈0.5 ms to ≈0.25 ms),
which every start-up pays for each of adil's 33 records. The analysis itself
neither compares nor prints records, so the speed of the two methods does
not matter.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, fields


def record(cls: type) -> type:
    cls = dataclass(cls, repr=False, eq=False)
    compared = tuple(f.name for f in fields(cls) if f.compare)
    shown = tuple(f.name for f in fields(cls) if f.repr)

    def __eq__(self, other: object) -> bool:
        # field tuples, as the generated __eq__ compares them
        if other.__class__ is self.__class__:
            return (tuple(getattr(self, name) for name in compared)
                    == tuple(getattr(other, name) for name in compared))
        return NotImplemented

    @reprlib.recursive_repr()
    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in shown)
        return f"{self.__class__.__qualname__}({body})"

    cls.__eq__, cls.__repr__, cls.__hash__ = __eq__, __repr__, None
    return cls
