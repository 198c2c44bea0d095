"""Abstract domains for the flow-sensitive analyses (REPRO009–011, REPRO013).

The flow engine in :mod:`repro.analysis.flow` is a forward abstract
interpreter; this module defines the lattices it interprets *into*.  Every
expression in a function is mapped to one :class:`AbstractValue`, a product
of four independent component lattices:

* **dtype** — a *set* of possible numpy dtypes (:class:`DType`), ``None``
  meaning "unknown / any".  Sets rather than single points because the code
  base deliberately switches widths at runtime (``idx = np.int64 if wide
  else np.int32`` in :mod:`repro.perf.batched`); the REPRO009 narrowing
  check must see both possibilities after the join.
* **domain** — the *unit* a numeric value carries (:class:`Domain`): a
  label-set bitmask, a vertex id, a distance, or a landmark index.  The
  REPRO010/011 checks flag arithmetic that mixes units and calls that pass
  one unit where another is expected.  ``None`` means "no classified unit".
* **interval** — a small integer range (:class:`Interval`) used by the
  REPRO009 shift-overflow check (``1 << k`` where ``k`` can reach the
  operand width).  Unknown bounds are ``None``; the engine widens loops.
* **resources** — the set of *allocation sites* a value may refer to; the
  per-site lifecycle state (:class:`ResourceState`) lives in the flow
  state, not in the value, so that aliases observe each other's
  ``close()``/``release()`` transitions (REPRO013).

Joins are pointwise over the product; every component join goes *up* (sets
union and saturate to ``None``, intervals hull, differing domains become
``None``), so the fixpoint iteration in the engine terminates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

__all__ = [
    "DType",
    "Domain",
    "Interval",
    "ResourceState",
    "AbstractValue",
    "UNKNOWN",
    "dtype_set",
    "join_dtypes",
    "promote",
    "may_narrow",
    "min_width",
    "parse_dtype_token",
]


class DType(Enum):
    """One concrete numpy/Python scalar type tracked by REPRO009."""

    BOOL = "bool"
    INT8 = "int8"
    INT16 = "int16"
    INT32 = "int32"
    INT64 = "int64"
    UINT8 = "uint8"
    UINT16 = "uint16"
    UINT32 = "uint32"
    UINT64 = "uint64"
    FLOAT32 = "float32"
    FLOAT64 = "float64"
    #: Arbitrary-precision Python int — never narrows, never overflows.
    PYINT = "pyint"
    PYFLOAT = "pyfloat"

    @property
    def width(self) -> int:
        """Bit width of the fixed-width types; 0 for Python scalars/bool."""
        return _WIDTHS[self]

    @property
    def is_integer(self) -> bool:
        return self in _INTEGERS

    @property
    def is_float(self) -> bool:
        return self in (DType.FLOAT32, DType.FLOAT64, DType.PYFLOAT)

    @property
    def is_fixed_width(self) -> bool:
        """True for numpy fixed-width numeric types (shift overflow applies)."""
        return _WIDTHS[self] > 0


_WIDTHS = {
    DType.BOOL: 0,
    DType.INT8: 8,
    DType.INT16: 16,
    DType.INT32: 32,
    DType.INT64: 64,
    DType.UINT8: 8,
    DType.UINT16: 16,
    DType.UINT32: 32,
    DType.UINT64: 64,
    DType.FLOAT32: 32,
    DType.FLOAT64: 64,
    DType.PYINT: 0,
    DType.PYFLOAT: 0,
}

_INTEGERS = frozenset(
    {
        DType.INT8,
        DType.INT16,
        DType.INT32,
        DType.INT64,
        DType.UINT8,
        DType.UINT16,
        DType.UINT32,
        DType.UINT64,
        DType.PYINT,
    }
)

#: ``np.<name>`` / ``dtype=np.<name>`` tokens the engine recognizes.
_DTYPE_TOKENS = {d.value: d for d in DType if d not in (DType.PYINT, DType.PYFLOAT)}
_DTYPE_TOKENS["int"] = DType.INT64  # numpy default integer on linux
_DTYPE_TOKENS["float"] = DType.FLOAT64
_DTYPE_TOKENS["intp"] = DType.INT64
_DTYPE_TOKENS["double"] = DType.FLOAT64

#: Joined dtype sets larger than this saturate to "unknown".
_MAX_DTYPE_SET = 4


def parse_dtype_token(token: str) -> DType | None:
    """Map a dtype spelling (``"int32"``, ``"float"``, …) to a :class:`DType`."""
    return _DTYPE_TOKENS.get(token)


def dtype_set(*dtypes: DType) -> frozenset[DType]:
    """Convenience constructor for a concrete dtype set."""
    return frozenset(dtypes)


def join_dtypes(
    a: frozenset[DType] | None, b: frozenset[DType] | None
) -> frozenset[DType] | None:
    """Control-flow join of two dtype sets (union, saturating to unknown)."""
    if a is None or b is None:
        return None
    union = a | b
    if len(union) > _MAX_DTYPE_SET:
        return None
    return union


def promote(a: DType, b: DType) -> DType | None:
    """Approximate numpy arithmetic promotion; ``None`` = unknown result.

    Only the cases the package actually exercises are modeled: equal types,
    Python scalars against numpy types (numpy wins), same-signedness integer
    widening, and float contamination.  Mixed signed/unsigned promotes to
    ``None`` (numpy's answer depends on width and version).
    """
    if a == b:
        return a
    if a == DType.PYINT and b.is_integer:
        return b
    if b == DType.PYINT and a.is_integer:
        return a
    if a == DType.PYFLOAT and b.is_float:
        return b
    if b == DType.PYFLOAT and a.is_float:
        return a
    if a.is_float or b.is_float:
        return DType.FLOAT64 if DType.FLOAT64 in (a, b) else None
    if a == DType.BOOL:
        return b
    if b == DType.BOOL:
        return a
    if a.is_integer and b.is_integer:
        a_signed = a.value.startswith("int")
        b_signed = b.value.startswith("int")
        if a_signed == b_signed:
            return a if a.width >= b.width else b
    return None


def may_narrow(
    src: frozenset[DType] | None, dst: frozenset[DType] | None
) -> bool:
    """True when a value of some possible ``src`` dtype stored into / cast to
    some possible ``dst`` dtype can silently lose high bits or precision.

    Unknown on either side is *not* a narrowing (the checks only fire on
    provable width loss); Python ints never narrow as sources because the
    store itself raises ``OverflowError`` loudly rather than truncating.
    """
    if src is None or dst is None:
        return False
    for s in src:
        if not s.is_fixed_width:
            continue
        for d in dst:
            if not d.is_fixed_width:
                continue
            if s.is_integer and d.is_integer and d.width < s.width:
                return True
            if s.is_float and d.is_float and d.width < s.width:
                return True
    return False


def min_width(dtypes: frozenset[DType]) -> int:
    """Smallest fixed width in the set (0 when none is fixed-width)."""
    widths = [d.width for d in dtypes if d.is_fixed_width]
    return min(widths) if widths else 0


class Domain(Enum):
    """The unit a numeric value carries (REPRO010/011 classification)."""

    MASK = "mask"
    VERTEX = "vertex-id"
    DIST = "distance"
    LANDMARK = "landmark-index"


def _join_domain(a: Domain | None, b: Domain | None) -> Domain | None:
    return a if a == b else None


class ResourceState(Enum):
    """Lifecycle state of one resource allocation site (REPRO013)."""

    OPEN = "open"
    CLOSED = "closed"
    #: The resource left the function (returned / stored / passed on):
    #: cleanup responsibility transferred, no leak is reported.
    ESCAPED = "escaped"


@dataclass(frozen=True)
class Interval:
    """Integer range ``[lo, hi]``; ``None`` bounds mean unbounded."""

    lo: int | None = None
    hi: int | None = None

    @staticmethod
    def point(value: int) -> "Interval":
        return Interval(value, value)

    def join(self, other: "Interval") -> "Interval":
        lo = None if self.lo is None or other.lo is None else min(self.lo, other.lo)
        hi = None if self.hi is None or other.hi is None else max(self.hi, other.hi)
        return Interval(lo, hi)

    def widen(self, other: "Interval") -> "Interval":
        """Classic interval widening: bounds that moved jump to unbounded."""
        lo = self.lo if self.lo is not None and other.lo is not None and other.lo >= self.lo else None
        hi = self.hi if self.hi is not None and other.hi is not None and other.hi <= self.hi else None
        return Interval(lo, hi)

    def add(self, other: "Interval") -> "Interval":
        lo = None if self.lo is None or other.lo is None else self.lo + other.lo
        hi = None if self.hi is None or other.hi is None else self.hi + other.hi
        return Interval(lo, hi)

    def sub(self, other: "Interval") -> "Interval":
        lo = None if self.lo is None or other.hi is None else self.lo - other.hi
        hi = None if self.hi is None or other.lo is None else self.hi - other.lo
        return Interval(lo, hi)

    def neg(self) -> "Interval":
        return Interval(
            None if self.hi is None else -self.hi,
            None if self.lo is None else -self.lo,
        )


def _join_interval(a: Interval | None, b: Interval | None) -> Interval | None:
    if a is None or b is None:
        return None
    return a.join(b)


@dataclass(frozen=True)
class AbstractValue:
    """One point of the product lattice the flow engine computes over.

    ``kind`` is a coarse shape tag: ``"scalar"``, ``"array"``, ``"dtype"``
    (the value *is* a dtype object, e.g. ``np.int32`` bound to a variable),
    ``"iter"`` (an iterable whose element abstraction is ``elem``), or
    ``"unknown"``.  ``tag`` carries engine-private markers (currently
    ``"mapped-table"`` for :class:`repro.core.powcov.table.PowCovTable`
    values, whose column arrays are read-only).
    """

    dtypes: frozenset[DType] | None = None
    kind: str = "unknown"
    domain: Domain | None = None
    ivl: Interval | None = None
    readonly: bool = False
    resources: frozenset[int] = frozenset()
    tag: str | None = None
    elem: "AbstractValue | None" = None

    def join(self, other: "AbstractValue") -> "AbstractValue":
        elem: AbstractValue | None
        if self.elem is None or other.elem is None:
            elem = None
        else:
            elem = self.elem.join(other.elem)
        return AbstractValue(
            dtypes=join_dtypes(self.dtypes, other.dtypes),
            kind=self.kind if self.kind == other.kind else "unknown",
            domain=_join_domain(self.domain, other.domain),
            ivl=_join_interval(self.ivl, other.ivl),
            readonly=self.readonly or other.readonly,
            resources=self.resources | other.resources,
            tag=self.tag if self.tag == other.tag else None,
            elem=elem,
        )

    def widen_against(self, older: "AbstractValue") -> "AbstractValue":
        """Widening join used at loop heads after repeated visits."""
        joined = older.join(self)
        if older.ivl is not None and self.ivl is not None:
            return replace(joined, ivl=older.ivl.widen(self.ivl))
        return joined

    def with_domain(self, domain: Domain | None) -> "AbstractValue":
        return replace(self, domain=domain)

    def with_dtypes(self, dtypes: frozenset[DType] | None) -> "AbstractValue":
        return replace(self, dtypes=dtypes)


#: The top element: nothing known.
UNKNOWN = AbstractValue()
