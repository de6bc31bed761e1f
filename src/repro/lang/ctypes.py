"""Semantic (C-level) types for the vpfloat dialect.

These are the frontend's types; :mod:`repro.codegen.irgen` maps them onto
IR types.  ``VPFloatT`` attributes are :class:`Attr` values -- either
integer constants or references to in-scope integer declarations, matching
the paper's grammar (§III-A1: *exp-info / prec-info / size-info* are
integer literals or identifiers).

Type equality follows §III-A3: vpfloat types are equal only when they hold
the exact same attributes; there is no subtyping and no implicit
conversion except plain variable assignment (enforced by sema).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union


class CType:
    """Base class for frontend types."""

    @property
    def is_vpfloat(self) -> bool:
        return isinstance(self, VPFloatT)

    @property
    def is_arithmetic(self) -> bool:
        return isinstance(self, (IntT, FloatT, VPFloatT))

    @property
    def is_integer(self) -> bool:
        return isinstance(self, IntT)


@dataclass(frozen=True)
class VoidT(CType):
    def __str__(self):
        return "void"


@dataclass(frozen=True)
class IntT(CType):
    bits: int = 32
    signed: bool = True

    def __str__(self):
        base = {8: "char", 32: "int", 64: "long"}.get(self.bits, f"i{self.bits}")
        return base if self.signed else f"unsigned {base}"


@dataclass(frozen=True)
class FloatT(CType):
    bits: int = 64

    def __str__(self):
        return "float" if self.bits == 32 else "double"


@dataclass(frozen=True)
class AttrConst:
    """A compile-time constant attribute."""

    value: int

    def __str__(self):
        return str(self.value)


@dataclass(frozen=True)
class AttrRef:
    """An attribute naming an in-scope integer declaration."""

    name: str

    def __str__(self):
        return self.name


Attr = Union[AttrConst, AttrRef]


class VPFloatT(CType):
    """``vpfloat<format, exp-info, prec-info[, size-info]>``."""

    def __init__(self, format: str, exp: Attr, prec: Attr,
                 size: Optional[Attr] = None):
        self.format = format
        self.exp = exp
        self.prec = prec
        self.size = size

    @property
    def is_static(self) -> bool:
        attrs = [self.exp, self.prec] + ([self.size] if self.size else [])
        return all(isinstance(a, AttrConst) for a in attrs)

    def attributes(self):
        attrs = [self.exp, self.prec]
        if self.size is not None:
            attrs.append(self.size)
        return attrs

    def __str__(self):
        parts = [self.format, str(self.exp), str(self.prec)]
        if self.size is not None:
            parts.append(str(self.size))
        return f"vpfloat<{', '.join(parts)}>"

    def __eq__(self, other):
        if not isinstance(other, VPFloatT) or other.format != self.format:
            return False
        return (self.exp == other.exp and self.prec == other.prec
                and self.size == other.size)

    def __hash__(self):
        return hash(("vpfloat", self.format, self.exp, self.prec, self.size))


@dataclass(frozen=True)
class PointerT(CType):
    pointee: CType = None

    def __str__(self):
        return f"{self.pointee}*"


class ArrayT(CType):
    """Array type; ``size`` is an int for constant arrays, None for VLAs
    (the VLA extent expression lives on the declaration)."""

    def __init__(self, element: CType, size: Optional[int],
                 vla_extent=None):
        self.element = element
        self.size = size
        self.vla_extent = vla_extent  # Expr for VLAs

    @property
    def is_vla(self) -> bool:
        return self.size is None

    def __str__(self):
        extent = "" if self.size is None else str(self.size)
        return f"{self.element}[{extent}]"

    def __eq__(self, other):
        return (isinstance(other, ArrayT) and other.element == self.element
                and other.size == self.size)

    def __hash__(self):
        return hash(("array", self.element, self.size))


# Common singletons.
VOID = VoidT()
INT = IntT(32, True)
UNSIGNED = IntT(32, False)
LONG = IntT(64, True)
CHAR = IntT(8, True)
BOOL = IntT(1, True)
FLOAT = FloatT(32)
DOUBLE = FloatT(64)


def decay(type: CType) -> CType:
    """Array-to-pointer decay for expression contexts."""
    if isinstance(type, ArrayT):
        return PointerT(type.element)
    return type
