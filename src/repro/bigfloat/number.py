"""Immutable arbitrary-precision binary floating-point values.

A :class:`BigFloat` mirrors an MPFR number: it carries its own precision
(number of significand bits) and represents::

    value = (-1)**sign * mant * 2**exp

with ``mant`` normalized to exactly ``prec`` bits for finite nonzero
values.  Zeros are signed; infinities and NaN are explicit kinds.  The
exponent is unbounded (MPFR's practical behaviour for the ranges the
paper exercises).

Values are immutable; the mutable, C-style object layer used by the MPFR
backend lives in :mod:`repro.bigfloat.mpfr_api`.
"""

from __future__ import annotations

import enum
import math
from typing import Union

from .rounding import RNDN, RoundingMode, round_significand

#: Default precision (bits of significand) when none is given, matching
#: MPFR's ``mpfr_set_default_prec`` default of 53.
DEFAULT_PRECISION = 53


class Kind(enum.Enum):
    """Classification of a BigFloat value."""

    FINITE = "finite"  # nonzero finite
    ZERO = "zero"
    INF = "inf"
    NAN = "nan"


class BigFloat:
    """An immutable correctly-rounded binary floating-point number.

    Construction normally goes through the classmethods
    (:meth:`from_int`, :meth:`from_float`, :meth:`from_fraction`) or
    :func:`repro.bigfloat.convert.from_str`; the raw constructor takes
    already-normalized fields.
    """

    __slots__ = ("kind", "sign", "mant", "exp", "prec")

    def __init__(self, kind: Kind, sign: int, mant: int, exp: int, prec: int):
        if prec < 1:
            raise ValueError(f"precision must be >= 1, got {prec}")
        if sign not in (0, 1):
            raise ValueError(f"sign must be 0 or 1, got {sign}")
        if kind is Kind.FINITE:
            if mant.bit_length() != prec:
                raise ValueError(
                    f"finite significand must be normalized to {prec} bits, "
                    f"got {mant.bit_length()} bits"
                )
        elif mant != 0 or exp != 0:
            raise ValueError(f"{kind} values must carry mant=0, exp=0")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "mant", mant)
        object.__setattr__(self, "exp", exp)
        object.__setattr__(self, "prec", prec)

    def __setattr__(self, name, value):  # noqa: D105
        raise AttributeError("BigFloat is immutable")

    def __reduce__(self):
        # Slotted + immutable, so default pickling would try setattr;
        # rebuild through the validating constructor instead.
        return (BigFloat, (self.kind, self.sign, self.mant,
                           self.exp, self.prec))

    # ---------------------------------------------------------------- #
    # Constructors
    # ---------------------------------------------------------------- #

    @classmethod
    def zero(cls, prec: int = DEFAULT_PRECISION, sign: int = 0) -> "BigFloat":
        """Signed zero at the given precision."""
        return cls(Kind.ZERO, sign, 0, 0, prec)

    @classmethod
    def inf(cls, prec: int = DEFAULT_PRECISION, sign: int = 0) -> "BigFloat":
        """Signed infinity."""
        return cls(Kind.INF, sign, 0, 0, prec)

    @classmethod
    def nan(cls, prec: int = DEFAULT_PRECISION) -> "BigFloat":
        """Quiet NaN."""
        return cls(Kind.NAN, 0, 0, 0, prec)

    @classmethod
    def from_int(
        cls, value: int, prec: int = DEFAULT_PRECISION, rm: RoundingMode = RNDN
    ) -> "BigFloat":
        """Convert a Python int, rounding to ``prec`` bits if needed."""
        if value == 0:
            return cls.zero(prec)
        sign = 1 if value < 0 else 0
        mant, exp, _ = round_significand(sign, abs(value), 0, prec, rm)
        return cls(Kind.FINITE, sign, mant, exp, prec)

    @classmethod
    def from_float(
        cls, value: float, prec: int = DEFAULT_PRECISION, rm: RoundingMode = RNDN
    ) -> "BigFloat":
        """Convert a Python float (IEEE binary64), rounding if prec < 53."""
        if math.isnan(value):
            return cls.nan(prec)
        if math.isinf(value):
            return cls.inf(prec, sign=1 if value < 0 else 0)
        if value == 0.0:
            return cls.zero(prec, sign=1 if math.copysign(1.0, value) < 0 else 0)
        sign = 1 if value < 0 else 0
        m, e = math.frexp(abs(value))  # value = m * 2**e, 0.5 <= m < 1
        mant = int(m * (1 << 53))
        exp = e - 53
        while mant & 1 == 0:
            mant >>= 1
            exp += 1
        mant, exp, _ = round_significand(sign, mant, exp, prec, rm)
        return cls(Kind.FINITE, sign, mant, exp, prec)

    @classmethod
    def from_fraction(
        cls,
        numerator: int,
        denominator: int,
        prec: int = DEFAULT_PRECISION,
        rm: RoundingMode = RNDN,
    ) -> "BigFloat":
        """Correctly-rounded conversion of an exact rational number.

        Used by decimal string parsing ("1.3" = 13/10) and by exact
        residual computations in the evaluation harness.
        """
        if denominator == 0:
            raise ZeroDivisionError("from_fraction with zero denominator")
        if numerator == 0:
            return cls.zero(prec)
        sign = 0
        if numerator < 0:
            sign ^= 1
            numerator = -numerator
        if denominator < 0:
            sign ^= 1
            denominator = -denominator
        # Scale the numerator so the quotient carries prec + 2 guard bits.
        shift = prec + 2 - (numerator.bit_length() - denominator.bit_length())
        if shift < 0:
            shift = 0
        q, r = divmod(numerator << shift, denominator)
        mant, exp, _ = round_significand(sign, q, -shift, prec, rm, sticky=bool(r))
        return cls(Kind.FINITE, sign, mant, exp, prec)

    @classmethod
    def from_value(
        cls,
        value: Union["BigFloat", int, float],
        prec: int = DEFAULT_PRECISION,
        rm: RoundingMode = RNDN,
    ) -> "BigFloat":
        """Coerce ints, floats, or BigFloats to a BigFloat of ``prec`` bits."""
        if isinstance(value, BigFloat):
            return value.round_to(prec, rm)
        if isinstance(value, bool):
            raise TypeError("cannot convert bool to BigFloat")
        if isinstance(value, int):
            return cls.from_int(value, prec, rm)
        if isinstance(value, float):
            return cls.from_float(value, prec, rm)
        raise TypeError(f"cannot convert {type(value).__name__} to BigFloat")

    # ---------------------------------------------------------------- #
    # Classification
    # ---------------------------------------------------------------- #

    def is_nan(self) -> bool:
        return self.kind is Kind.NAN

    def is_inf(self) -> bool:
        return self.kind is Kind.INF

    def is_zero(self) -> bool:
        return self.kind is Kind.ZERO

    def is_finite(self) -> bool:
        return self.kind in (Kind.FINITE, Kind.ZERO)

    def is_negative(self) -> bool:
        """True when the sign bit is set (including -0 and -inf)."""
        return self.sign == 1

    # ---------------------------------------------------------------- #
    # Rounding / precision changes
    # ---------------------------------------------------------------- #

    def round_to(self, prec: int, rm: RoundingMode = RNDN) -> "BigFloat":
        """Return this value rounded to a (possibly different) precision."""
        if self.kind is not Kind.FINITE:
            return BigFloat(self.kind, self.sign, 0, 0, prec)
        mant, exp, _ = round_significand(self.sign, self.mant, self.exp, prec, rm)
        return BigFloat(Kind.FINITE, self.sign, mant, exp, prec)

    # ---------------------------------------------------------------- #
    # Conversions out
    # ---------------------------------------------------------------- #

    def to_float(self) -> float:
        """Round to IEEE binary64 (RNDN) and return a Python float."""
        if self.kind is Kind.NAN:
            return math.nan
        if self.kind is Kind.INF:
            return -math.inf if self.sign else math.inf
        if self.kind is Kind.ZERO:
            return -0.0 if self.sign else 0.0
        mant, exp, _ = round_significand(self.sign, self.mant, self.exp, 53)
        try:
            result = math.ldexp(float(mant), exp)
        except OverflowError:
            result = math.inf
        return -result if self.sign else result

    def to_int(self) -> int:
        """Truncate toward zero to a Python int."""
        if self.kind is Kind.NAN:
            raise ValueError("cannot convert NaN to int")
        if self.kind is Kind.INF:
            raise OverflowError("cannot convert infinity to int")
        if self.kind is Kind.ZERO:
            return 0
        if self.exp >= 0:
            magnitude = self.mant << self.exp
        else:
            magnitude = self.mant >> -self.exp
        return -magnitude if self.sign else magnitude

    def exponent(self) -> int:
        """The MPFR-style exponent: value in [2**(e-1), 2**e)."""
        if self.kind is not Kind.FINITE:
            raise ValueError(f"exponent of {self.kind.value} value")
        return self.exp + self.prec

    # ---------------------------------------------------------------- #
    # Comparison helpers (total over non-NaN; NaN compares unordered)
    # ---------------------------------------------------------------- #

    def _cmp_magnitude(self, other: "BigFloat") -> int:
        """Compare |self| vs |other| for finite nonzero values."""
        ea, eb = self.exponent(), other.exponent()
        if ea != eb:
            return -1 if ea < eb else 1
        # Align significands to a common scale.
        pa, pb = self.prec, other.prec
        ma = self.mant << max(0, pb - pa)
        mb = other.mant << max(0, pa - pb)
        if ma == mb:
            return 0
        return -1 if ma < mb else 1

    def compare(self, other: "BigFloat") -> int:
        """Three-way compare; raises on NaN operands (MPFR sets erange)."""
        if self.is_nan() or other.is_nan():
            raise ValueError("comparison with NaN is unordered")
        a_neg = self.sign == 1 and not self.is_zero()
        b_neg = other.sign == 1 and not other.is_zero()
        if self.is_zero() and other.is_zero():
            return 0
        if self.is_zero():
            return 1 if b_neg else -1
        if other.is_zero():
            return -1 if a_neg else 1
        if a_neg != b_neg:
            return -1 if a_neg else 1
        if self.is_inf() or other.is_inf():
            if self.is_inf() and other.is_inf():
                return 0
            mag = 1 if self.is_inf() else -1
        else:
            mag = self._cmp_magnitude(other)
        return -mag if a_neg else mag

    # Rich comparisons follow IEEE semantics: NaN is unordered.
    def __eq__(self, other) -> bool:
        if not isinstance(other, BigFloat):
            return NotImplemented
        if self.is_nan() or other.is_nan():
            return False
        return self.compare(other) == 0

    def __lt__(self, other) -> bool:
        if self.is_nan() or other.is_nan():
            return False
        return self.compare(other) < 0

    def __le__(self, other) -> bool:
        if self.is_nan() or other.is_nan():
            return False
        return self.compare(other) <= 0

    def __gt__(self, other) -> bool:
        if self.is_nan() or other.is_nan():
            return False
        return self.compare(other) > 0

    def __ge__(self, other) -> bool:
        if self.is_nan() or other.is_nan():
            return False
        return self.compare(other) >= 0

    def __hash__(self) -> int:
        if self.kind is Kind.FINITE:
            return hash((self.sign, self.mant, self.exp))
        return hash((self.kind, self.sign))

    # ---------------------------------------------------------------- #
    # Sign manipulation
    # ---------------------------------------------------------------- #

    def __neg__(self) -> "BigFloat":
        if self.kind is Kind.NAN:
            return self
        return BigFloat(self.kind, self.sign ^ 1, self.mant, self.exp, self.prec)

    def __abs__(self) -> "BigFloat":
        if self.kind is Kind.NAN:
            return self
        return BigFloat(self.kind, 0, self.mant, self.exp, self.prec)

    def copysign(self, other: "BigFloat") -> "BigFloat":
        return BigFloat(self.kind, other.sign, self.mant, self.exp, self.prec)

    # ---------------------------------------------------------------- #
    # Arithmetic operators (delegate to repro.bigfloat.arith at the
    # operands' max precision, RNDN) -- convenience for tests/solvers.
    # ---------------------------------------------------------------- #

    def _binop(self, other, op):
        from . import arith

        if isinstance(other, (int, float)):
            other = BigFloat.from_value(other, self.prec)
        elif not isinstance(other, BigFloat):
            return NotImplemented
        return op(self, other, max(self.prec, other.prec), RNDN)

    def __add__(self, other):
        from . import arith

        return self._binop(other, arith.add)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        from . import arith

        return self._binop(other, arith.sub)

    def __rsub__(self, other):
        result = self.__sub__(other)
        return -result if result is not NotImplemented else result

    def __mul__(self, other):
        from . import arith

        return self._binop(other, arith.mul)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        from . import arith

        return self._binop(other, arith.div)

    def __rtruediv__(self, other):
        from . import arith

        if isinstance(other, (int, float)):
            other = BigFloat.from_value(other, self.prec)
        elif not isinstance(other, BigFloat):
            return NotImplemented
        return arith.div(other, self, max(self.prec, other.prec), RNDN)

    # ---------------------------------------------------------------- #
    # Debug / display
    # ---------------------------------------------------------------- #

    def __repr__(self) -> str:
        if self.kind is Kind.NAN:
            return f"BigFloat(nan, prec={self.prec})"
        if self.kind is Kind.INF:
            return f"BigFloat({'-' if self.sign else '+'}inf, prec={self.prec})"
        if self.kind is Kind.ZERO:
            return f"BigFloat({'-' if self.sign else ''}0, prec={self.prec})"
        return (
            f"BigFloat({'-' if self.sign else ''}{self.mant}p{self.exp}, "
            f"prec={self.prec})"
        )

    def __str__(self) -> str:
        from .convert import to_str

        return to_str(self)

    def __float__(self) -> float:
        return self.to_float()


class _FastBigFloat(BigFloat):
    """Kernel-internal constructor that skips field validation.

    The jit's scalar kernels (:mod:`repro.codegen.kernels`) construct
    values whose significands are normalized *by construction* -- the
    rounding tail guarantees ``2**(prec-1) <= mant < 2**prec`` -- so
    re-checking ``bit_length`` and re-raising on malformed fields in
    ``BigFloat.__init__`` is pure overhead on the hottest path in the
    system.  This subclass restores
    plain attribute assignment and assigns the five slots directly.

    Instances are ordinary :class:`BigFloat` values everywhere else
    (same slots, comparisons, hashing, arithmetic); pickling goes
    through the inherited ``__reduce__`` and rebuilds a validating
    ``BigFloat``.  Nothing outside the scalar kernels should construct
    one, and nothing may mutate one after it escapes a kernel.
    """

    __slots__ = ()
    __setattr__ = object.__setattr__

    def __init__(self, kind: Kind, sign: int, mant: int, exp: int,
                 prec: int):
        self.kind = kind
        self.sign = sign
        self.mant = mant
        self.exp = exp
        self.prec = prec
