"""Exact arithmetic on dyadic rationals and their two-point extension.

Every numeric quantity in this package (machine outputs, game values, grid
thresholds) is a dyadic rational z / 2**e kept in normal form.  Exactness is
the point: equality and order are decidable, so verdicts and construction
checks are reported exactly instead of within a float tolerance.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import total_ordering
from typing import Union

# ASCII digits only: \d and int() also accept other scripts' digits
_DYADIC_RE = re.compile(r"(-?[0-9]+)(?:/2\^([0-9]+))?")


@dataclass(frozen=True, slots=True)
class Dyadic:
    """z / 2**e in normal form: e == 0 or z odd."""

    num: int
    exp: int = 0

    def __post_init__(self) -> None:
        num, exp = self.num, self.exp
        # exact ints only: a bool would print as True/2^0, which no parser reads
        if type(num) is not int or type(exp) is not int:
            raise TypeError("dyadic parts must be ints, not "
                            f"{type(num).__name__}/{type(exp).__name__}")
        if exp < 0:
            raise ValueError(f"negative exponent {exp}")
        if exp and not num & 1:
            # strip the trailing zero bits of num, at most exp of them
            shift = min((num & -num).bit_length() - 1, exp) if num else exp
            object.__setattr__(self, "num", num >> shift)
            object.__setattr__(self, "exp", exp - shift)

    @classmethod
    def parse(cls, text: str) -> "Dyadic":
        m = _DYADIC_RE.fullmatch(text.strip())
        if m is None:
            raise ValueError(f"not a dyadic literal: {text!r}")
        return cls(int(m.group(1)), int(m.group(2) or 0))

    def __str__(self) -> str:
        return f"{self.num}/2^{self.exp}"

    def __repr__(self) -> str:
        return f"Dyadic({self.num}, {self.exp})"

    def __float__(self) -> float:
        # diagnostics only, never used in decisions
        return self.num / (1 << self.exp)

    def __bool__(self) -> bool:
        return self.num != 0

    def __add__(self, other: "DyadicLike") -> "Dyadic":
        o = other if type(other) is Dyadic else as_dyadic(other)
        a, b = self.exp, o.exp
        if a >= b:
            return Dyadic(self.num + (o.num << (a - b)), a)
        return Dyadic((self.num << (b - a)) + o.num, b)

    def __sub__(self, other: "DyadicLike") -> "Dyadic":
        o = other if type(other) is Dyadic else as_dyadic(other)
        a, b = self.exp, o.exp
        if a >= b:
            return Dyadic(self.num - (o.num << (a - b)), a)
        return Dyadic((self.num << (b - a)) - o.num, b)

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.num, self.exp)

    def __mul__(self, other: "DyadicLike") -> "Dyadic":
        o = as_dyadic(other)
        return Dyadic(self.num * o.num, self.exp + o.exp)

    def __abs__(self) -> "Dyadic":
        return Dyadic(abs(self.num), self.exp)

    # Order against a Dyadic or an int (never a bool): compare z1 * 2^e2
    # with z2 * 2^e1.  All four are spelled out because max, min and sort
    # call them once per element.

    def __lt__(self, other: "DyadicLike") -> bool:
        if type(other) is Dyadic:
            return (self.num << other.exp) < (other.num << self.exp)
        if type(other) is int:
            return self.num < (other << self.exp)
        return NotImplemented

    def __le__(self, other: "DyadicLike") -> bool:
        if type(other) is Dyadic:
            return (self.num << other.exp) <= (other.num << self.exp)
        if type(other) is int:
            return self.num <= (other << self.exp)
        return NotImplemented

    def __gt__(self, other: "DyadicLike") -> bool:
        if type(other) is Dyadic:
            return (self.num << other.exp) > (other.num << self.exp)
        if type(other) is int:
            return self.num > (other << self.exp)
        return NotImplemented

    def __ge__(self, other: "DyadicLike") -> bool:
        if type(other) is Dyadic:
            return (self.num << other.exp) >= (other.num << self.exp)
        if type(other) is int:
            return self.num >= (other << self.exp)
        return NotImplemented

    def __eq__(self, other: object) -> bool:
        if type(other) is Dyadic:
            return self.num == other.num and self.exp == other.exp
        if type(other) is int:
            return self.exp == 0 and self.num == other
        return NotImplemented

    def __hash__(self) -> int:
        # an integral value equals its int, so it hashes as that int
        return hash(self.num if not self.exp else (self.num, self.exp))

    def ceil_to_grid(self, n: int) -> "Dyadic":
        """Least multiple of 2**-n that is >= self."""
        if n < 0:
            raise ValueError("grid exponent must be >= 0")
        if n >= self.exp:
            return Dyadic(self.num << (n - self.exp), n)
        # ceil division by 2**(exp - n)
        shift = self.exp - n
        return Dyadic(-((-self.num) >> shift), n)


DyadicLike = Union[Dyadic, int]


def as_dyadic(v: "DyadicLike | str") -> Dyadic:
    if isinstance(v, Dyadic):
        return v
    if type(v) is int:
        return Dyadic(v, 0)
    if isinstance(v, str):
        return Dyadic.parse(v)
    raise TypeError(f"cannot interpret {v!r} as a dyadic")


def half_pow(k: int) -> Dyadic:
    """2**-k."""
    return Dyadic(1, k)


def crowd_depth(r: Dyadic, v: Dyadic) -> "int | float":
    """Largest m with r - 2**-m < v, inf when v >= r: gap = r - v = z / 2**e
    is below 2**-m iff z < 2**(e - m), that is m <= e - z.bit_length()."""
    gap = r - v
    return float("inf") if gap.num <= 0 else gap.exp - gap.num.bit_length()


@total_ordering
@dataclass(frozen=True)
class ExtValue:
    """A dyadic extended with a bottom and top element.

    tag -1 sits below every real, tag +1 above; tag 0 wraps a finite Dyadic.
    Infima over empty or unbounded collections land on the tagged ends.
    """

    tag: int
    value: Dyadic | None = None

    def __post_init__(self) -> None:
        if self.tag not in (-1, 0, 1):
            raise ValueError(f"bad tag {self.tag}")
        if (self.tag == 0) != (self.value is not None):
            raise ValueError("finite iff a value is carried")

    @classmethod
    def finite(cls, v: "DyadicLike") -> "ExtValue":
        return cls(0, as_dyadic(v))

    @property
    def is_finite(self) -> bool:
        return self.tag == 0

    def require_finite(self) -> Dyadic:
        if self.tag != 0:
            raise ValueError(f"expected a finite value, got {self}")
        assert self.value is not None
        return self.value

    def ceil_to_grid(self, n: int) -> "ExtValue":
        if self.tag != 0:
            return self
        assert self.value is not None
        return ExtValue.finite(self.value.ceil_to_grid(n))

    def __lt__(self, other: "ExtValue") -> bool:
        if not isinstance(other, (ExtValue, Dyadic)) and type(other) is not int:
            return NotImplemented
        o = as_ext(other)
        if self.tag != o.tag:
            return self.tag < o.tag
        if self.tag != 0:
            return False
        assert self.value is not None and o.value is not None
        return self.value < o.value

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Dyadic) or type(other) is int:
            other = ExtValue.finite(other)
        if not isinstance(other, ExtValue):
            return NotImplemented
        return self.tag == other.tag and self.value == other.value

    def __hash__(self) -> int:
        # a finite value equals its Dyadic, so it hashes as that Dyadic
        return hash(self.value if self.tag == 0 else (self.tag, None))

    def __str__(self) -> str:
        if self.tag == -1:
            return "-inf"
        if self.tag == 1:
            return "+inf"
        return str(self.value)

    def __repr__(self) -> str:
        return f"ExtValue({self})"


NEG_INF = ExtValue(-1)
POS_INF = ExtValue(1)


def as_ext(v: "ExtValue | DyadicLike") -> ExtValue:
    if isinstance(v, ExtValue):
        return v
    return ExtValue.finite(as_dyadic(v))

