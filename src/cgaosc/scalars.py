"""Exact scalar arithmetic: half-integers and Laurent polynomials in the
formal central-charge symbol.

Rational numbers are stdlib ``fractions.Fraction`` throughout; every
operation in this module is exact and every value is immutable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Tuple

from .errors import BadEll, NotMonomial, ZeroDivisor

Rational = Fraction


class HalfInt:
    """A half-integer q, stored as the integer 2q."""

    __slots__ = ("twice",)

    def __init__(self, twice: int):
        if not isinstance(twice, int):
            raise TypeError("twice must be an int")
        object.__setattr__(self, "twice", twice)

    def __setattr__(self, *a):
        raise AttributeError("HalfInt is immutable")

    def __reduce__(self):
        return type(self), (self.twice,)

    @classmethod
    def from_fraction(cls, q: Fraction) -> "HalfInt":
        q = Fraction(q)
        if q.denominator not in (1, 2):
            raise ValueError(f"{q} is not a half-integer")
        return cls(int(q * 2))

    def as_fraction(self) -> Fraction:
        return Fraction(self.twice, 2)

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def __add__(self, other):
        if isinstance(other, HalfInt):
            return HalfInt(self.twice + other.twice)
        if isinstance(other, int):
            return HalfInt(self.twice + 2 * other)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, HalfInt):
            return HalfInt(self.twice - other.twice)
        if isinstance(other, int):
            return HalfInt(self.twice - 2 * other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, int):
            return HalfInt(2 * other - self.twice)
        return NotImplemented

    def __neg__(self):
        return HalfInt(-self.twice)

    def __mul__(self, other):
        if isinstance(other, int):
            return HalfInt(self.twice * other)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, HalfInt):
            return self.twice == other.twice
        if isinstance(other, int):
            return self.twice == 2 * other
        if isinstance(other, Fraction):
            return self.as_fraction() == other
        return NotImplemented

    def __lt__(self, other):
        return self.twice < _twice_of(other)

    def __le__(self, other):
        return self.twice <= _twice_of(other)

    def __gt__(self, other):
        return self.twice > _twice_of(other)

    def __ge__(self, other):
        return self.twice >= _twice_of(other)

    def __hash__(self):
        return hash(self.as_fraction())

    def __repr__(self):
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"


def _twice_of(other) -> int:
    if isinstance(other, HalfInt):
        return other.twice
    if isinstance(other, int):
        return 2 * other
    raise TypeError(f"cannot compare HalfInt with {type(other)}")


def check_half_odd(ell: HalfInt) -> HalfInt:
    """Validate that ell is a positive half-odd integer (1/2, 3/2, ...)."""
    if not isinstance(ell, HalfInt):
        raise BadEll(f"ell must be a HalfInt, got {type(ell)}")
    if ell.twice <= 0 or ell.twice % 2 == 0:
        raise BadEll(f"ell must be half-odd-integer, got {ell}")
    return ell


class CScalar:
    """Laurent polynomial in the formal central charge c, with Fraction
    coefficients.  Zero coefficients are never stored."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Mapping[int, Fraction] | None = None):
        clean = {}
        if terms:
            for k, v in terms.items():
                v = Fraction(v)
                if v:
                    clean[k] = v
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("CScalar is immutable")

    def __reduce__(self):
        return type(self), (self.terms,)

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls) -> "CScalar":
        return _ZERO

    @classmethod
    def one(cls) -> "CScalar":
        return _ONE

    @classmethod
    def from_rational(cls, q) -> "CScalar":
        return cls({0: Fraction(q)})

    @classmethod
    def c_power(cls, k: int, coef=1) -> "CScalar":
        return cls({k: Fraction(coef)})

    @classmethod
    def c(cls) -> "CScalar":
        return _C

    # -- predicates ----------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def is_rational(self) -> bool:
        return not self.terms or set(self.terms) == {0}

    def as_rational(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if set(self.terms) != {0}:
            raise NotMonomial(f"{self} is not a pure rational")
        return self.terms[0]

    # -- ring operations ------------------------------------------------
    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        res = dict(self.terms)
        for k, v in other.terms.items():
            s = res.get(k, _F0) + v
            if s:
                res[k] = s
            else:
                res.pop(k, None)
        return _wrap(res)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return _wrap({k: -v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return _ZERO
            f = Fraction(other)
            return _wrap({k: v * f for k, v in self.terms.items()})
        if not isinstance(other, CScalar):
            return NotImplemented
        if len(self.terms) == 1 and len(other.terms) == 1:
            # monomial times monomial: a product of nonzero Fractions is
            # nonzero, so no zero coefficient can appear
            (k1, v1), = self.terms.items()
            (k2, v2), = other.terms.items()
            return _wrap({k1 + k2: v1 * v2})
        res: dict[int, Fraction] = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                k = k1 + k2
                s = res.get(k, _F0) + v1 * v2
                if s:
                    res[k] = s
                else:
                    del res[k]
        return _wrap(res)

    __rmul__ = __mul__

    def scale(self, f: int | Fraction) -> "CScalar":
        if f == 1:
            return self
        if not f:
            return _ZERO
        return _wrap({k: v * f for k, v in self.terms.items()})

    def div_monomial(self, other: "CScalar") -> "CScalar":
        """Exact quotient by a monomial a*c^k."""
        other = _coerce(other)
        if other.is_zero():
            raise ZeroDivisor("division by zero CScalar")
        if not other.is_monomial():
            raise NotMonomial(f"divisor {other} is not a monomial")
        (k, a), = other.terms.items()
        return _wrap({p - k: v / a for p, v in self.terms.items()})

    def try_div(self, other: "CScalar") -> "CScalar | None":
        """Exact Laurent quotient self/other, or None when not divisible."""
        other = _coerce(other)
        if other.is_zero():
            raise ZeroDivisor("division by zero CScalar")
        if self.is_zero():
            return _ZERO
        if other.is_monomial():
            return self.div_monomial(other)
        num, ns = _to_poly(self)
        den, ds = _to_poly(other)
        q, r = poly_divmod(num, den)
        if any(r):
            return None
        return _from_poly(q, ns - ds)

    def subs_c_scale(self, factor: Fraction) -> "CScalar":
        """Substitute c -> factor * c', reinterpreting the symbol.

        Used for the display-time substitution c = -(2l+1) m."""
        factor = Fraction(factor)
        return _wrap({k: v * factor ** k for k, v in self.terms.items()})

    # -- misc -----------------------------------------------------------
    def items_sorted(self) -> Iterable[Tuple[int, Fraction]]:
        return sorted(self.terms.items())

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(tuple(sorted(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for k, v in self.items_sorted():
            if k == 0:
                parts.append(str(v))
            elif k == 1:
                parts.append(f"{v}*c")
            else:
                parts.append(f"{v}*c^{k}")
        return " + ".join(parts)


_F0 = Fraction(0)


def _wrap(terms: dict) -> CScalar:
    obj = CScalar.__new__(CScalar)
    object.__setattr__(obj, "terms", terms)
    object.__setattr__(obj, "_hash", None)
    return obj


def _coerce(x):
    if isinstance(x, CScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return CScalar({0: Fraction(x)})
    return NotImplemented


_ZERO = CScalar()
_ONE = CScalar({0: Fraction(1)})
_C = CScalar({1: Fraction(1)})


# -- dense polynomial helpers (coefficients ascending in c) --------------

def _to_poly(s: CScalar):
    """CScalar -> (dense coefficient list, shift) with poly[i] = coeff of
    c^(i+shift)."""
    if not s.terms:
        return [Fraction(0)], 0
    lo = min(s.terms)
    hi = max(s.terms)
    poly = [s.terms.get(k, _F0) for k in range(lo, hi + 1)]
    return poly, lo


def _from_poly(poly, shift: int) -> CScalar:
    return _wrap({i + shift: c for i, c in enumerate(poly) if c})


def poly_trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def poly_divmod(num, den):
    num = list(num)
    den = poly_trim(list(den))
    if not den:
        raise ZeroDivisor("polynomial division by zero")
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    for i in range(len(num) - len(den), -1, -1):
        coef = num[i + len(den) - 1] / den[-1]
        if coef:
            q[i] = coef
            for j, d in enumerate(den):
                num[i + j] -= coef * d
    return poly_trim(q), poly_trim(num)
