"""Exact scalar arithmetic: half-integers and Laurent polynomials in the
formal central-charge symbol, and the linear-combination core built on
them: LinComb, the sparse {key: CScalar} structure of every operator,
function and algebra element, and the raw accumulator that sums many
products before any CScalar is made.

Rational numbers are stdlib ``fractions.Fraction`` throughout; every
operation in this module is exact and every value is immutable.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Tuple

from .errors import BadEll, NotMonomial, ZeroDivisor


def rational(q) -> Fraction:
    """The one way a number from outside becomes a coefficient: an int
    (not a bool) or a Fraction; anything else, a float included, raises
    TypeError."""
    if isinstance(q, Fraction):
        return q
    if isinstance(q, int) and not isinstance(q, bool):
        return Fraction(q)
    raise TypeError(f"an exact coefficient is an int or a Fraction, "
                    f"not {type(q).__name__}")


class HalfInt:
    """A half-integer q, stored as the integer 2q.  Its arithmetic and
    comparisons take HalfInt operands only."""

    __slots__ = ("twice",)

    def __init__(self, twice: int):
        if not isinstance(twice, int) or isinstance(twice, bool):
            raise TypeError("twice must be an int")
        object.__setattr__(self, "twice", twice)

    def __setattr__(self, *a):
        raise AttributeError("HalfInt is immutable")

    def __reduce__(self):
        return type(self), (self.twice,)

    @classmethod
    def from_fraction(cls, q: Fraction) -> "HalfInt":
        q = rational(q)
        if q.denominator not in (1, 2):
            raise ValueError(f"{q} is not a half-integer")
        return cls(int(q * 2))

    def as_fraction(self) -> Fraction:
        return Fraction(self.twice, 2)

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def __add__(self, other):
        if not isinstance(other, HalfInt):
            return NotImplemented
        return HalfInt(self.twice + other.twice)

    def __sub__(self, other):
        if not isinstance(other, HalfInt):
            return NotImplemented
        return HalfInt(self.twice - other.twice)

    def __neg__(self):
        return HalfInt(-self.twice)

    def __eq__(self, other):
        if not isinstance(other, HalfInt):
            return NotImplemented
        return self.twice == other.twice

    def __lt__(self, other):
        if not isinstance(other, HalfInt):
            return NotImplemented
        return self.twice < other.twice

    def __hash__(self):
        return hash(self.as_fraction())

    def __repr__(self):
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"


def check_half_odd(ell: HalfInt) -> HalfInt:
    """Validate that ell is a positive half-odd integer (1/2, 3/2, ...)."""
    if not isinstance(ell, HalfInt):
        raise BadEll(f"ell must be a HalfInt, got {type(ell)}")
    if ell.twice <= 0 or ell.twice % 2 == 0:
        raise BadEll(f"ell must be a positive half-odd integer, got {ell}")
    return ell


class CScalar:
    """Laurent polynomial in the formal central charge c, with Fraction
    coefficients.  Zero coefficients are never stored."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, Fraction] | None = None):
        clean = {}
        if terms:
            for k, v in terms.items():
                v = rational(v)
                if v:
                    clean[k] = v
        object.__setattr__(self, "terms", clean)

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
        return cls({0: q})

    @classmethod
    def c_power(cls, k: int, coef=1) -> "CScalar":
        return cls({k: coef})

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
        return self + (-other)

    def __neg__(self):
        return _wrap({k: -v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, CScalar):
            return NotImplemented
        return _wrap(raw_mul(self.terms, other.terms))

    __rmul__ = __mul__

    def scale(self, f: int | Fraction) -> "CScalar":
        f = rational(f)
        if f == 1:
            return self
        if not f:
            return _ZERO
        return _wrap({k: v * f for k, v in self.terms.items()})

    def div_monomial(self, other: "CScalar") -> "CScalar":
        """Exact quotient by a monomial a*c^k."""
        if other.is_zero():
            raise ZeroDivisor("division by zero CScalar")
        if not other.is_monomial():
            raise NotMonomial(f"divisor {other} is not a monomial")
        (k, a), = other.terms.items()
        return _wrap({p - k: v / a for p, v in self.terms.items()})

    def subs_c_scale(self, factor: Fraction) -> "CScalar":
        """Substitute c -> factor * c', reinterpreting the symbol.

        Used for the display-time substitution c = -(2l+1) m."""
        factor = rational(factor)
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
        # a pure rational hashes as its Fraction, which it equals
        return (hash(self.as_rational()) if self.is_rational()
                else hash(tuple(sorted(self.terms.items()))))

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
    return obj


def _coerce(x):
    if isinstance(x, CScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return CScalar.from_rational(x)
    return NotImplemented


_ZERO = CScalar()
_ONE = CScalar({0: Fraction(1)})
_C = CScalar({1: Fraction(1)})


# -- the raw accumulator -----------------------------------------------------
# A sum of many products is accumulated as {key: {c-power: numerator}} over
# one denominator and made into CScalars once, by from_raw, instead of one
# CScalar per product.  The numerators are ints wherever the operands came
# from numerators(); a rational factor (an e^{mu s} derivative) makes them
# Fractions, which the same sums accept.

def numerators(terms: Mapping) -> Tuple[dict, int]:
    """The raw {key: {c-power: int}} numerators of a {key: CScalar} map
    over den, the LCM of the coefficients' denominators, and den."""
    den = lcm(*(q.denominator for c in terms.values()
                for q in c.terms.values()))
    return ({key: {k: q.numerator * (den // q.denominator)
                   for k, q in c.terms.items()}
             for key, c in terms.items()}, den)


def raw_mul(t1: dict, t2: dict) -> dict:
    """Product of two raw {c-power: int or Fraction} maps; no zero is
    stored."""
    if len(t1) == 1 and len(t2) == 1:
        # monomial times monomial: a product of nonzero values is
        # nonzero, so no zero coefficient can appear
        (k1, q1), = t1.items()
        (k2, q2), = t2.items()
        return {k1 + k2: q1 * q2}
    res: dict = {}
    for k1, q1 in t1.items():
        for k2, q2 in t2.items():
            k = k1 + k2
            s = res.get(k, 0) + q1 * q2
            if s:
                res[k] = s
            else:
                del res[k]
    return res


def raw_acc(res: dict, key, base: dict, factor) -> None:
    """res[key] += factor * base, for a raw map base and an int or
    Fraction factor."""
    acc = res.get(key)
    if acc is None:
        acc = {}
        res[key] = acc
    if factor == 1:  # the common case: skip the products
        for k, q in base.items():
            acc[k] = acc.get(k, 0) + q
    else:
        for k, q in base.items():
            acc[k] = acc.get(k, 0) + q * factor


def from_raw(res: dict, den: int) -> dict:
    """The {key: CScalar} terms of an accumulator over den, without the
    keys whose sums cancelled; every coefficient is a Fraction."""
    out = {}
    for key, raw in res.items():
        terms = {k: Fraction(q, den) for k, q in raw.items() if q}
        if terms:
            out[key] = _wrap(terms)
    return out


# -- the linear-combination core ----------------------------------------------

class LinComb:
    """Immutable finite linear combination {key: CScalar}; no zero
    coefficient is stored.

    A subclass lists the slots that fix its space (a chart, a Gaussian
    weight) in __slots__, takes them before the terms in its constructor
    and validates its keys there.  It overrides _check to refuse an
    operand from another space, and may override _space (what equality
    compares besides the terms) and _order (how terms sort).  Operands
    of different classes do not combine."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping | None = None):
        clean = {}
        if terms:
            for k, v in terms.items():
                if not isinstance(v, CScalar):
                    v = CScalar.from_rational(v)
                if v:
                    clean[k] = v
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        space = tuple(getattr(self, name) for name in self.__slots__)
        return type(self), space + (self.terms,)

    def _like(self, terms: dict) -> "LinComb":
        """An element of self's space with the given nonzero terms."""
        obj = object.__new__(type(self))
        for name in self.__slots__:
            object.__setattr__(obj, name, getattr(self, name))
        object.__setattr__(obj, "terms", terms)
        return obj

    def _check(self, other) -> None:
        """Raise when other lives in another space than self."""

    def _space(self) -> tuple:
        """What, besides the terms, two equal elements share."""
        return tuple(getattr(self, name) for name in self.__slots__)

    @staticmethod
    def _order(key):
        """The sort key of a term key."""
        return key

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        res = dict(self.terms)
        for k, v in other.terms.items():
            s = res.get(k)
            if s is None:
                res[k] = v
            else:
                s = s + v
                if s:
                    res[k] = s
                else:
                    del res[k]
        return (self if self.terms else other)._like(res)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._like({k: -v for k, v in self.terms.items()})

    def scaled(self, coef) -> "LinComb":
        """coef * self, for a CScalar, int or Fraction coef."""
        if not coef:
            return self._like({})
        return self._like({k: v * coef for k, v in self.terms.items()})

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: self._order(kv[0]))

    def head(self, k: int) -> "LinComb":
        """The first k terms, in sorted order."""
        return self._like(dict(self.sorted_terms()[:k]))

    def proportionality(self, other: "LinComb") -> "CScalar | None":
        """The r with self == r * other, or None.  The ratio is read at
        other's largest key, whose coefficient must be a single power of
        c (NotMonomial otherwise), and confirmed exactly, space
        included."""
        if not other.terms:
            return _ZERO if self == other else None
        key = max(other.terms, key=other._order)
        r = self.terms.get(key, _ZERO).div_monomial(other.terms[key])
        if self == other.scaled(r):
            return r
        return None

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms and self._space() == other._space()

    def __hash__(self):
        return hash((self._space(), tuple(self.sorted_terms())))
