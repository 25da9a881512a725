"""Exact value types: primitive posets, dimension vectors, weights,
linear forms and weight conditions.

All arithmetic in this module is exact (ints and `fractions.Fraction`s);
every value is immutable after construction and every operation is a pure
function, so everything here is safe to share across threads.

Variable keys for linear forms are ``"a.j.i"`` for the weight entry of
element i on branch j (both 1-based, ASCII decimal without leading zeros,
so each variable has one spelling) and ``"g"`` for the scalar on the
right-hand side of the projection relation.  The fixed key order is branch
ascending, index ascending, then ``"g"``; canonical printing and
canonicalisation both use it.  A form's integer row is canonicalised by
`linalg._primitive_row`, the one rule the descent's rows follow too.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import index, le
from typing import Iterable, Iterator, Mapping

from .linalg import _primitive_row


class PosetRepError(Exception):
    """Base class for all errors raised by this package."""


class EmptyOrNonPositiveBranch(PosetRepError):
    """Poset constructed from an empty list or with a branch length < 1."""


class ShapeMismatch(PosetRepError):
    """Value does not structurally fit the poset it is used with."""


class NonPositiveWeight(PosetRepError):
    """A weight entry that must be positive is zero or negative."""


class AmbientTooLarge(PosetRepError):
    """An ambient dimension above MAX_AMBIENT."""


# Largest ambient dimension a numeric witness or a subspace representation
# may have: both build dense ambient x ambient (or ambient-row) matrices.
MAX_AMBIENT = 512


def require_ambient(n: int) -> None:
    if n > MAX_AMBIENT:
        raise AmbientTooLarge(
            f"ambient dimension {n} is above the supported {MAX_AMBIENT}"
        )


GAMMA_KEY = "g"

_ALPHA_KEY_RE = re.compile(r"a\.([1-9][0-9]*)\.([1-9][0-9]*)")


def alpha_key(branch: int, index: int) -> str:
    """Variable key of the weight entry for element `index` on `branch`."""
    return f"a.{branch}.{index}"


@lru_cache(maxsize=4096)
def key_order(key: str) -> tuple[int, int, int]:
    """Sort tuple implementing the fixed variable order (branches, then g)."""
    if key == GAMMA_KEY:
        return (1, 0, 0)
    m = _ALPHA_KEY_RE.fullmatch(key)
    if m is None:
        raise ValueError(f"unknown variable key {key!r}")
    return (0, int(m.group(1)), int(m.group(2)))


@dataclass(frozen=True)
class PrimitivePoset:
    """Cardinal sum of chains, recorded by its branch lengths (k_1,...,k_m)."""

    branches: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            branches = tuple(map(index, self.branches))
        except TypeError:  # a length that is no integer
            branches = ()
        if not branches or min(branches) < 1:
            raise EmptyOrNonPositiveBranch(f"invalid branch lengths {self.branches}")
        object.__setattr__(self, "branches", branches)

    @property
    def width(self) -> int:
        return len(self.branches)

    @property
    def n(self) -> int:
        """Total number of elements."""
        return sum(self.branches)

    def elements(self) -> Iterator[tuple[int, int]]:
        """All (branch, index) pairs, branch-major, 1-based."""
        for j, k in enumerate(self.branches, start=1):
            for i in range(1, k + 1):
                yield (j, i)

    @cached_property
    def _variable_keys(self) -> tuple[str, ...]:
        """`variable_keys` as a tuple, built once per poset."""
        return (*(alpha_key(j, i) for j, i in self.elements()), GAMMA_KEY)

    def variable_keys(self) -> list[str]:
        """All form variable keys of this poset in canonical order, g last."""
        return list(self._variable_keys)

    def to_json(self) -> dict:
        return {"branches": list(self.branches)}

    @classmethod
    def from_json(cls, obj: Mapping) -> "PrimitivePoset":
        return cls(tuple(obj["branches"]))


def make_poset(branches: Iterable[int]) -> PrimitivePoset:
    """Build a primitive poset from its branch lengths."""
    return PrimitivePoset(tuple(branches))


@dataclass(frozen=True)
class DimVector:
    """Ambient dimension plus one non-negative integer per poset element."""

    d0: int
    branches: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        try:
            d0 = index(self.d0)
            branches = tuple(tuple(map(index, b)) for b in self.branches)
        except TypeError as exc:
            raise ShapeMismatch(
                f"non-integer entry in dimension vector {format_dim_string(self)}"
            ) from exc
        if d0 < 0 or any(e < 0 for b in branches for e in b):
            raise ShapeMismatch(f"negative entry in dimension vector {format_dim_string(self)}")
        object.__setattr__(self, "d0", d0)
        object.__setattr__(self, "branches", branches)

    def fits(self, p: PrimitivePoset) -> bool:
        return tuple(len(b) for b in self.branches) == p.branches

    def require_fits(self, p: PrimitivePoset) -> None:
        if not self.fits(p):
            raise ShapeMismatch(
                f"dimension vector {format_dim_string(self)} does not fit poset {p.branches}"
            )

    def is_admissible(self, p: PrimitivePoset) -> bool:
        """Chain-monotone (`_chain_monotone`)."""
        self.require_fits(p)
        return _chain_monotone(self.d0, self.branches)

    def entry(self, j: int, i: int) -> int:
        return self.branches[j - 1][i - 1]

    def to_json(self) -> dict:
        return {"branches": [list(b) for b in self.branches], "d0": self.d0}

    @classmethod
    def from_json(cls, obj: Mapping) -> "DimVector":
        return cls(obj["d0"], tuple(tuple(b) for b in obj["branches"]))


def _chain_monotone(d0: int, branches: Iterable[tuple[int, ...]]) -> bool:
    """0 <= d_1 <= ... <= d_k <= d0 on every branch."""
    return all(all(map(le, (0, *b), (*b, d0))) for b in branches)


def parse_dim_string(s: str) -> DimVector:
    """Parse "1,2;1,2;2;3": ';'-separated branches, final field is d0."""
    fields = [f.strip() for f in s.split(";")]
    if len(fields) < 2:
        raise ShapeMismatch(f"dimension string needs at least one branch and d0: {s!r}")
    try:
        d0 = int(fields[-1])
        branches = tuple(tuple(int(x) for x in f.split(",")) for f in fields[:-1])
    except ValueError as exc:
        raise ShapeMismatch(f"malformed dimension string {s!r}") from exc
    return DimVector(d0, branches)


def format_dim_string(d: DimVector) -> str:
    return _dim_string(d.d0, d.branches)


def _dim_string(d0: int, branches: Iterable[Iterable[int]]) -> str:
    """`format_dim_string` of the dimensions d0 and branches as they are."""
    return ";".join(",".join(str(e) for e in b) for b in branches) + f";{d0}"


# Longest numeral, and largest decimal exponent in magnitude, that a weight
# string may carry: Fraction("1e1000000") builds a million-digit integer.
MAX_NUMERAL = 4300

_EXPONENT_RE = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)")


def _numeral(s) -> Fraction:
    """Fraction(s); a string numeral must keep within the MAX_NUMERAL bounds."""
    if not isinstance(s, str):
        return Fraction(s)
    if len(s) > MAX_NUMERAL:
        raise ShapeMismatch(f"numeral longer than {MAX_NUMERAL} characters")
    m = _EXPONENT_RE.search(s)
    if m is not None and abs(int(m.group(1))) > MAX_NUMERAL:
        raise ShapeMismatch(f"numeral exponent above {MAX_NUMERAL} in magnitude")
    return Fraction(s)


def _positive_fraction(x, what: str) -> Fraction:
    v = _numeral(x)
    if v <= 0:
        raise NonPositiveWeight(f"{what} must be positive, got {v}")
    return v


@dataclass(frozen=True)
class Weight:
    """Concrete positive rational weight: one entry per element plus gamma."""

    alphas: tuple[tuple[Fraction, ...], ...]
    gamma: Fraction

    def __post_init__(self) -> None:
        alphas = tuple(
            tuple(_positive_fraction(a, "weight entry") for a in b) for b in self.alphas
        )
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "gamma", _positive_fraction(self.gamma, "gamma"))

    def fits(self, p: PrimitivePoset) -> bool:
        return tuple(len(b) for b in self.alphas) == p.branches

    def require_fits(self, p: PrimitivePoset) -> None:
        if not self.fits(p):
            raise ShapeMismatch(f"weight does not fit poset {p.branches}")

    def entry(self, j: int, i: int) -> Fraction:
        return self.alphas[j - 1][i - 1]

    def value(self, key: str) -> Fraction:
        if key == GAMMA_KEY:
            return self.gamma
        _, j, i = key_order(key)
        try:
            return self.alphas[j - 1][i - 1]
        except IndexError:  # j, i >= 1, so only past the end
            raise ShapeMismatch(f"variable {key} outside the weight's shape") from None

    def scaled(self, c) -> "Weight":
        c = Fraction(c)
        return Weight(
            tuple(tuple(a * c for a in b) for b in self.alphas), self.gamma * c
        )

    def to_json(self) -> dict:
        return {
            "alphas": [[str(a) for a in b] for b in self.alphas],
            "gamma": str(self.gamma),
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "Weight":
        # entries are converted (and numerals bounded) by __post_init__
        return cls(tuple(tuple(b) for b in obj["alphas"]), obj["gamma"])


def parse_weight_string(s: str) -> Weight:
    """Parse "1/2,3/4;1;1;2": ';'-separated branches, final field is gamma."""
    fields = [f.strip() for f in s.split(";")]
    if len(fields) < 2:
        raise ShapeMismatch(f"weight string needs at least one branch and gamma: {s!r}")
    try:
        gamma = _numeral(fields[-1])
        alphas = tuple(tuple(_numeral(x) for x in f.split(",")) for f in fields[:-1])
    except (ValueError, ZeroDivisionError) as exc:
        raise ShapeMismatch(f"malformed weight string {s!r}") from exc
    return Weight(alphas, gamma)


def format_weight_string(w: Weight) -> str:
    return ";".join(",".join(str(a) for a in b) for b in w.alphas) + f";{w.gamma}"


def _exact(v) -> int | Fraction:
    """The number v as an int when it is integral, else as a Fraction."""
    if type(v) is int:
        return v
    if type(v) is not Fraction:
        v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


class LinearForm:
    """Exact linear form over the weight variables.

    Immutable; supports +, -, scalar *, and exact evaluation at a Weight.
    The nonzero coefficients are stored once, as (key, coefficient) pairs
    in key order, each coefficient an int when it is integral and a
    Fraction otherwise (`_exact`): the two compare and hash alike, so
    equality, hashing and printing do not depend on the storage, and
    `coeffs`, `coeff` and `evaluate` return Fractions.  `canonicalized` is
    the primitive integer multiple of the coefficients
    (`linalg._primitive_row`); sign normalisation (first nonzero
    coefficient positive in key order) is applied only when requested,
    because inequality forms must keep their orientation.  A form that is
    already canonical is returned as it is.
    """

    __slots__ = ("_items", "_hash")

    def __init__(self, coeffs: Mapping[str, Fraction] | None = None):
        items = {}
        if coeffs:
            for k, v in coeffs.items():
                v = _exact(v)
                if v != 0:
                    key_order(k)  # validates
                    items[k] = v
        self._items = tuple(sorted(items.items(), key=lambda kv: key_order(kv[0])))
        self._hash = None

    @classmethod
    def _ordered(cls, items: tuple[tuple[str, int | Fraction], ...]) -> "LinearForm":
        """The form of items, valid keys in key order with nonzero
        coefficients stored as `_exact` stores them, built without checking
        them."""
        form = cls.__new__(cls)
        form._items = items
        form._hash = None
        return form

    @classmethod
    def variable(cls, key: str) -> "LinearForm":
        return cls({key: 1})

    @property
    def coeffs(self) -> dict[str, Fraction]:
        return {k: Fraction(v) for k, v in self._items}

    def coeff(self, key: str) -> Fraction:
        return Fraction(next((v for k, v in self._items if k == key), 0))

    def is_zero(self) -> bool:
        return not self._items

    def variables(self) -> set[str]:
        return {k for k, _ in self._items}

    def __add__(self, other: "LinearForm") -> "LinearForm":
        out = dict(self._items)
        for k, v in other._items:
            out[k] = out.get(k, 0) + v
        return LinearForm(out)

    def __sub__(self, other: "LinearForm") -> "LinearForm":
        return self + (-other)

    def __neg__(self) -> "LinearForm":
        return LinearForm({k: -v for k, v in self._items})

    def __mul__(self, c) -> "LinearForm":
        c = Fraction(c)
        return LinearForm({k: v * c for k, v in self._items})

    __rmul__ = __mul__

    def evaluate(self, w: Weight) -> Fraction:
        return sum((v * w.value(k) for k, v in self._items), Fraction(0))

    def canonicalized(self, sign_normalize: bool = False) -> "LinearForm":
        values = [v for _, v in self._items]
        row = _primitive_row(values, sign_normalize)
        if row is values:
            return self
        return LinearForm._ordered(tuple((k, v) for (k, _), v in zip(self._items, row)))

    def __eq__(self, other) -> bool:
        return isinstance(other, LinearForm) and self._items == other._items

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._items)
        return self._hash

    def __repr__(self) -> str:
        if not self._items:
            return "LinearForm(0)"
        parts = [f"{v}*{k}" for k, v in self._items]
        return "LinearForm(" + " + ".join(parts) + ")"

    def to_json(self) -> dict:
        return {k: str(v) for k, v in self._items}

    @classmethod
    def from_json(cls, obj: Mapping[str, str]) -> "LinearForm":
        return cls({k: _numeral(v) for k, v in obj.items()})


EQ_ZERO = "eq0"
LT_ZERO = "lt0"


@dataclass(frozen=True)
class Condition:
    """A single weight condition: form = 0 or form < 0, stored canonically."""

    form: LinearForm
    rel: str

    def __post_init__(self) -> None:
        if self.rel not in (EQ_ZERO, LT_ZERO):
            raise ValueError(f"unknown relation {self.rel!r}")
        object.__setattr__(
            self, "form", self.form.canonicalized(sign_normalize=self.rel == EQ_ZERO)
        )

    @classmethod
    def _canonical(cls, form: LinearForm, rel: str) -> "Condition":
        """The condition form rel for a form already canonical for rel
        (`linalg._primitive_row`) and a valid rel, built without checking
        either; the counterpart of `LinearForm._ordered`."""
        cond = cls.__new__(cls)
        object.__setattr__(cond, "form", form)
        object.__setattr__(cond, "rel", rel)
        return cond

    def holds_at(self, w: Weight) -> bool:
        v = self.form.evaluate(w)
        return v == 0 if self.rel == EQ_ZERO else v < 0

    def to_json(self) -> dict:
        return {"coeffs": self.form.to_json(), "rel": self.rel}

    @classmethod
    def from_json(cls, obj: Mapping) -> "Condition":
        return cls(LinearForm.from_json(obj["coeffs"]), obj["rel"])


class ConditionSet:
    """Deduplicated, order-preserving collection of canonical conditions.

    Equality and hashing are set-like (insertion order is kept only for
    deterministic printing).
    """

    __slots__ = ("_conditions", "_set")

    def __init__(self, conditions: Iterable[Condition] = ()):
        seen = set()
        ordered = []
        for c in conditions:
            if c not in seen:
                seen.add(c)
                ordered.append(c)
        self._conditions = tuple(ordered)
        self._set = frozenset(seen)

    def __iter__(self) -> Iterator[Condition]:
        return iter(self._conditions)

    def __len__(self) -> int:
        return len(self._conditions)

    def __contains__(self, c: Condition) -> bool:
        return c in self._set

    def __eq__(self, other) -> bool:
        return isinstance(other, ConditionSet) and self._set == other._set

    def __hash__(self) -> int:
        return hash(self._set)

    def __repr__(self) -> str:
        return f"ConditionSet({list(self._conditions)!r})"

    @property
    def equalities(self) -> tuple[Condition, ...]:
        return tuple(c for c in self._conditions if c.rel == EQ_ZERO)

    @property
    def inequalities(self) -> tuple[Condition, ...]:
        return tuple(c for c in self._conditions if c.rel == LT_ZERO)

    def variables(self) -> set[str]:
        out: set[str] = set()
        for c in self._conditions:
            out |= c.form.variables()
        return out

    def holds_at(self, w: Weight) -> bool:
        return all(c.holds_at(w) for c in self._conditions)

    def to_json(self) -> list:
        return [c.to_json() for c in self._conditions]

    @classmethod
    def from_json(cls, obj: Iterable[Mapping]) -> "ConditionSet":
        return cls(Condition.from_json(c) for c in obj)


@dataclass(frozen=True)
class SymbolicWeight:
    """A weight whose entries are linear forms in the original variables."""

    branch_forms: tuple[tuple[LinearForm, ...], ...]
    gamma_form: LinearForm

    @classmethod
    def identity(cls, p: PrimitivePoset) -> "SymbolicWeight":
        return cls(
            tuple(
                tuple(LinearForm.variable(alpha_key(j, i)) for i in range(1, k + 1))
                for j, k in enumerate(p.branches, start=1)
            ),
            LinearForm.variable(GAMMA_KEY),
        )

    def fits(self, p: PrimitivePoset) -> bool:
        return tuple(len(b) for b in self.branch_forms) == p.branches

    def entry(self, j: int, i: int) -> LinearForm:
        return self.branch_forms[j - 1][i - 1]

    def evaluate(self, w: Weight) -> Weight:
        """Concrete weight obtained by evaluating every form at w."""
        return Weight(
            tuple(tuple(f.evaluate(w) for f in b) for b in self.branch_forms),
            self.gamma_form.evaluate(w),
        )

    def to_json(self) -> dict:
        return {
            "branches": [[f.to_json() for f in b] for b in self.branch_forms],
            "gamma": self.gamma_form.to_json(),
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "SymbolicWeight":
        return cls(
            tuple(
                tuple(LinearForm.from_json(f) for f in b) for b in obj["branches"]
            ),
            LinearForm.from_json(obj["gamma"]),
        )


# --- degeneracy classification -------------------------------------------

ZERO = "zero"
MERGE = "merge"
FULL = "full"


@dataclass(frozen=True)
class Finding:
    """One degeneracy: kind is zero (d=0), merge (d_i=d_{i+1}) or full (d=d0)."""

    kind: str
    branch: int
    index: int


def _reduce(d0: int, dims: Iterable[Iterable[int]], forms: Iterable[Iterable],
            gamma_form) -> tuple[tuple, tuple, object, tuple[Finding, ...]]:
    """One reduction pass: delete zero-dimensional elements, merge
    chain-adjacent elements of equal dimension (summing their forms), then
    delete elements of dimension d0 (subtracting their forms from the
    gamma form); branches left empty are dropped.

    Returns the reduced dims, forms and gamma form, and the findings in
    firing order: zeros, then merges, then fulls, each branch-major.  A
    position is one of the state its rule fired in: a zero's in the branch
    as given, a merge's once the zeros and earlier merges are done, a
    full's once all merges are done.
    """
    zeros, merges, fulls = [], [], []
    out_dims, out_forms = [], []
    for j, (branch_dims, branch_forms) in enumerate(zip(dims, forms), start=1):
        kept_d: list[int] = []
        kept_f: list = []
        for i, (e, f) in enumerate(zip(branch_dims, branch_forms), start=1):
            if e == 0:
                zeros.append(Finding(ZERO, j, i))
            elif kept_d and kept_d[-1] == e:
                kept_f[-1] = kept_f[-1] + f
                merges.append(Finding(MERGE, j, len(kept_d)))
            else:
                kept_d.append(e)
                kept_f.append(f)
        left_d, left_f = [], []
        for i, (e, f) in enumerate(zip(kept_d, kept_f), start=1):
            if e == d0:
                gamma_form = gamma_form - f
                fulls.append(Finding(FULL, j, i))
            else:
                left_d.append(e)
                left_f.append(f)
        if left_d:
            out_dims.append(tuple(left_d))
            out_forms.append(tuple(left_f))
    return tuple(out_dims), tuple(out_forms), gamma_form, tuple(zeros + merges + fulls)


def classify_degeneracy(p: PrimitivePoset, d: DimVector) -> tuple[Finding, ...]:
    """The findings of one reduction pass (`_reduce`) on d, in the order
    they fire; positions are those of the state each rule fired in.  d is
    non-degenerate exactly when there are none.  The findings depend on
    the dimensions alone, so the pass carries them as its forms too."""
    d.require_fits(p)
    return _reduce(d.d0, d.branches, d.branches, d.d0)[3]


def trace_condition(p: PrimitivePoset, d: DimVector) -> Condition:
    """Necessary equality sum_i d_i a_i - d0 g = 0 (take traces of the
    projection relation)."""
    d.require_fits(p)
    coeffs = {GAMMA_KEY: -d.d0}
    for j, i in p.elements():
        coeffs[alpha_key(j, i)] = d.entry(j, i)
    return Condition(LinearForm(coeffs), EQ_ZERO)


# --- rendering and parsing of forms --------------------------------------

_GREEK = ["α", "β", "δ", "ε", "ζ", "η", "θ", "κ", "λ", "μ"]
_LATEX = ["\\alpha", "\\beta", "\\delta", "\\epsilon", "\\zeta", "\\eta",
          "\\theta", "\\kappa", "\\lambda", "\\mu"]
_ASCII = ["a", "b", "d", "e", "z", "h", "t", "k", "l", "m"]
_SUBSCRIPT = str.maketrans("0123456789", "₀₁₂₃₄₅₆₇₈₉")


def _var_name(key: str, p: PrimitivePoset, style: str) -> str:
    if key == GAMMA_KEY:
        return {"text": "γ", "latex": "\\gamma", "ascii": "g"}[style]
    _, j, i = key_order(key)
    if j > len(p.branches) or i > p.branches[j - 1]:
        raise ShapeMismatch(f"variable {key} outside poset {p.branches}")
    letters = {"text": _GREEK, "latex": _LATEX, "ascii": _ASCII}[style]
    if j > len(letters):
        raise ShapeMismatch(f"no display letter for branch {j}")
    name = letters[j - 1]
    if p.branches[j - 1] == 1:
        return name
    if style == "text":
        return name + str(i).translate(_SUBSCRIPT)
    if style == "latex":
        return name + "_" + (str(i) if i < 10 else "{%d}" % i)
    return name + str(i)


@lru_cache(maxsize=96)  # each style of 32 posets
def _names(p: PrimitivePoset, style: str) -> dict[str, str]:
    """The `_var_name` of each variable of p in style, built once per
    (poset, style); a branch with no display letter has no entry."""
    return {k: _var_name(k, p, style) for k in p._variable_keys
            if key_order(k)[1] <= len(_GREEK)}


def _render_side(terms: list[tuple[str, int | Fraction]], p: PrimitivePoset, style: str) -> str:
    if not terms:
        return "0"
    names = _names(p, style)
    parts = []
    for key, c in terms:
        # a key with no entry is refused by `_var_name`'s ShapeMismatch
        name = names[key] if key in names else _var_name(key, p, style)
        parts.append(name if c == 1 else f"{c}{name}")
    return "+".join(parts)


def render_condition(cond: Condition, p: PrimitivePoset, style: str = "text") -> str:
    """Table-style rendering: positive terms on the left, negated negative
    terms on the right, so ``g - b - d < 0`` prints as "γ<β+δ"."""
    pos, neg = [], []
    for key, c in cond.form._items:
        (pos if c > 0 else neg).append((key, abs(c)))
    rel = "=" if cond.rel == EQ_ZERO else "<"
    return _render_side(pos, p, style) + rel + _render_side(neg, p, style)


def render_condition_set(cs: ConditionSet, p: PrimitivePoset, style: str = "text",
                         sep: str = ", ") -> str:
    ordered = list(cs.inequalities) + list(cs.equalities)
    return sep.join(render_condition(c, p, style) for c in ordered)


_TERM_RE = re.compile(r"^(\d+(?:/\d+)?)?([a-z])(\d+)?$")


def _parse_side(side: str, p: PrimitivePoset) -> LinearForm:
    side = side.replace(" ", "")
    if side == "0":
        return LinearForm()
    total = LinearForm()
    sign = 1
    for chunk in re.split(r"([+-])", side):
        if chunk == "+":
            sign = 1
        elif chunk == "-":
            sign = -1
        elif chunk:
            m = _TERM_RE.match(chunk)
            if m is None:
                raise ShapeMismatch(f"cannot parse term {chunk!r}")
            coef = Fraction(m.group(1)) if m.group(1) else Fraction(1)
            letter, idx = m.group(2), m.group(3)
            if letter == "g":
                key = GAMMA_KEY
            else:
                try:
                    j = _ASCII.index(letter) + 1
                except ValueError:
                    raise ShapeMismatch(f"unknown variable letter {letter!r}") from None
                i = int(idx) if idx else 1
                if j > p.width or not 1 <= i <= p.branches[j - 1]:
                    raise ShapeMismatch(f"variable {chunk!r} outside poset {p.branches}")
                key = alpha_key(j, i)
            total = total + LinearForm({key: sign * coef})
    return total


def parse_condition_text(s: str, p: PrimitivePoset) -> Condition:
    """Parse ASCII condition text like "a1+2a2+b2+d<2g" or "a2=g".

    Branch letters follow the table convention a, b, d, ... (g is the
    right-hand scalar); the index is omitted on branches of length 1.
    """
    for rel, tag in (("<", LT_ZERO), ("=", EQ_ZERO)):
        if rel in s:
            lhs, rhs = s.split(rel, 1)
            return Condition(_parse_side(lhs, p) - _parse_side(rhs, p), tag)
    raise ShapeMismatch(f"no relation in condition {s!r}")
