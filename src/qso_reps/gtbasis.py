"""Gel'fand-Tsetlin tableaux for the classical and nonclassical irrep families.

A tableau is a stack of weight rows, one per level from n down to 2, where a
row at level k has floor(k/2) half-integer entries and adjacent rows obey the
interleaving ("betweenness") chains of the family.  Classical rows may carry a
signed last entry at even levels; nonclassical rows are bounded below by 1/2
everywhere and carry a sign vector eps on the label instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

from .qarith import HalfInt, ValidationError

CLASSICAL = "classical"
NONCLASSICAL = "nonclassical"

HALF = HalfInt(1)
ZERO = HalfInt(0)


def _as_row(entries) -> tuple[HalfInt, ...]:
    return tuple(HalfInt.of(e) for e in entries)


def row_size(level: int) -> int:
    return level // 2


def weight_is_dominant(m: tuple[HalfInt, ...], level: int, kind: str) -> bool:
    """Dominance for a weight row heading level `level` tableaux."""
    if len(m) != row_size(level):
        return False
    if kind == NONCLASSICAL:
        if any(e.twice % 2 == 0 for e in m):
            return False
        return all(m[i] >= m[i + 1] for i in range(len(m) - 1)) and m[-1] >= HALF
    parities = {e.twice % 2 for e in m}
    if len(parities) > 1:
        return False
    if not all(m[i] >= m[i + 1] for i in range(len(m) - 1)):
        return False
    if level % 2 == 1:
        return m[-1] >= ZERO
    # even level: the last entry may be negative but not exceed its neighbour
    return len(m) < 2 or m[-2] >= abs(m[-1])


def _lower_bounds_upper(upper: tuple[HalfInt, ...], upper_level: int,
                        kind: str) -> list[tuple[HalfInt, HalfInt]]:
    """Entry ranges for the row directly below `upper`."""
    p = row_size(upper_level)
    if upper_level % 2 == 1:
        # odd level 2p+1 over even level 2p, both p entries
        lo_last = -upper[p - 1] if kind == CLASSICAL else HALF
        ranges = [(upper[j + 1], upper[j]) for j in range(p - 1)]
        ranges.append((lo_last, upper[p - 1]))
        return ranges
    # even level 2p over odd level 2p-1 with p-1 entries
    if p == 1:
        return []
    lo_last = abs(upper[p - 1]) if kind == CLASSICAL else upper[p - 1]
    ranges = [(upper[j + 1], upper[j]) for j in range(p - 2)]
    ranges.append((lo_last, upper[p - 2]))
    return ranges


def covers(upper: tuple[HalfInt, ...], lower: tuple[HalfInt, ...],
           upper_level: int, kind: str) -> bool:
    """Betweenness between a row at `upper_level` and the row below it."""
    ranges = _lower_bounds_upper(upper, upper_level, kind)
    if len(lower) != len(ranges):
        return False
    return all(lo <= x <= hi for x, (lo, hi) in zip(lower, ranges))


def rows_below(upper: tuple[HalfInt, ...], upper_level: int,
               kind: str) -> list[tuple[HalfInt, ...]]:
    """All rows admissible below `upper`, in decreasing lexicographic order."""
    ranges = _lower_bounds_upper(upper, upper_level, kind)
    choices = []
    for lo, hi in ranges:
        choices.append([HalfInt(t) for t in range(hi.twice, lo.twice - 1, -2)])
    return [tuple(combo) for combo in product(*choices)]


def rows_above(lower: tuple[HalfInt, ...], upper_level: int, kind: str,
               cap: HalfInt) -> list[tuple[HalfInt, ...]]:
    """Rows at `upper_level` admissible above `lower`, first entry capped."""
    p = row_size(upper_level)
    ranges: list[tuple[HalfInt, HalfInt]] = []
    if upper_level % 2 == 1:
        # odd 2p+1 over even 2p (p entries below); last upper entry must also
        # dominate the sign of the last lower entry
        for j in range(p):
            lo = lower[j] if kind == NONCLASSICAL else (
                abs(lower[j]) if j == p - 1 else lower[j])
            hi = cap if j == 0 else lower[j - 1]
            ranges.append((lo, hi))
    else:
        # even 2p over odd 2p-1 (p-1 entries below); last upper entry is the
        # signed one
        for j in range(p - 1):
            ranges.append((lower[j], cap if j == 0 else lower[j - 1]))
        if p == 1:
            ranges.append((HALF if kind == NONCLASSICAL else -cap, cap))
        else:
            lo = HALF if kind == NONCLASSICAL else -lower[p - 2]
            ranges.append((lo, lower[p - 2]))
    choices = []
    for lo, hi in ranges:
        choices.append([HalfInt(t) for t in range(hi.twice, lo.twice - 1, -2)])
    rows = [tuple(combo) for combo in product(*choices)]
    return [r for r in rows if weight_is_dominant(r, upper_level, kind)
            and covers(r, lower, upper_level, kind)]


@dataclass(frozen=True)
class IrrepLabel:
    """Irrep label: rank, family kind, top weight row, and signs for the
    nonclassical family (eps[i] is the sign attached to generator i+2)."""

    n: int
    kind: str
    m_top: tuple[HalfInt, ...]
    eps: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.n < 2:
            raise ValidationError(f"rank must be >= 2, got n={self.n}")
        if self.kind not in (CLASSICAL, NONCLASSICAL):
            raise ValidationError(f"unknown kind {self.kind!r}")
        object.__setattr__(self, "m_top", _as_row(self.m_top))
        if len(self.m_top) != row_size(self.n):
            raise ValidationError(
                f"weight must have {row_size(self.n)} entries for n={self.n}, "
                f"got {len(self.m_top)}")
        if not weight_is_dominant(self.m_top, self.n, self.kind):
            raise ValidationError(
                f"weight {self.m_top} is not dominant for n={self.n} ({self.kind})")
        if self.kind == NONCLASSICAL:
            if self.eps is None or len(self.eps) != self.n - 1:
                raise ValidationError(
                    f"nonclassical label needs {self.n - 1} signs, got {self.eps}")
            object.__setattr__(self, "eps", tuple(int(e) for e in self.eps))
            if any(e not in (-1, 1) for e in self.eps):
                raise ValidationError("eps entries must be +1 or -1")
        elif self.eps is not None:
            raise ValidationError("classical labels carry no eps")

    def eps_for(self, index: int) -> int:
        """Sign attached to generator index (2..n); classical labels have none."""
        assert self.eps is not None and 2 <= index <= self.n
        return self.eps[index - 2]

    def with_weight(self, m: tuple[HalfInt, ...]) -> "IrrepLabel":
        return IrrepLabel(self.n, self.kind, m, self.eps)

    def to_jsonable(self) -> dict:
        """Rank, kind, doubled weight entries and eps (None if classical)."""
        return {"n": self.n, "kind": self.kind,
                "weight": [e.twice for e in self.m_top],
                "eps": list(self.eps) if self.eps else None}

    def __repr__(self) -> str:
        w = ",".join(str(e) for e in self.m_top)
        if self.kind == NONCLASSICAL:
            signs = "".join("+" if e > 0 else "-" for e in self.eps)
            return f"so{self.n}[{w};{signs}]"
        return f"so{self.n}({w})"


@dataclass(frozen=True)
class GTPattern:
    """One tableau: weight rows for levels n, n-1, ..., 2 (top first)."""

    rows: tuple[tuple[HalfInt, ...], ...]

    @property
    def n(self) -> int:
        return len(self.rows) + 1

    def row(self, level: int) -> tuple[HalfInt, ...]:
        return self.rows[self.n - level]

    def m(self, level: int, j: int) -> HalfInt:
        """Entry j (1-based) of the row at `level`."""
        return self.rows[self.n - level][j - 1]

    @property
    def m12(self) -> HalfInt:
        return self.rows[-1][0]

    def replace(self, level: int, j: int, delta: int) -> "GTPattern":
        """New tableau with entry j (1-based) at `level` shifted by delta."""
        i = self.n - level
        row = list(self.rows[i])
        row[j - 1] = row[j - 1] + delta
        rows = self.rows[:i] + (tuple(row),) + self.rows[i + 1:]
        return GTPattern(rows)

    def is_valid(self, kind: str) -> bool:
        return all(covers(self.rows[i], self.rows[i + 1], self.n - i, kind)
                   for i in range(len(self.rows) - 1))

    def prefix(self, level: int) -> tuple[tuple[HalfInt, ...], ...]:
        """Rows from `level` down to 2 (the sub-tableau shared in lookups)."""
        return self.rows[self.n - level:]

    def to_jsonable(self) -> list[list[int]]:
        """Rows top first, each as doubled entries."""
        return [[e.twice for e in row] for row in self.rows]

    def __repr__(self) -> str:
        return "|" + ";".join(",".join(str(e) for e in r) for r in self.rows) + ">"


def extend_pattern(top: tuple[HalfInt, ...], pattern: GTPattern) -> GTPattern:
    """Tableau of the next rank obtained by stacking `top` above `pattern`."""
    return GTPattern((_as_row(top),) + pattern.rows)


@dataclass(frozen=True)
class BasisIndex:
    """Deterministically ordered tableau basis with O(1) pattern lookup."""

    label: IrrepLabel
    patterns: tuple[GTPattern, ...]
    index: dict = field(compare=False, hash=False, repr=False)

    @property
    def dim(self) -> int:
        return len(self.patterns)

    def position(self, pattern: GTPattern) -> int:
        return self.index[pattern]

    def to_jsonable(self) -> dict:
        return {**self.label.to_jsonable(),
                "patterns": [p.to_jsonable() for p in self.patterns]}


@lru_cache(maxsize=None)
def enumerate_patterns(label: IrrepLabel) -> BasisIndex:
    """All tableaux under `label`, ordered lexicographically decreasing by
    rows from level n-1 down to level 2 (entries left to right)."""
    stacks: list[tuple[tuple[HalfInt, ...], ...]] = [(label.m_top,)]
    for level in range(label.n, 2, -1):
        stacks = [s + (lower,) for s in stacks
                  for lower in rows_below(s[-1], level, label.kind)]
    patterns = tuple(GTPattern(rows) for rows in stacks)
    index = {p: i for i, p in enumerate(patterns)}
    return BasisIndex(label, patterns, index)


def dimension(label: IrrepLabel) -> int:
    return enumerate_patterns(label).dim


def l_coords(row: tuple[HalfInt, ...], level: int) -> tuple[HalfInt, ...]:
    """Shifted weight coordinates: m_j + p - j + 1 at level 2p+1,
    m_j + p - j at level 2p (j counted from 1)."""
    if len(row) != row_size(level):
        raise ValidationError(
            f"row of length {len(row)} does not match level {level}")
    p = row_size(level)
    if level % 2 == 1:
        return tuple(row[i] + (p - i) for i in range(p))
    return tuple(row[i] + (p - i - 1) for i in range(p))


@dataclass(frozen=True)
class BranchTarget:
    """One summand of the vector-representation tensor branching."""

    row: tuple[HalfInt, ...]
    tag: str  # "up" | "down" | "self" | "replaced"


@lru_cache(maxsize=None)
def branching_set(m: tuple[HalfInt, ...], level: int,
                  kind: str) -> tuple[BranchTarget, ...]:
    """Weights reached from `m` when tensoring with the vector representation.

    Shifts of one entry by +/-1 with non-dominant results dropped; at odd
    levels the weight itself joins (classical: unless its last entry is 0);
    nonclassical even levels with last entry 1/2 trade the final lowering for
    the weight itself, flagged "replaced" so coupling code can special-case it.
    """
    m = _as_row(m)
    if not weight_is_dominant(m, level, kind):
        raise ValidationError(f"{m} is not dominant at level {level} ({kind})")
    p = len(m)
    out: list[BranchTarget] = []
    for j in range(p):
        up = m[:j] + (m[j] + 1,) + m[j + 1:]
        if weight_is_dominant(up, level, kind):
            out.append(BranchTarget(up, "up"))
    for j in range(p):
        down = m[:j] + (m[j] - 1,) + m[j + 1:]
        if kind == NONCLASSICAL and level % 2 == 0 and j == p - 1 and m[j] == HALF:
            out.append(BranchTarget(m, "replaced"))
            continue
        if weight_is_dominant(down, level, kind):
            out.append(BranchTarget(down, "down"))
    if level % 2 == 1:
        if kind == NONCLASSICAL or m[p - 1] > ZERO:
            out.append(BranchTarget(m, "self"))
    return tuple(out)


@lru_cache(maxsize=None)
def branch_rows(m: tuple[HalfInt, ...], level: int, kind: str) -> frozenset[tuple[HalfInt, ...]]:
    return frozenset(t.row for t in branching_set(m, level, kind))


def first_completion(row: tuple[HalfInt, ...], level: int,
                     kind: str) -> tuple[tuple[HalfInt, ...], ...]:
    """Rows level-1 .. 2 filled with the lexicographically first choice."""
    out = []
    current, lvl = row, level
    while lvl > 2:
        current = rows_below(current, lvl, kind)[0]
        out.append(current)
        lvl -= 1
    return tuple(out)
