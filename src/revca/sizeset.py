"""Eventually periodic sets of integers >= 0, in one canonical form.

The irreversible lattice sizes of a rule and the levels at which a
minimized-tree node occurs are both such sets; `SizeSet.periodic` is the one
constructor that canonicalizes them, from a bitmask of the members.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True, order=True)
class IrreversibilityExpression:
    """The size set {n >= min_n : n == residue (mod modulus)}.

    A final segment n >= min_n is encoded with modulus 1 (residue 0).
    """

    min_n: int
    modulus: int
    residue: int

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {self.modulus}")
        if not 0 <= self.residue < self.modulus:
            raise ValueError(f"residue {self.residue} out of range [0, {self.modulus})")
        if self.min_n < 1 or self.min_n % self.modulus != self.residue:
            raise ValueError(
                f"min_n {self.min_n} is not a member of its own progression"
            )

    @classmethod
    def segment(cls, min_n: int) -> "IrreversibilityExpression":
        return cls(min_n=min_n, modulus=1, residue=0)

    @classmethod
    def progression(cls, min_n: int, modulus: int) -> "IrreversibilityExpression":
        return cls(min_n=min_n, modulus=modulus, residue=min_n % modulus)

    @property
    def is_segment(self) -> bool:
        return self.modulus == 1

    def covers(self, n: int) -> bool:
        return n >= self.min_n and n % self.modulus == self.residue

    def __str__(self) -> str:
        if self.is_segment:
            return f"n ≥ {self.min_n}"
        return f"n ≡ {self.residue} (mod {self.modulus}), n ≥ {self.min_n}"


@dataclass(frozen=True)
class SizeSet:
    """An eventually periodic set of integers >= 0, in canonical form.

    An n >= start is a member iff n mod period is in residues; head lists
    the members below start.  start is the smallest threshold from which the
    set is periodic and period its minimal period, so equal sets are equal
    values.
    """

    start: int
    period: int
    residues: frozenset[int]
    head: tuple[int, ...]

    @classmethod
    def periodic(cls, bits: int, start: int, period: int) -> "SizeSet":
        """The set {n >= 0 : bit n of bits is set}, where bit n equals bit
        n + period for every n >= start; bits from start + period on are ignored."""
        bits &= (1 << start + period) - 1
        tail = bits >> start
        for q in range(1, period):
            if period % q == 0 and tail >> q == tail & (1 << period - q) - 1:
                period = q
                break
        start = ((bits ^ bits >> period) & (1 << start) - 1).bit_length()
        residues = frozenset([n % period for n in range(start, start + period) if bits >> n & 1])
        return cls(start, period, residues, tuple([n for n in range(start) if bits >> n & 1]))

    def __contains__(self, n: int) -> bool:
        if n >= self.start:
            return n % self.period in self.residues
        return n in self.head

    def __bool__(self) -> bool:
        return bool(self.residues or self.head)

    @property
    def cofinite(self) -> bool:
        return len(self.residues) == self.period

    @cached_property
    def chains(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(loose, anchors): one progression anchor + k*period per residue,
        each extended back while its earlier member is in the set, and the
        members that lie on none of them."""
        loose = set(self.head)
        anchors = []
        for r in self.residues:
            a = self.start + (r - self.start) % self.period
            while a - self.period in loose:
                a -= self.period
                loose.remove(a)
            anchors.append(a)
        return tuple(sorted(loose)), tuple(sorted(anchors))

    @cached_property
    def expressions(self) -> tuple[IrreversibilityExpression, ...]:
        """The minimal progressions: the maximal residue classes inside the
        set, less any class the others cover (finest first), each extended
        back while its earlier member is in the set.  Defined for sets of
        lattice sizes, which never hold 0."""
        p, res = self.period, self.residues
        classes: list[tuple[int, int]] = []  # (residue, modulus)
        for q in (q for q in range(1, p + 1) if p % q == 0):
            for r in range(q):
                if all(x in res for x in range(r, p, q)) and not any(
                    q % q2 == 0 and r % q2 == r2 for r2, q2 in classes
                ):
                    classes.append((r, q))
        for r, q in sorted(classes, key=lambda c: (-c[1], c[0])):
            others = [c for c in classes if c != (r, q)]
            if all(any(x % q2 == r2 for r2, q2 in others) for x in range(r, p, q)):
                classes = others
        out = []
        for r, q in classes:
            n = self.start + (r - self.start) % q
            while n > q and n - q in self:
                n -= q
            out.append(IrreversibilityExpression(min_n=n, modulus=q, residue=r))
        return tuple(sorted(out))

    @property
    def sporadic(self) -> tuple[int, ...]:
        """Members that no minimal progression covers."""
        return tuple(
            n for n in self.head if not any(e.covers(n) for e in self.expressions)
        )

    def __str__(self) -> str:
        parts = [str(e) for e in self.expressions]
        parts.extend(f"n = {s}" for s in self.sporadic)
        return "; ".join(parts) if parts else "∅"

    def to_json(self) -> dict:
        return {
            "expressions": [
                {"residue": e.residue, "modulus": e.modulus, "min_n": e.min_n}
                for e in self.expressions
            ],
            "sporadic_irreversible": list(self.sporadic),
        }
