"""Prefixes, pruned trees over countable alphabets, and eventually periodic branches.

A tree here is a prefix-closed set of finite sequences of naturals in which
every member has at least one child (pruned).  Branches we can compute with
exactly are the eventually periodic ones, stored as stem + repeating cycle.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property

Letter = int
Prefix = tuple  # tuple[int, ...]

_LETTER_RE = re.compile(r"[0-9]+")


def format_prefix(s: Prefix) -> str:
    return ",".join(str(a) for a in s)


def parse_prefix(text: str) -> Prefix:
    """Comma-separated letters, each ASCII decimal digits only (no sign,
    underscore or other script's digits, all of which int() accepts)."""
    text = text.strip()
    if not text:
        return ()
    out = []
    for part in text.split(","):
        part = part.strip()
        if not _LETTER_RE.fullmatch(part):
            raise ValueError(f"letters are naturals in ASCII digits, got {part!r}")
        out.append(int(part))
    return tuple(out)


class PrefixView(Sequence):
    """Read-only view of a letter list that its owner grows in place.

    Lets a strategy hand its running prefix to callbacks each round without
    copying it; slices come back as tuples.
    """

    __slots__ = ("_letters",)

    def __init__(self, letters: list):
        self._letters = letters

    def __len__(self) -> int:
        return len(self._letters)

    def __getitem__(self, i):
        got = self._letters[i]
        return tuple(got) if isinstance(i, slice) else got

    def __iter__(self):
        return iter(self._letters)


@dataclass(frozen=True)
class TreeSpec:
    """A pruned tree given by a membership test.

    `contains` decides whether a prefix is a node of the tree.  `alphabet`
    is set when the tree is the full tree over that finite letter set, and
    `all_naturals` when it is the full tree over all of N; the exact family
    kernels require one of the two, the game engine needs neither.
    """

    contains: Callable[[Prefix], bool]
    alphabet: "tuple[int, ...] | None" = None
    all_naturals: bool = False
    name: str = "custom"

    def admits(self, prefix: Sequence[int], letter: Letter) -> bool:
        """Whether prefix + (letter,) is a node, given that prefix is one.

        Full trees answer from the letter alone, so growing a branch costs
        O(1) per letter there; any other tree asks `contains` about the
        whole extended prefix.
        """
        if self.alphabet is not None:
            return letter in self.alphabet
        if self.all_naturals:
            return isinstance(letter, int) and letter >= 0
        return self.contains(tuple(prefix) + (letter,))


def full_tree(letters: Iterable[int]) -> TreeSpec:
    alpha = tuple(sorted(set(int(a) for a in letters)))
    if not alpha or any(a < 0 for a in alpha):
        raise ValueError("need a nonempty set of natural letters")
    allowed = frozenset(alpha)
    return TreeSpec(
        contains=lambda s: all(a in allowed for a in s),
        alphabet=alpha,
        name="full:" + ",".join(str(a) for a in alpha),
    )


def binary_tree() -> TreeSpec:
    return full_tree((0, 1))


def nat_tree() -> TreeSpec:
    """The full tree over all naturals (used by copycat-style games)."""
    return TreeSpec(
        contains=lambda s: all(isinstance(a, int) and a >= 0 for a in s),
        all_naturals=True,
        name="nat",
    )


@dataclass(frozen=True)
class EventuallyPeriodicBranch:
    """An eventually periodic branch stem + cycle^omega."""

    stem: tuple
    cycle: tuple

    def __post_init__(self) -> None:
        if not self.cycle:
            raise ValueError("cycle must be nonempty")
        for a in self.stem + self.cycle:
            if not isinstance(a, int) or a < 0:
                raise ValueError(f"letters are naturals, got {a!r}")

    def letter_at(self, t: int) -> Letter:
        if t < len(self.stem):
            return self.stem[t]
        return self.cycle[(t - len(self.stem)) % len(self.cycle)]

    def first(self, n: int) -> Prefix:
        """The first n letters."""
        return tuple(self.letter_at(i) for i in range(n))

    def suffix_key(self, pos: int):
        """Canonical descriptor of the letter stream from position pos on.

        Two equal keys mean the remaining letters agree forever, which is what
        joint-state hashing needs from a strategy tracking this branch.
        """
        if pos < len(self.stem):
            return (self.stem[pos:], self.cycle)
        return self._phase_keys[(pos - len(self.stem)) % len(self.cycle)]

    @cached_property
    def _phase_keys(self) -> tuple:
        # one shared key per cycle phase; no field, so ==, hash, repr skip it
        c = self.cycle
        return tuple(((), c[i:] + c[:i]) for i in range(len(c)))

    def __str__(self) -> str:
        return f"stem={format_prefix(self.stem)};cycle={format_prefix(self.cycle)}"


Branch = EventuallyPeriodicBranch


def parse_branch(text: str) -> EventuallyPeriodicBranch:
    parts = dict()
    for chunk in text.strip().split(";"):
        if "=" not in chunk:
            raise ValueError(f"bad branch descriptor chunk {chunk!r}")
        k, v = chunk.split("=", 1)
        k = k.strip()
        if k in parts:
            raise ValueError(f"duplicate {k}= in branch descriptor {text!r}")
        parts[k] = v.strip()
    if set(parts) != {"stem", "cycle"}:
        raise ValueError(f"branch descriptor needs stem= and cycle=, got {text!r}")
    return EventuallyPeriodicBranch(parse_prefix(parts["stem"]), parse_prefix(parts["cycle"]))

