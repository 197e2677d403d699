"""
Multiset permutations ("s-words") and their basic geometry.

An s-word over the multiplicity vector s = (s_1, ..., s_m) contains exactly
s_v copies of each value v in 1..m.  Words are plain tuples of ints; the
`Shape` object carries the multiplicities and their prefix sums.  All public
indices and ranks are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass, field

Word = tuple[int, ...]


class ShapeError(ValueError):
    """Raised for an invalid multiplicity vector."""


class WordError(ValueError):
    """Raised when a word fails validation or parsing."""


@dataclass(frozen=True)
class Shape:
    """Multiplicity vector with derived prefix sums.

    `prefix[v-1]` is t_v = s_1 + ... + s_{v-1} (so t_1 = 0) and `n` is the
    total word length.  The empty shape (m = 0) is allowed as the base case
    of parent-shape recursion; `make_shape` rejects it for user input.
    """

    multiplicities: tuple[int, ...]
    prefix: tuple[int, ...] = field(init=False, compare=False, repr=False)
    n: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        mult = tuple(self.multiplicities)
        for v, s in enumerate(mult, start=1):
            if s <= 0:
                raise ShapeError(f"multiplicity of value {v} must be >= 1, got {s}")
        acc = 0
        pref = []
        for s in mult:
            pref.append(acc)
            acc += s
        object.__setattr__(self, "multiplicities", mult)
        object.__setattr__(self, "prefix", tuple(pref))
        object.__setattr__(self, "n", acc)

    @property
    def m(self) -> int:
        return len(self.multiplicities)


def make_shape(multiplicities) -> Shape:
    """Build a Shape from a sequence of positive multiplicities.

    >>> make_shape((2, 1, 3)).prefix
    (0, 2, 3)
    """
    mult = tuple(multiplicities)
    if not mult:
        raise ShapeError("shape needs at least one value")
    return Shape(mult)


def nondecreasing_word(shape: Shape) -> Word:
    """The sorted word 1^s_1 2^s_2 ... m^s_m.

    >>> nondecreasing_word(make_shape((2, 1, 3)))
    (1, 1, 2, 3, 3, 3)
    """
    out = []
    for v, s in enumerate(shape.multiplicities, start=1):
        out.extend([v] * s)
    return tuple(out)


def shape_of_word(word: Word) -> Shape:
    """Shape of a standalone word; every value 1..max(word) must occur.

    >>> shape_of_word((1, 2, 3, 3, 3, 2)).multiplicities
    (1, 2, 3)
    """
    check_word(word)
    counts = [0] * max(word)
    for d in word:
        counts[d - 1] += 1
    return Shape(tuple(counts))


def check_word(word: Word) -> None:
    """Raise WordError unless the digits of `word` are exactly 1..max(word)."""
    if not word:
        raise WordError("empty word")
    values = set(word)
    if min(values) < 1 or len(values) != max(values):
        raise WordError(f"{format_word(word)} does not use exactly the values 1..{max(values)}")


def validate_word(shape: Shape, word: Word) -> None:
    """Raise WordError unless `word` has exactly the multiset of `shape`."""
    m = shape.m
    counts = [0] * m
    for d in word:
        if not 1 <= d <= m:
            raise WordError(f"digit {d} outside 1..{m}")
        counts[d - 1] += 1
    if tuple(counts) != shape.multiplicities:
        raise WordError(
            f"word has value counts {tuple(counts)}, shape wants {shape.multiplicities}"
        )


def rank_of(shape: Shape, word: Word, i: int) -> int:
    """Rank of the digit at 1-based index i: by value, ties left-to-right.

    >>> s = make_shape((1, 2, 3))
    >>> [rank_of(s, (1, 2, 3, 3, 3, 2), i) for i in range(1, 7)]
    [1, 2, 4, 5, 6, 3]
    """
    if not 1 <= i <= len(word):
        raise WordError(f"index {i} out of range 1..{len(word)}")
    v = word[i - 1]
    seen = 0
    for j in range(i):
        if word[j] == v:
            seen += 1
    return shape.prefix[v - 1] + seen


def parse_word(text: str) -> Word:
    """Parse "112333" or "1,1,2,3,3,3" into a word tuple."""
    text = text.strip()
    if not text:
        return ()
    try:
        if "," in text:
            return tuple(int(part) for part in text.split(","))
        return tuple(int(ch) for ch in text)
    except ValueError as exc:
        raise WordError(f"cannot parse word {text!r}") from exc


def format_word(word: Word) -> str:
    """Render a word compactly when all values fit one digit, else as a comma list."""
    if not word:
        return ""
    if max(word) <= 9:
        return "".join(str(d) for d in word)
    return ",".join(str(d) for d in word)


def parse_shape(text: str, letters: bool = True) -> Shape:
    """Parse "2,1,3" with optional v^k items, e.g. "2^3" -> (2, 2, 2).  More
    values than the default cap raise SizeLimitError before the list is
    built, and more letters (unless `letters` is False) before any word is."""
    from .oracle import SizeLimitError, resolve_cap  # oracle imports words
    items: list[tuple[int, int]] = []
    for part in text.strip().split(","):
        part = part.strip()
        base, hat, count = part.partition("^")
        try:
            value, k = int(base), int(count) if hat else 1
        except ValueError as exc:
            raise ShapeError(f"cannot parse shape item {part!r}") from exc
        if k < 1:
            raise ShapeError(f"repeat count in shape item {part!r} must be >= 1")
        items.append((value, k))
    m, limit = sum(k for _, k in items), resolve_cap()
    if m > limit:
        raise SizeLimitError(f"shape has {m} values, over the cap of {limit}")
    shape = make_shape([s for s, k in items for _ in range(k)])
    if letters and shape.n > limit:
        raise SizeLimitError(f"shape has {shape.n} letters, over the cap of {limit}")
    return shape


def format_shape(shape: Shape) -> str:
    return ",".join(str(s) for s in shape.multiplicities)
