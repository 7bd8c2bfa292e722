"""Candidate-root generation: affix segmentation, template-pattern matching,
weak-letter recovery, and dictionary validation.

The linguistic data lives in four plain-text resource files (prefixes,
suffixes, patterns, roots). Pattern templates are written with digit
slots instead of the traditional placeholder letters, e.g. ``1ا23`` is
the template that turns the root ك ت ب into كاتب. Digits 1..5 stand for
root letters in order; any other character is a literal that must appear
verbatim in the word. Slot 3 may repeat, which expresses templates where
the third root letter surfaces twice.

A word can, and regularly does, yield several dictionary-valid roots;
ranking them is the disambiguation module's job. Everything here is
deterministic: segmentations are ordered longest-infix-first, patterns in
file order, weak variants in a fixed expansion order.

The resource objects index themselves once, when they are built, and
hold nothing that depends on the words they are asked about: affix lists
know their longest entry, so ``segment`` probes only the prefixes and
suffixes the word could carry; each pattern compiles its cells into C
getters; and ``MorphResources`` builds the template index. For each
template length it keeps one table per position that maps a letter to
the bitmask of the templates the letter fits there (the same literal, or
a slot), and an infix is matched by ANDing the masks of its letters,
most selective position first, stopping at the first empty mask: at most
one dict lookup per position where a template has a literal, whatever
the number of templates. ``MorphResources`` also joins the digit-slot forms of each
root arity into one string, which ``derive_words`` fills per root, and
keeps the weak skeleton of every root, so that a raw root none of whose
weak variants is a root is dropped before they are built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator

from .corpus import is_arabic_word, normalize
from .errors import FormatError, read_lines

WEAK_LETTERS = "اوي"  # ا و ي

_SLOT_CHARS = "12345"
# Ends each digit-slot form in ``MorphResources.templates_of_arity``; no
# template or dictionary root holds it.
_FORM_SEPARATOR = "\t"
# Insertion order for two-letter raw roots: و, ي, ا.
_INSERTION_LETTERS = "ويا"


@dataclass(frozen=True)
class Segmentation:
    prefix: str
    infix: str
    suffix: str


@dataclass(frozen=True)
class AffixLists:
    prefixes: frozenset[str]
    suffixes: frozenset[str]
    longest_prefix: int = field(init=False, repr=False, compare=False)
    longest_suffix: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "longest_prefix", max(map(len, self.prefixes), default=0))
        object.__setattr__(self, "longest_suffix", max(map(len, self.suffixes), default=0))


class Pattern:
    """A derivation template: literal letters plus numbered root slots.

    The slot cells are compiled once into ``operator.itemgetter`` objects,
    so reading a raw root compares and slices in C: a pair reads the
    positions a repeated slot ties together, and one reads the first
    position of each slot, which spells the raw root. Literal cells are
    checked by ``MorphResources``' template index (or by ``match``, cell by
    cell). ``template`` is a ``str.format`` template that fills the slots.
    """

    __slots__ = ("cells", "source", "length", "root_arity", "_repeats", "_slots_at", "template")

    def __init__(self, cells: tuple[int | str, ...], source: str):
        self.cells = cells
        self.source = source
        self.length = len(cells)
        self.root_arity = max(c for c in cells if isinstance(c, int))
        first: dict[int, int] = {}
        repeats = []
        template = []
        for pos, cell in enumerate(cells):
            if isinstance(cell, str):
                template.append(cell.replace("{", "{{").replace("}", "}}"))
                continue
            if cell in first:
                repeats.append((first[cell], pos))
            else:
                first[cell] = pos
            template.append("{%d}" % (cell - 1))
        self._repeats = (
            (itemgetter(*(a for a, _ in repeats)), itemgetter(*(b for _, b in repeats))) if repeats else None
        )
        self._slots_at = itemgetter(*(first[i] for i in range(1, self.root_arity + 1)))
        self.template = "".join(template)

    def match(self, infix: str) -> str | None:
        """Extract the raw root if the infix fits this template exactly.

        Requires equal length, literal cells matching letter-for-letter,
        and a repeated slot carrying the same letter at every occurrence.
        """
        if len(infix) != self.length:
            return None
        if any(cell != ch for cell, ch in zip(self.cells, infix) if isinstance(cell, str)):
            return None
        return self._root_of(infix)

    def _root_of(self, infix: str) -> str | None:
        """The raw root of an infix of this length whose literals fit; None
        when a repeated slot carries two different letters."""
        repeats = self._repeats
        if repeats is not None and repeats[0](infix) != repeats[1](infix):
            return None
        return "".join(self._slots_at(infix))

    def instantiate(self, root: str) -> str:
        """Fill the slots with the letters of ``root`` (arities must agree)."""
        if len(root) != self.root_arity:
            raise ValueError(
                f"pattern {self.source!r} takes a {self.root_arity}-letter root, got {root!r}"
            )
        return self.template.format(*root)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Pattern) and self.cells == other.cells

    def __hash__(self) -> int:
        return hash(self.cells)

    def __repr__(self) -> str:
        return f"Pattern({self.source!r})"


@dataclass(frozen=True)
class CandidateRoot:
    """A dictionary-validated root plus how it was reached.

    ``pattern`` is None for the bare two-letter-infix route (no length-2
    template exists); ``weak_variant`` is None when the raw root was
    already in the dictionary unchanged. Provenance is diagnostic only.
    """

    root: str
    segmentation: Segmentation
    pattern: Pattern | None
    weak_variant: str | None


@dataclass(frozen=True)
class MorphResources:
    """The four resource lists, indexed once when they are built.

    The template index holds, for each template length, the templates of
    that length in file order, one bit each, and one step per position
    where some template has a literal: a table from a letter to the mask
    of the templates it fits there (its literal, or any slot), and the
    mask of the templates with a slot there, which any other letter fits.
    Steps run from the position with the fewest slots, the most selective
    one. ``templates_matching`` ANDs the masks of an infix's letters, and
    the bits left over are the templates whose literals it carries. The
    resource object also joins the digit-slot forms of the templates of
    each root arity into one string for ``derive_words``, and holds the
    weak skeleton of every root (see ``may_reach_root``).
    """

    affixes: AffixLists
    patterns: tuple[Pattern, ...]
    roots: frozenset[str]
    # arity -> the digit-slot forms, in file order, each followed by a tab
    _forms_by_arity: dict[int, str] = field(init=False, repr=False, compare=False)
    # length -> (mask of every template, ((position, {letter: mask}, slot mask), ...), templates)
    _by_length: dict[int, tuple] = field(init=False, repr=False, compare=False)
    _weak_skeletons: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        by_arity: dict[int, list[Pattern]] = {}
        by_length: dict[int, list[Pattern]] = {}
        for pattern in self.patterns:
            by_arity.setdefault(pattern.root_arity, []).append(pattern)
            by_length.setdefault(pattern.length, []).append(pattern)
        object.__setattr__(self, "_forms_by_arity", {n: join_forms(group) for n, group in by_arity.items()})
        object.__setattr__(self, "_by_length", {n: _template_index(group) for n, group in by_length.items()})
        object.__setattr__(self, "_weak_skeletons", frozenset(map(_weak_skeleton, self.roots)))

    def templates_of_arity(self, arity: int) -> str:
        """The digit-slot forms of the templates that take an ``arity``-letter
        root, in file order, each followed by a tab; "" when there are none."""
        return self._forms_by_arity.get(arity, "")

    def templates_matching(self, infix: str) -> list[tuple[Pattern, str]]:
        """``(pattern, raw root)`` for every template ``infix`` fits, in file
        order: the pairs where ``pattern.match(infix)`` is not None."""
        index = self._by_length.get(len(infix))
        if index is None:
            return []
        mask, steps, group = index
        for at, fits, slots in steps:
            mask &= fits.get(infix[at], slots)
            if not mask:
                return []
        hits = []
        while mask:
            low = mask & -mask
            mask ^= low
            pattern = group[low.bit_length() - 1]
            raw = pattern._root_of(infix)
            if raw is not None:
                hits.append((pattern, raw))
        return hits

    def may_reach_root(self, raw_root: str) -> bool:
        """False only when no weak variant of ``raw_root`` is a root: for a raw
        root of three letters or more whose weak skeleton is no root's.
        Two-letter raw roots grow by insertion, so they always pass."""
        return len(raw_root) < 3 or _weak_skeleton(raw_root) in self._weak_skeletons


def join_forms(patterns: Iterable[Pattern]) -> str:
    """The digit-slot forms of ``patterns``, in order, each followed by a tab."""
    return "".join([pattern.source + _FORM_SEPARATOR for pattern in patterns])


def _template_index(group: list[Pattern]) -> tuple:
    """The template index entry of templates of one length: see
    ``MorphResources``. Bit ``i`` of a mask stands for ``group[i]``."""
    every = (1 << len(group)) - 1
    steps = []
    for at in range(group[0].length):
        slots, fits = 0, {}
        for bit, pattern in enumerate(group):
            cell = pattern.cells[at]
            if isinstance(cell, str):
                fits[cell] = fits.get(cell, 0) | 1 << bit
            else:
                slots |= 1 << bit
        if slots != every:
            steps.append((slots.bit_count(), at, {letter: mask | slots for letter, mask in fits.items()}, slots))
    steps.sort(key=itemgetter(0, 1))
    return every, tuple(step[1:] for step in steps), tuple(group)


def parse_pattern(line: str, *, path: str | None = None, lineno: int | None = None) -> Pattern:
    """Parse one digit-slot template line and enforce slot discipline:
    first occurrences run 1, 2, 3[, 4[, 5]]; only slot 3 may repeat.
    """
    cells: list[int | str] = []
    max_seen = 0
    for ch in line:
        if ch in _SLOT_CHARS:
            slot = int(ch)
            if slot == max_seen + 1:
                max_seen = slot
            elif slot == 3 and max_seen >= 3:
                pass  # legal repeat of the third root letter
            else:
                raise FormatError(
                    f"pattern {line!r}: slot indices out of first-occurrence order",
                    path=path,
                    line=lineno,
                )
            cells.append(slot)
        elif is_arabic_word(ch):
            cells.append(ch)
        else:
            raise FormatError(
                f"pattern {line!r}: invalid character {ch!r}", path=path, line=lineno
            )
    if max_seen < 3:
        raise FormatError(
            f"pattern {line!r}: a template needs root slots 1..3 at least",
            path=path,
            line=lineno,
        )
    return Pattern(tuple(cells), line)


def segment(word: str, affixes: AffixLists) -> list[Segmentation]:
    """All (prefix, infix, suffix) splits licensed by the affix lists.

    The infix must keep at least two letters. Ordered by decreasing infix
    length, then (prefix, suffix) lexicographically; the trivial split
    comes first whenever the word itself is long enough. Only the word's
    own leading and trailing letter runs, up to the longest affix, are
    looked up in the lists.
    """
    return [Segmentation(prefix, infix, suffix) for _, prefix, suffix, infix in _splits(word, affixes)]


def _splits(word: str, affixes: AffixLists) -> list[tuple[int, str, str, str]]:
    """``(-len(infix), prefix, suffix, infix)`` of each split of ``segment``,
    in its order: a prefix and a suffix fix the infix, so plain tuple
    order is that order."""
    n = len(word)
    prefixes, suffixes = affixes.prefixes, affixes.suffixes
    splits = []
    for k in range(min(affixes.longest_prefix, n - 2) + 1):
        p = word[:k]
        if p not in prefixes:
            continue
        for m in range(min(affixes.longest_suffix, n - k - 2) + 1):
            s = word[n - m:]
            if s in suffixes:
                splits.append((k + m - n, p, s, word[k:n - m]))
    splits.sort()
    return splits


def _weak_skeleton(root: str) -> str:
    """``root`` with each weak letter folded to ا. Substituting one weak
    letter for another keeps it, so every weak variant of a raw root of
    three letters or more has the raw root's skeleton."""
    return root.replace("و", "ا").replace("ي", "ا")


def _weak_variants(raw_root: str) -> Iterator[tuple[str, str | None]]:
    """Every weak-letter variant of a raw root with its provenance tag, in
    expansion order, repeats included.

    Order: the unchanged raw root, then single-position substitutions of
    each weak letter by the other two (left to right, replacements in
    ا و ي order), then, for two-letter raws only, insertions of و / ي / ا
    at each of the three positions followed by doubling of the final
    letter.
    """
    yield raw_root, None
    for i, ch in enumerate(raw_root):
        if ch in WEAK_LETTERS:
            for repl in WEAK_LETTERS:
                if repl != ch:
                    yield raw_root[:i] + repl + raw_root[i + 1:], f"sub:{i}:{ch}>{repl}"
    if len(raw_root) == 2:
        for letter in _INSERTION_LETTERS:
            for pos in range(3):
                yield raw_root[:pos] + letter + raw_root[pos:], f"ins:{pos}:{letter}"
        yield raw_root + raw_root[-1], "double"


def expand_weak(raw_root: str) -> list[str]:
    """Weak-letter variants of a raw root, the raw root itself first."""
    return [variant for variant, _ in expand_weak_tagged(raw_root)]


def expand_weak_tagged(raw_root: str) -> list[tuple[str, str | None]]:
    """Like expand_weak but each variant carries a short provenance tag.

    The variants of ``_weak_variants`` in its order, duplicates dropped,
    first tag wins.
    """
    first: dict[str, str | None] = {}
    for variant, tag in _weak_variants(raw_root):
        first.setdefault(variant, tag)
    return list(first.items())


def generate_candidates(word: str, resources: MorphResources) -> list[CandidateRoot]:
    """Every dictionary-validated root reachable from ``word``.

    Tries each segmentation, then each pattern of the infix's length that
    the infix fits (``templates_matching``, in file order), then each weak
    variant of the extracted raw root; a two-letter infix is taken as a
    raw root directly. Deduplicated by root string, first derivation
    wins; the order is fully deterministic.

    The weak variants of a raw root are only built when
    ``resources.may_reach_root`` lets it through, and a segmentation only
    for a split that yields a candidate.
    """
    roots = resources.roots
    candidates: list[CandidateRoot] = []
    seen: set[str] = set()
    for _, prefix, suffix, infix in _splits(word, resources.affixes):
        routes = resources.templates_matching(infix)
        if len(infix) == 2:
            routes.append((None, infix))
        seg = None
        for pattern, raw in routes:
            if not resources.may_reach_root(raw):
                continue
            for variant, tag in _weak_variants(raw):
                if variant in roots and variant not in seen:
                    seen.add(variant)
                    if seg is None:
                        seg = Segmentation(prefix, infix, suffix)
                    candidates.append(CandidateRoot(variant, seg, pattern, tag))
    return candidates


# -- resource files ----------------------------------------------------------


def _load_affix_file(path: Path) -> frozenset[str]:
    entries = {""}
    for lineno, line in read_lines(path):
        entry = normalize(line)
        if not entry or not is_arabic_word(entry):
            raise FormatError(
                f"affix {line!r} is not an Arabic letter sequence",
                path=str(path),
                line=lineno,
            )
        entries.add(entry)
    return frozenset(entries)


def load_resources(resource_dir: str | Path) -> MorphResources:
    """Load prefixes.txt, suffixes.txt, patterns.txt, and roots.txt."""
    resource_dir = Path(resource_dir)
    for name in ("prefixes.txt", "suffixes.txt", "patterns.txt", "roots.txt"):
        if not (resource_dir / name).is_file():
            raise FormatError(f"missing resource file {name}", path=str(resource_dir))

    prefixes = _load_affix_file(resource_dir / "prefixes.txt")
    suffixes = _load_affix_file(resource_dir / "suffixes.txt")

    patterns_path = resource_dir / "patterns.txt"
    patterns = [
        parse_pattern(normalize(line), path=str(patterns_path), lineno=lineno)
        for lineno, line in read_lines(patterns_path)
    ]

    roots_path = resource_dir / "roots.txt"
    roots = set()
    for lineno, line in read_lines(roots_path):
        root = normalize(line)
        if not is_arabic_word(root):
            raise FormatError(
                f"root {line!r} is not an Arabic letter sequence",
                path=str(roots_path),
                line=lineno,
            )
        if not 3 <= len(root) <= 5:
            raise FormatError(
                f"root {line!r} has length {len(root)}, expected 3-5",
                path=str(roots_path),
                line=lineno,
            )
        roots.add(root)

    return MorphResources(AffixLists(prefixes, suffixes), tuple(patterns), frozenset(roots))


def bundled_resource_dir() -> Path:
    """Directory of the resource files shipped inside the package."""
    return Path(__file__).resolve().parent / "resources"
