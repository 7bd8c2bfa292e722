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

The resource objects index themselves once, when they are built: affix
lists know their longest entry, so ``segment`` probes only the prefixes
and suffixes the word could carry, and ``MorphResources`` groups its
patterns by length and by root arity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .corpus import is_arabic_word, normalize
from .errors import FormatError, decoding

WEAK_LETTERS = "اوي"  # ا و ي

_SLOT_CHARS = "12345"
# Insertion order for two-letter raw roots: و, ي, ا.
_INSERTION_LETTERS = "ويا"


@dataclass(frozen=True)
class Segmentation:
    prefix: str
    infix: str
    suffix: str

    @property
    def word(self) -> str:
        return self.prefix + self.infix + self.suffix


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

    The cells are compiled once: the positions of the literals, the pairs
    of positions a repeated slot ties together, the first position of
    each slot, and a ``str.format`` template for instantiation.
    """

    __slots__ = ("cells", "source", "length", "root_arity", "_literals", "_repeats", "_slots", "_template")

    def __init__(self, cells: tuple[int | str, ...], source: str):
        self.cells = cells
        self.source = source
        self.length = len(cells)
        self.root_arity = max(c for c in cells if isinstance(c, int))
        first: dict[int, int] = {}
        literals = []
        repeats = []
        template = []
        for pos, cell in enumerate(cells):
            if isinstance(cell, str):
                literals.append((pos, cell))
                template.append(cell.replace("{", "{{").replace("}", "}}"))
                continue
            if cell in first:
                repeats.append((first[cell], pos))
            else:
                first[cell] = pos
            template.append("{%d}" % (cell - 1))
        self._literals = tuple(literals)
        self._repeats = tuple(repeats)
        self._slots = tuple(first[i] for i in range(1, self.root_arity + 1))
        self._template = "".join(template)

    def match(self, infix: str) -> str | None:
        """Extract the raw root if the infix fits this template exactly.

        Requires equal length, literal cells matching letter-for-letter,
        and a repeated slot carrying the same letter at every occurrence.
        """
        if len(infix) != self.length:
            return None
        for pos, ch in self._literals:
            if infix[pos] != ch:
                return None
        for a, b in self._repeats:
            if infix[a] != infix[b]:
                return None
        return "".join([infix[pos] for pos in self._slots])

    def instantiate(self, root: str) -> str:
        """Fill the slots with the letters of ``root`` (arities must agree)."""
        if len(root) != self.root_arity:
            raise ValueError(
                f"pattern {self.source!r} takes a {self.root_arity}-letter root, got {root!r}"
            )
        return self._template.format(*root)

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
    affixes: AffixLists
    patterns: tuple[Pattern, ...]
    roots: frozenset[str]
    _by_length: dict[int, tuple[Pattern, ...]] = field(init=False, repr=False, compare=False)
    _by_arity: dict[int, tuple[Pattern, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        by_length: dict[int, list[Pattern]] = {}
        by_arity: dict[int, list[Pattern]] = {}
        for pattern in self.patterns:
            by_length.setdefault(pattern.length, []).append(pattern)
            by_arity.setdefault(pattern.root_arity, []).append(pattern)
        object.__setattr__(self, "_by_length", {n: tuple(ps) for n, ps in by_length.items()})
        object.__setattr__(self, "_by_arity", {n: tuple(ps) for n, ps in by_arity.items()})

    def patterns_of_length(self, length: int) -> tuple[Pattern, ...]:
        """The templates that span ``length`` letters, in file order."""
        return self._by_length.get(length, ())

    def patterns_of_arity(self, arity: int) -> tuple[Pattern, ...]:
        """The templates that take an ``arity``-letter root, in file order."""
        return self._by_arity.get(arity, ())


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
                splits.append(Segmentation(p, word[k:n - m], s))
    splits.sort(key=lambda seg: (-len(seg.infix), seg.prefix, seg.suffix))
    return splits


def expand_weak(raw_root: str) -> list[str]:
    """Weak-letter variants of a raw root, the raw root itself first."""
    return [variant for variant, _ in expand_weak_tagged(raw_root)]


def expand_weak_tagged(raw_root: str) -> list[tuple[str, str | None]]:
    """Like expand_weak but each variant carries a short provenance tag.

    Variant order: the unchanged raw root, then single-position
    substitutions of each weak letter by the other two (left to right,
    replacements in ا و ي order), then, for two-letter raws only,
    insertions of و / ي / ا at each of the three positions followed by
    doubling of the final letter. Duplicates are dropped, first tag wins.
    """
    variants: list[tuple[str, str | None]] = [(raw_root, None)]
    for i, ch in enumerate(raw_root):
        if ch in WEAK_LETTERS:
            for repl in WEAK_LETTERS:
                if repl != ch:
                    variants.append(
                        (raw_root[:i] + repl + raw_root[i + 1:], f"sub:{i}:{ch}>{repl}")
                    )
    if len(raw_root) == 2:
        for letter in _INSERTION_LETTERS:
            for pos in range(3):
                variants.append(
                    (raw_root[:pos] + letter + raw_root[pos:], f"ins:{pos}:{letter}")
                )
        variants.append((raw_root + raw_root[-1], "double"))
    seen: set[str] = set()
    unique = []
    for variant, tag in variants:
        if variant not in seen:
            seen.add(variant)
            unique.append((variant, tag))
    return unique


def generate_candidates(word: str, resources: MorphResources) -> list[CandidateRoot]:
    """Every dictionary-validated root reachable from ``word``.

    Tries each segmentation, then each pattern of the infix's length, then
    each weak variant of the extracted raw root; a two-letter infix is
    taken as a raw root directly. Deduplicated by root string, first
    derivation wins; the order is fully deterministic.
    """
    candidates: list[CandidateRoot] = []
    seen: set[str] = set()

    def keep(root: str, seg: Segmentation, pattern: Pattern | None, tag: str | None) -> None:
        if root in resources.roots and root not in seen:
            seen.add(root)
            candidates.append(CandidateRoot(root, seg, pattern, tag))

    for seg in segment(word, resources.affixes):
        for pattern in resources.patterns_of_length(len(seg.infix)):
            raw = pattern.match(seg.infix)
            if raw is None:
                continue
            for variant, tag in expand_weak_tagged(raw):
                keep(variant, seg, pattern, tag)
        if len(seg.infix) == 2:
            for variant, tag in expand_weak_tagged(seg.infix):
                keep(variant, seg, None, tag)
    return candidates


# -- resource files ----------------------------------------------------------


def _read_lines(path: Path) -> Iterable[tuple[int, str]]:
    with decoding(path), open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line and not line.startswith("#"):
                yield lineno, line


def _load_affix_file(path: Path) -> frozenset[str]:
    entries = {""}
    for lineno, line in _read_lines(path):
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
        for lineno, line in _read_lines(patterns_path)
    ]

    roots_path = resource_dir / "roots.txt"
    roots = set()
    for lineno, line in _read_lines(roots_path):
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
