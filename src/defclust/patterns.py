"""Definitional-pattern templates, search-pattern expansion, and text scanning.

A template is a surface string with exactly one ``<T>`` placeholder
(``⟨T⟩`` is accepted and normalized).  Crossing templates with a term
list yields literal search patterns; scanning a text for those patterns
yields candidate definitional contexts: the matched span, the term, and
the tail running from the match to the next sentence terminator.

Matching is deliberately shallow: case-insensitive substring search with
flexible whitespace, no tokenization, no syntax.  A match is only ever a
*candidate*; "el miedo a la aguja es el más frecuente" contains
"la aguja es el" without defining anything, which is why every candidate
carries ``verified=False`` until some later judgment.

Scanning costs one pass over the text per leading word of the search
patterns, not one per template×term, and each pass is a case-sensitive
literal search with one regex: the text is first folded, one character
for one, onto a representative of each case class of the pattern
characters, so case and whitespace are settled once per text, and each
hit's key and span are read from the folded match.  The hits are exactly
those of one IGNORECASE search loop per pattern (see :func:`scan_text`).
"""

from __future__ import annotations

import itertools
import json
import logging
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import DEF_TYPES, Document
from .errors import DataError, read_utf8

log = logging.getLogger(__name__)

PLACEHOLDER = "<T>"

# Mathematical angle brackets, normalized to the ASCII placeholder on input.
_FANCY_PLACEHOLDER = "⟨T⟩"


@dataclass(frozen=True)
class PatternTemplate:
    """Definitional formula with one ``<T>`` slot, e.g. ``"la <T> es un"``.

    ``def_type`` records which kind of definition the formula signals.
    """

    surface: str
    def_type: str = "analytic"

    def __post_init__(self):
        object.__setattr__(
            self, "surface", self.surface.replace(_FANCY_PLACEHOLDER, PLACEHOLDER)
        )
        count = self.surface.count(PLACEHOLDER)
        if count != 1:
            raise DataError(
                f"template {self.surface!r} must contain exactly one "
                f"{PLACEHOLDER}, found {count}"
            )
        if not self.surface.replace(PLACEHOLDER, "").strip():
            raise DataError(
                f"template {self.surface!r} is empty besides the placeholder"
            )
        if self.def_type not in DEF_TYPES:
            raise DataError(
                f"template {self.surface!r}: def_type must be one of "
                f"{DEF_TYPES}, got {self.def_type!r}"
            )

    def instantiate(self, term: str) -> str:
        return self.surface.replace(PLACEHOLDER, term)


_MATCH_FLAGS = re.IGNORECASE | re.UNICODE


@dataclass(frozen=True)
class SearchPattern:
    """A template instantiated with a concrete term; ``text`` is the
    literal that a scan matches, case-insensitively and with any
    whitespace run matching any other."""

    template: PatternTemplate
    term: str
    text: str = field(init=False)

    def __post_init__(self):
        if not self.term or not self.term.strip():
            raise DataError("search-pattern term must be non-empty")
        object.__setattr__(self, "text", self.template.instantiate(self.term))


@dataclass(frozen=True)
class CandidateContext:
    """One pattern hit in a source text, unverified by construction."""

    source_id: str
    span: tuple[int, int]
    term: str
    matched_pattern: PatternTemplate
    tail: str
    verified: bool = False

    def to_json_dict(self) -> dict:
        return {
            "source_id": self.source_id,
            "span": [self.span[0], self.span[1]],
            "term": self.term,
            "pattern": self.matched_pattern.surface,
            "def_type": self.matched_pattern.def_type,
            "tail": self.tail,
        }


def compile_search_patterns(
    templates: Sequence[PatternTemplate], terms: Sequence[str]
) -> SearchPatternSet:
    """Cross product of templates and terms as search patterns.

    Templates-major, terms-minor order; a pattern whose literal text
    repeats an earlier one is dropped.  The result is a tuple that also
    holds what :func:`scan_text` needs of the patterns, built once here.
    """
    if not templates or not terms:
        raise ValueError("need at least one template and one term")
    seen: set[str] = set()
    out: list[SearchPattern] = []
    for template in templates:
        for term in terms:
            pattern = SearchPattern(template=template, term=term)
            if pattern.text not in seen:
                seen.add(pattern.text)
                out.append(pattern)
    return SearchPatternSet(out)


_SENTENCE_END = re.compile(r"[.;\n]")


def _tail_after(text: str, end: int) -> str:
    terminator = _SENTENCE_END.search(text, end)
    stop = terminator.start() if terminator else len(text)
    return text[end:stop].strip()


class _CaseClasses(dict):
    """``str.translate`` table that folds each character onto one per
    IGNORECASE class of the patterns' characters, filled as it is read.

    A non-space character maps to the first pattern character (in
    code-point order) that sre matches it against under ``_MATCH_FLAGS``;
    whitespace maps to ``" "``; any other character maps to a sentinel
    that is neither a pattern character nor whitespace.  One character
    maps to one, so offsets are kept.
    """

    def __init__(self, patterns: Sequence[SearchPattern]):
        super().__init__()
        chars = set("".join(pattern.text for pattern in patterns))
        self.chars = sorted(ch for ch in chars if not ch.isspace())
        self.classes = re.compile(
            "|".join(f"({re.escape(ch)})" for ch in self.chars), _MATCH_FLAGS
        )
        self.sentinel = next(
            ch for ch in map(chr, itertools.count()) if ch not in chars and not ch.isspace()
        )

    def __missing__(self, code: int) -> str:
        ch = chr(code)
        if ch.isspace():
            folded = " "
        else:
            found = self.classes.fullmatch(ch)
            folded = self.chars[found.lastindex - 1] if found else self.sentinel
        self[code] = folded
        return folded


class SearchPatternSet(tuple):
    """Search patterns, in order, with the part of :func:`scan_text`
    that does not depend on the text, built once: the fold ``table``,
    and for each leading word its finder regex and its members by key."""

    def __new__(cls, patterns: Iterable[SearchPattern]):
        self = super().__new__(cls, patterns)
        self.table = _CaseClasses(self)
        groups: dict[str, dict[str, list[SearchPattern]]] = {}
        for pattern in self:
            key = " ".join(pattern.text.translate(self.table).split())
            groups.setdefault(key.partition(" ")[0], {}).setdefault(key, []).append(pattern)
        self.groups = []
        for first, by_key in groups.items():
            branches = [
                " +".join(map(re.escape, key.split(" ")[1:]))
                for key in sorted(by_key, key=len, reverse=True) if key != first
            ]
            finder = re.escape(first)
            if branches:
                finder += f"(?: +(?:{'|'.join(branches)})){'?' if first in by_key else ''}"
            self.groups.append((re.compile(finder), by_key))
        return self


def scan_text(
    text: str, source_id: str, patterns: Sequence[SearchPattern]
) -> list[CandidateContext]:
    """Every pattern occurrence in ``text``, overlaps included.

    The tail runs from the match to the next ``.``, ``;`` or newline and
    is stripped; it may come out empty when the terminator is adjacent.
    Results are sorted by span.  Patterns from
    :func:`compile_search_patterns` are scanned as they are; any other
    sequence of patterns is made a :class:`SearchPatternSet` first.

    The search runs case-sensitively over a folded copy of the text (see
    :class:`_CaseClasses`), where sre skips ahead to each occurrence of a
    literal prefix; under ``re.IGNORECASE`` it would try every position.
    Each pattern folds to a key, its folded words joined by one space,
    and patterns are grouped by the first word of their key.  A group is
    searched in one pass for that word followed by the alternation of the
    rest of its keys, longest first, each space made `` +``; the tail is
    optional when the group holds the bare word, and absent when that is
    its only key.

    Exactness.  sre's one-character IGNORECASE test is an equivalence: a
    pattern character ``c`` that sre treats as cased matches exactly the
    characters whose simple lowercase lies in ``c``'s own simple
    lowercase plus its fixed extra cases (``ſ`` with ``s``, ``ı`` with
    ``i``, ``ς`` with ``σ``, ``µ`` with ``μ``, ...), sets that are
    disjoint cliques; a character it treats as caseless matches only
    itself, and no other character lowercases to it.  So ``x`` matches
    ``c`` iff both fall in one class, that is iff they fold to one
    character.  Whitespace has no case, ``\\s`` and ``str.isspace`` are
    one predicate, and the sentinel is no folded pattern character.
    Position by position, then, a pattern's own IGNORECASE regex matches
    the text at a start, and ends where it ends, iff its folded regex
    matches the folded text there.

    Dispatch.  The search stops at every start where some member of the
    group matches, since the alternation tries every branch at a position
    before moving on.  Every key that matches there is a prefix of the
    folded text from that start with its space runs collapsed, so those
    keys are prefixes of one another, and the first branch to match, the
    one sre takes, gives the longest of them: the folded match with its
    space runs collapsed.  The members that match are those whose keys
    prefix it.  A key of ``c`` non-space characters ends just after the
    ``c``-th non-space character of the folded match, and the fold keeps
    offsets, so that is also its end in ``text``.
    """
    if not text:
        raise ValueError("text must be non-empty")
    if not isinstance(patterns, SearchPatternSet):
        patterns = SearchPatternSet(patterns)
    folded = text.translate(patterns.table)
    hits: list[CandidateContext] = []
    for finder, by_key in patterns.groups:
        pos = 0
        while (found := finder.search(folded, pos)) is not None:
            start = found.start()
            matched = found.group()
            longest = " ".join(matched.split())
            ends = [start + i + 1 for i, ch in enumerate(matched) if ch != " "]
            for cut in range(1, len(longest) + 1):
                key = longest[:cut]
                for pattern in by_key.get(key, ()):
                    end = ends[cut - key.count(" ") - 1]
                    hits.append(
                        CandidateContext(
                            source_id=source_id,
                            span=(start, end),
                            term=pattern.term,
                            matched_pattern=pattern.template,
                            tail=_tail_after(text, end),
                        )
                    )
            # step one character, not past the match, so overlapping
            # occurrences are all found
            pos = start + 1
    hits.sort(key=lambda c: (c.span, c.matched_pattern.surface, c.term))
    return hits


def candidates_to_corpus(cands: Sequence[CandidateContext]) -> list[Document]:
    """Candidates as documents: text = tail, id = ``source_id#ordinal``.

    Ordinals are 1-based per source over the kept candidates.  Empty
    tails cannot become documents; they are dropped and counted in one
    warning.
    """
    docs: list[Document] = []
    ordinal: dict[str, int] = {}
    dropped = 0
    for cand in cands:
        if not cand.tail:
            dropped += 1
            continue
        ordinal[cand.source_id] = ordinal.get(cand.source_id, 0) + 1
        docs.append(
            Document(
                id=f"{cand.source_id}#{ordinal[cand.source_id]}",
                text=cand.tail,
                term=cand.term,
                def_type=cand.matched_pattern.def_type,
            )
        )
    if dropped:
        log.warning("dropped %d candidate(s) with empty tails", dropped)
    return docs


def candidates_to_jsonl(cands: Sequence[CandidateContext]) -> str:
    return "".join(
        json.dumps(c.to_json_dict(), ensure_ascii=False) + "\n" for c in cands
    )


def load_pattern_file(path: str | Path) -> list[PatternTemplate]:
    """Pattern file: UTF-8, one ``surface<TAB>def_type`` per line.

    Blank lines and ``#`` comments are skipped.
    """
    templates: list[PatternTemplate] = []
    for lineno, line in enumerate(
        read_utf8(path).splitlines(), 1
    ):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 2:
            raise DataError(
                f"{path}:{lineno}: expected surface<TAB>def_type, got {line!r}"
            )
        surface, def_type = parts[0].strip(), parts[1].strip()
        try:
            templates.append(PatternTemplate(surface=surface, def_type=def_type))
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
    if not templates:
        raise DataError(f"{path}: no templates found")
    return templates


def default_templates() -> list[PatternTemplate]:
    """The bundled Spanish template inventory (see data/default_patterns.tsv)."""
    source = resources.files("defclust.data").joinpath("default_patterns.tsv")
    with resources.as_file(source) as path:
        return load_pattern_file(path)
