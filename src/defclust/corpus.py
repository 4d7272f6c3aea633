"""Corpus ingestion and the binary document / lexical-entity model.

A document is a short text; its lexical entities (ELs) are the tokens
produced by :class:`Tokenizer`.  A collection of documents is represented
as a binary presence/absence matrix: cell (j, i) is 1 iff term i of the
collection's sorted vocabulary occurs in document j.  Term frequency
beyond presence is deliberately discarded, which rules out real-valued
weightings such as tf-idf or cosine downstream.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DataError, read_utf8

DEF_TYPES = ("analytic", "extensional", "functional")

CORPUS_FORMATS = ("jsonl", "plain_lines")

# A token is a maximal run of Unicode letters or digits; everything else
# (punctuation, symbols, underscore) separates tokens.
_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)


def _phrase_words(phrase: str) -> tuple[str, ...]:
    return tuple(_WORD_RE.findall(phrase.lower()))


def sense_label_fault(sense) -> str | None:
    """Why ``sense`` cannot be a gold sense label (one that can be counted
    and equals itself, so it can be voted on), or None if it can."""
    if isinstance(sense, (list, dict)):
        return "must not be an array or object"
    if sense != sense:
        return "must not be NaN"
    return None


@dataclass(frozen=True)
class Document:
    """One short text with optional metadata.

    ``term`` is the word the text defines, ``def_type`` one of
    ``analytic``/``extensional``/``functional``, ``gold_sense`` an
    acception label used only for evaluation.  ``term`` is a string and
    ``gold_sense`` is not a list, a dict or NaN (a sense must equal itself
    to be voted on).
    """

    id: str
    text: str
    term: str | None = None
    def_type: str | None = None
    gold_sense: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise DataError("document id must be a non-empty string")
        if not isinstance(self.text, str) or not self.text.strip():
            raise DataError(f"document {self.id!r} has empty text")
        if self.term is not None and not isinstance(self.term, str):
            raise DataError(f"document {self.id!r}: term must be a string")
        fault = sense_label_fault(self.gold_sense)
        if fault:
            raise DataError(f"document {self.id!r}: gold_sense {fault}")
        if self.def_type is not None and self.def_type not in DEF_TYPES:
            raise DataError(
                f"document {self.id!r}: def_type must be one of {DEF_TYPES}, "
                f"got {self.def_type!r}"
            )


@dataclass(frozen=True)
class Tokenizer:
    """Splits raw text into lexical entities.

    The rule is deliberately simple and reproducible: Unicode lowercase,
    then split on every character that is neither a letter nor a digit.
    Diacritics are preserved (the corpora are Spanish).  Optionally,
    known multi-word entities are merged into single tokens and stopwords
    are removed.  No stemming, no lemmatization.
    """

    stopwords: frozenset[str] = frozenset()
    phrases: tuple[tuple[str, ...], ...] = ()
    drop_term: bool = False

    def __call__(self, text: str) -> list[str]:
        words = _WORD_RE.findall(text.lower())
        if self.phrases:
            words = _merge_phrases(words, self.phrases)
        if self.stopwords:
            words = [w for w in words if w not in self.stopwords]
        return words

    def doc_tokens(self, doc: Document) -> list[str]:
        """Tokens of one document; honors ``drop_term`` for its own term."""
        tokens = self(doc.text)
        if self.drop_term and doc.term:
            own = set(self(doc.term))
            tokens = [t for t in tokens if t not in own]
        return tokens


def _merge_phrases(
    words: list[str], phrases: Sequence[tuple[str, ...]]
) -> list[str]:
    """Greedy left-to-right, longest-match merge of listed word n-grams."""
    by_first: dict[str, list[tuple[str, ...]]] = {}
    for phrase in phrases:
        if phrase:
            by_first.setdefault(phrase[0], []).append(phrase)
    for options in by_first.values():
        options.sort(key=len, reverse=True)
    out: list[str] = []
    i = 0
    while i < len(words):
        merged = None
        for phrase in by_first.get(words[i], ()):
            if tuple(words[i : i + len(phrase)]) == phrase:
                merged = phrase
                break
        if merged is not None:
            out.append(" ".join(merged))
            i += len(merged)
        else:
            out.append(words[i])
            i += 1
    return out


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Stopword file: UTF-8, one token per line."""
    out = set()
    for line in read_utf8(path).splitlines():
        word = line.strip().lower()
        if word:
            out.add(word)
    return frozenset(out)


def load_phrases(path: str | Path) -> tuple[tuple[str, ...], ...]:
    """Phrase file: UTF-8, one multi-word entity per line."""
    out = []
    for line in read_utf8(path).splitlines():
        words = _phrase_words(line)
        if words:
            out.append(words)
    return tuple(out)


def check_binary_cells(cells: np.ndarray) -> None:
    """Raise ``ValueError`` unless every cell equals 0 or 1.

    Unsigned and bool cells hold no value below 0, so their largest cell
    decides, with no whole-matrix temporary; ``argmax`` finds it without
    a ufunc reduction, whose first call keeps a few hundred bytes cached
    for the rest of the process.  Any other dtype takes two equality
    masks, which stand in for ``np.isin``: that takes about 20 times as
    long on a 1000 x 530 uint8 matrix.  NaN, strings and other objects
    equal neither value.
    """
    if cells.dtype.kind in "ub":
        binary = cells.size == 0 or cells.item(cells.argmax()) <= 1
    else:
        binary = ((cells == 0) | (cells == 1)).all()
    if not binary:
        raise ValueError("matrix cells must be exactly 0 or 1")


@dataclass(frozen=True)
class BinaryDocTermMatrix:
    """Binary document x lexical-entity matrix.

    ``data[j, i]`` is 1 iff ``terms[i]`` occurs in document j.  ``terms``
    holds the column labels, the collection's distinct lexical entities in
    code-point order (equivalently, UTF-8 byte order).  Every row has at
    least one 1: documents that tokenize to nothing are rejected at
    ingestion so evaluation denominators stay honest.
    """

    data: np.ndarray
    doc_ids: tuple[str, ...]
    terms: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.data.ndim != 2:
            raise ValueError("matrix data must be two-dimensional")
        n, p = self.data.shape
        if len(self.doc_ids) != n:
            raise ValueError("doc_ids length must match the row count")
        if len(self.terms) != p:
            raise ValueError("terms length must match the column count")
        check_binary_cells(self.data)
        if n and not self.data.any(axis=1).all():
            raise ValueError("every row must contain at least one 1")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def p(self) -> int:
        return self.data.shape[1]


def load_corpus(path: str | Path, format: str = "jsonl") -> list[Document]:
    """Load a document collection from ``path``.

    ``jsonl``: one JSON object per line with required ``id`` and ``text``
    fields and optional ``term``, ``def_type``, ``gold_sense``.
    ``plain_lines``: one document per line; ids are 1-based line numbers
    as decimal strings.  Documents are returned in file order and ids are
    verified unique.
    """
    if format not in CORPUS_FORMATS:
        raise ValueError(f"format must be one of {CORPUS_FORMATS}, got {format!r}")
    lines = read_utf8(path).splitlines()
    if format == "jsonl":
        return parse_jsonl_corpus(lines, origin=str(path))
    docs = []
    for lineno, line in enumerate(lines, 1):
        try:
            docs.append(Document(id=str(lineno), text=line))
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
    return docs


def jsonl_records(lines: Iterable[str], origin: str) -> Iterator[tuple[int, dict]]:
    """``(lineno, object)`` per non-blank line; errors name ``origin:lineno``."""
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{origin}:{lineno}: invalid JSON ({exc.msg})") from None
        if not isinstance(record, dict):
            raise DataError(f"{origin}:{lineno}: record must be a JSON object")
        yield lineno, record


def parse_jsonl_corpus(lines: Iterable[str], origin: str = "<jsonl>") -> list[Document]:
    """Parse JSONL corpus records; blank lines are skipped."""
    docs: list[Document] = []
    seen: set[str] = set()
    for lineno, record in jsonl_records(lines, origin):
        for field in ("id", "text"):
            if field not in record:
                raise DataError(f"{origin}:{lineno}: missing required field {field!r}")
        try:
            doc = Document(
                id=record["id"],
                text=record["text"],
                term=record.get("term"),
                def_type=record.get("def_type"),
                gold_sense=record.get("gold_sense"),
            )
        except DataError as exc:
            raise DataError(f"{origin}:{lineno}: {exc}") from None
        if doc.id in seen:
            raise DataError(f"{origin}:{lineno}: duplicate document id {doc.id!r}")
        seen.add(doc.id)
        docs.append(doc)
    return docs


def corpus_to_jsonl(docs: Iterable[Document]) -> str:
    """JSONL text that ``parse_jsonl_corpus`` reads back as ``docs``: one
    object per document, without the optional fields that are None."""
    lines = []
    for doc in docs:
        record = {"id": doc.id, "text": doc.text}
        for field in ("term", "def_type", "gold_sense"):
            value = getattr(doc, field)
            if value is not None:
                record[field] = value
        lines.append(json.dumps(record, ensure_ascii=False) + "\n")
    return "".join(lines)


def build_matrix(
    docs: Sequence[Document], tokenizer: Tokenizer | None = None
) -> BinaryDocTermMatrix:
    """Binary presence/absence matrix of ``docs`` over their union vocabulary.

    Each document is tokenized once, and each token is numbered at its
    first occurrence in the collection, so a document keeps only the
    column numbers of its tokens.  Columns are the distinct tokens in
    code-point order, so the column layout does not depend on document
    order; row j always corresponds to ``docs[j]``.  The vocabulary is
    sorted once, the first-occurrence numbers map to columns through one
    rank array, and the cells are written through one flat index array.
    """
    if not docs:
        raise ValueError("cannot build a dictionary from an empty collection")
    tok = tokenizer if tokenizer is not None else Tokenizer()
    number: dict[str, int] = {}
    numbered = [[number.setdefault(t, len(number)) for t in tok.doc_tokens(doc)] for doc in docs]
    if not number:
        raise DataError("all documents tokenized to nothing")
    ids = tuple(doc.id for doc in docs)
    if len(set(ids)) != len(ids):
        raise DataError("document ids must be unique within a collection")
    for doc, tokens in zip(docs, numbered):
        if not tokens:
            raise DataError(f"document {doc.id!r} tokenized to nothing")
    terms = tuple(sorted(number))
    width = len(terms)
    column = np.empty(width, dtype=np.intp)
    column[[number[term] for term in terms]] = np.arange(width)
    del number
    # cell (j, c) sits at flat index j * width + c of the C-ordered array
    counts = np.fromiter(map(len, numbered), dtype=np.intp, count=len(docs))
    cells = np.fromiter(chain.from_iterable(numbered), dtype=np.intp, count=int(counts.sum()))
    del numbered
    flat = column[cells]
    flat += np.repeat(np.arange(0, len(docs) * width, width), counts)
    data = np.zeros((len(docs), width), dtype=np.uint8)
    data.ravel()[flat] = 1
    return BinaryDocTermMatrix(data=data, doc_ids=ids, terms=terms)
