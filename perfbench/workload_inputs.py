"""Seeded input generators for the three benchmark workloads.

Every generator takes a ``random.Random`` and returns plain strings, so
the same seed always yields byte-identical inputs.  The sizes of the
inputs are fixed by the scale, not by the seed: a seed changes which
words appear, never how many documents there are, so run-to-run spread
across seeds measures the program, not the generator.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

_CONSONANTS = "bcdfgjlmnprstvz"
_VOWELS = "aeiou"

# Spanish function words sprinkled into texts; the bundled stopword list
# removes them, so they exercise the tokenizer's stopword filter.
FUNCTION_WORDS = (
    "de", "la", "el", "que", "en", "y", "con", "por", "un", "una",
    "los", "las", "del", "se", "para", "su", "al", "o", "sin", "sobre",
)


def _pseudo_words(
    rng: random.Random, count: int, taken: set[str], syllables: tuple[int, int] = (3, 4)
) -> list[str]:
    """``count`` distinct lowercase pseudo-words of open syllables."""
    out = []
    while len(out) < count:
        word = "".join(
            rng.choice(_CONSONANTS) + rng.choice(_VOWELS)
            for _ in range(rng.randint(*syllables))
        )
        if word not in taken:
            taken.add(word)
            out.append(word)
    return out


def _jsonl(records) -> str:
    return "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records)


def topics_corpus(rng: random.Random, n: int) -> str:
    """The acceptance-gate generator (``test_criterion_8``) with gold senses.

    20 topics of 25 words each plus 30 words shared by all topics; each
    document takes 5-9 words of its topic and 3 shared ones.  Seed 2030
    reproduces the acceptance test's corpus word for word.
    """
    topics = [[f"w{t:02d}{k:02d}" for k in range(25)] for t in range(20)]
    shared = [f"g{k:02d}" for k in range(30)]
    records = []
    for j in range(n):
        pool = topics[j % 20]
        words = rng.sample(pool, rng.randint(5, 9)) + rng.sample(shared, 3)
        records.append(
            {"id": f"doc{j:04d}", "text": " ".join(words), "gold_sense": f"topic{j % 20:02d}"}
        )
    return _jsonl(records)


def per_term_corpus(rng: random.Random, senses: int, n: int) -> str:
    """Paraphrases of one ambiguous term: ``n`` documents over ``senses`` senses.

    Each sense has a core vocabulary; a paraphrase takes 3-6 core words,
    up to 2 words shared by every sense of the term, and 2-5 function
    words.  About one paraphrase in seven borrows a word from another
    sense, which is what makes intruders at high thresholds.
    """
    taken: set[str] = set(FUNCTION_WORDS)
    (term,) = _pseudo_words(rng, 1, taken)
    shared = _pseudo_words(rng, 6, taken)
    cores = [_pseudo_words(rng, 10, taken) for _ in range(senses)]
    records = []
    for k in range(n):
        sense = k % senses
        words = (
            rng.sample(cores[sense], rng.randint(3, 6))
            + rng.sample(shared, rng.randint(0, 2))
            + rng.sample(FUNCTION_WORDS, rng.randint(2, 5))
        )
        if rng.random() < 0.15:
            other = (sense + rng.randint(1, senses - 1)) % senses
            words.append(rng.choice(cores[other]))
        rng.shuffle(words)
        records.append(
            {
                "id": f"{term}-{k:03d}",
                "text": " ".join(words).capitalize() + ".",
                "term": term,
                "def_type": "analytic",
                "gold_sense": f"{term}:{sense}",
            }
        )
    return _jsonl(records)


# How each bundled template is planted in a sentence: words before the
# match, and words that open the tail.  Tails never contain a term, so
# each planted sentence matches exactly one search pattern.
_PLANTINGS = {
    "la <T> es el": ("", ""),
    "la <T> es la": ("", ""),
    "la <T> es un": ("", ""),
    "las <T>s son": ("", ""),
    "define una <T>": ("se ", "como "),
    "definimos una <T>": ("", "como "),
    "ha definido la <T>": ("el autor ", "como "),
    "ha definido una <T>": ("el autor ", "como "),
    "consideramos la <T>": ("", "como "),
}


@dataclass(frozen=True)
class ExtractInputs:
    """Raw text files, the term list, and the documents extraction must give."""

    texts: tuple[str, ...]
    terms: tuple[str, ...]
    # (file index, term, def_type, tail) of every planted definition whose
    # tail is non-empty, in the order extraction must emit them.
    expected: tuple[tuple[int, str, str, str], ...]


def extract_inputs(
    rng: random.Random,
    templates: list[tuple[str, str]],
    terms: int,
    files: int,
    definitions: int,
    filler_bytes: int,
) -> ExtractInputs:
    """Text files with planted definitional formulas and many duplicate tails.

    Terms alternate between 2 and 3 senses with 2 tails each, drawn from
    a small phrase bank, so most extracted documents are exact duplicates
    of others and ties decide most merges.  Every 16th planted formula
    ends the sentence right away; its tail is empty and extraction drops
    it.  ``templates``
    are (surface, def_type) pairs and must be the bundled inventory.
    """
    taken: set[str] = set(FUNCTION_WORDS)
    # Terms of one length are prefix-free, so a pattern ending in one term
    # cannot match the start of another.
    term_list = _pseudo_words(rng, terms, taken, syllables=(4, 4))
    filler_words = _pseudo_words(rng, 400, taken)
    banks = {}
    for index, term in enumerate(term_list):
        tails = []
        for _ in range(2 + index % 2):
            core = _pseudo_words(rng, 6, taken)
            for _ in range(2):
                words = rng.sample(core, rng.randint(3, 5)) + rng.sample(
                    FUNCTION_WORDS, rng.randint(1, 3)
                )
                rng.shuffle(words)
                tails.append(" ".join(words))
        banks[term] = tails

    def filler_sentence() -> str:
        words = rng.sample(filler_words, rng.randint(5, 12)) + rng.sample(
            FUNCTION_WORDS, rng.randint(2, 6)
        )
        rng.shuffle(words)
        return " ".join(words).capitalize() + "."

    per_file = [definitions // files + (i < definitions % files) for i in range(files)]
    texts = []
    expected = []
    ordinal = 0
    for index, planted in enumerate(per_file):
        budget = filler_bytes // files
        sentences = []
        size = 0
        slots = sorted(rng.randrange(budget) for _ in range(planted))
        for slot in slots:
            while size < slot:
                sentence = filler_sentence()
                sentences.append(sentence)
                size += len(sentence) + 1
            surface, def_type = rng.choice(templates)
            lead, opener = _PLANTINGS[surface]
            term = rng.choice(term_list)
            formula = surface.replace("<T>", term)
            ordinal += 1
            if ordinal % 16 == 0:
                tail = ""
            else:
                tail = opener + rng.choice(banks[term])
                expected.append((index, term, def_type, tail))
            sentences.append((lead + formula + (" " + tail if tail else "")).capitalize() + ".")
        while size < budget:
            sentence = filler_sentence()
            sentences.append(sentence)
            size += len(sentence) + 1
        lines = [" ".join(sentences[i : i + 6]) for i in range(0, len(sentences), 6)]
        texts.append("\n".join(lines) + "\n")
    return ExtractInputs(texts=tuple(texts), terms=tuple(term_list), expected=tuple(expected))
