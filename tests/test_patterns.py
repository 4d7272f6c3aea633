"""Pattern templates, expansion, scanning, and candidate plumbing."""

import json
import logging
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from defclust import (
    CandidateContext,
    DataError,
    PatternTemplate,
    candidates_to_corpus,
    candidates_to_jsonl,
    compile_search_patterns,
    default_templates,
    load_pattern_file,
    scan_text,
)
from defclust.patterns import _MATCH_FLAGS, _CaseClasses, _tail_after

NEGATIVE_SENTENCE = "el miedo a la aguja es el más frecuente"


# ---------------------------------------------------------------- templates

def test_template_instantiation():
    t = PatternTemplate("la <T> es un")
    assert t.instantiate("aguja") == "la aguja es un"


def test_template_accepts_angle_bracket_placeholder():
    t = PatternTemplate("la ⟨T⟩ es un")
    assert t.surface == "la <T> es un"


def test_template_requires_exactly_one_placeholder():
    with pytest.raises(DataError, match="exactly one"):
        PatternTemplate("es un")
    with pytest.raises(DataError, match="exactly one"):
        PatternTemplate("<T> y <T>")


def test_template_rejects_placeholder_only_surface():
    with pytest.raises(DataError, match="empty besides"):
        PatternTemplate("  <T> ")


def test_template_rejects_unknown_def_type():
    with pytest.raises(DataError, match="def_type"):
        PatternTemplate("la <T> es", def_type="rhetorical")


# ---------------------------------------------------------------- expansion

def expand(templates, terms):
    return [pattern.text for pattern in compile_search_patterns(templates, terms)]


def test_expand_cross_product_templates_major():
    templates = [PatternTemplate("la <T> es un"), PatternTemplate("define una <T>")]
    got = expand(templates, ["aguja", "barra"])
    assert got == [
        "la aguja es un",
        "la barra es un",
        "define una aguja",
        "define una barra",
    ]


def test_expand_drops_duplicates():
    templates = [PatternTemplate("la <T> es"), PatternTemplate("la <T> es")]
    assert expand(templates, ["x"]) == ["la x es"]


def test_expand_output_contains_its_term():
    templates = default_templates()
    terms = ["aguja", "célula"]
    for text in expand(templates, terms):
        assert any(term in text for term in terms)


def test_expand_requires_inputs():
    with pytest.raises(ValueError):
        expand([], ["x"])
    with pytest.raises(ValueError):
        expand([PatternTemplate("la <T> es")], [])


def test_compile_rejects_blank_terms():
    with pytest.raises(DataError, match="non-empty"):
        compile_search_patterns([PatternTemplate("la <T> es")], ["  "])


# ---------------------------------------------------------------- scanning

def test_scan_finds_definition_candidate():
    patterns = compile_search_patterns(
        [PatternTemplate("la <T> es un")], ["aguja"]
    )
    text = "Según el manual, la aguja es un instrumento fino. Nada más."
    cands = scan_text(text, "doc1", patterns)
    assert len(cands) == 1
    c = cands[0]
    start = text.index("la aguja es un")
    assert c.span == (start, start + len("la aguja es un"))
    assert c.term == "aguja"
    assert c.tail == "instrumento fino"
    assert c.verified is False


def test_scan_extracts_the_non_definition_too():
    # a pattern hit is only ever a candidate; this sentence defines nothing
    patterns = compile_search_patterns([PatternTemplate("la <T> es el")], ["aguja"])
    cands = scan_text(NEGATIVE_SENTENCE, "doc2", patterns)
    assert len(cands) == 1
    assert cands[0].tail == "más frecuente"
    assert cands[0].verified is False


def test_scan_is_case_insensitive():
    patterns = compile_search_patterns([PatternTemplate("la <T> es un")], ["aguja"])
    cands = scan_text("LA AGUJA ES UN metal.", "d", patterns)
    assert len(cands) == 1
    assert cands[0].span == (0, len("LA AGUJA ES UN"))


def test_scan_tolerates_flexible_whitespace():
    patterns = compile_search_patterns([PatternTemplate("la <T> es un")], ["aguja"])
    text = "la  aguja\tes\n un objeto."
    cands = scan_text(text, "d", patterns)
    assert len(cands) == 1
    start, end = cands[0].span
    assert start == 0
    assert text[start:end] == "la  aguja\tes\n un"


def test_scan_reports_overlapping_occurrences():
    patterns = compile_search_patterns([PatternTemplate("a <T> a")], ["b"])
    cands = scan_text("a b a b a", "d", patterns)
    assert [c.span for c in cands] == [(0, 5), (4, 9)]


def test_scan_zero_occurrences_is_empty():
    patterns = compile_search_patterns([PatternTemplate("la <T> es un")], ["aguja"])
    assert scan_text("nada que ver aquí", "d", patterns) == []


def test_scan_results_sorted_by_span():
    templates = [PatternTemplate("la <T> es un"), PatternTemplate("la <T> es la")]
    patterns = compile_search_patterns(templates, ["barra", "célula"])
    text = (
        "la célula es la unidad; la barra es un perfil. "
        "Otra vez: la célula es la base."
    )
    cands = scan_text(text, "d", patterns)
    spans = [c.span for c in cands]
    assert spans == sorted(spans)
    assert len(cands) == 3


def test_scan_tail_stops_at_any_terminator():
    patterns = compile_search_patterns([PatternTemplate("la <T> es un")], ["x"])
    for terminator in (".", ";", "\n"):
        text = f"la x es un objeto raro{terminator} y algo más"
        cands = scan_text(text, "d", patterns)
        assert cands[0].tail == "objeto raro"


def test_scan_tail_empty_when_terminator_adjacent():
    patterns = compile_search_patterns([PatternTemplate("la <T> es un")], ["x"])
    cands = scan_text("la x es un. y más", "d", patterns)
    assert cands[0].tail == ""


def test_scan_tail_runs_to_end_without_terminator():
    patterns = compile_search_patterns([PatternTemplate("la <T> es un")], ["x"])
    cands = scan_text("la x es un objeto raro", "d", patterns)
    assert cands[0].tail == "objeto raro"


def test_scan_rejects_empty_text():
    patterns = compile_search_patterns([PatternTemplate("la <T> es un")], ["x"])
    with pytest.raises(ValueError):
        scan_text("", "d", patterns)


def test_planted_instances_all_found():
    """Randomized mini version of the planted-completeness check."""
    rng = random.Random(71)
    templates = [
        PatternTemplate("la <T> es un"),
        PatternTemplate("define una <T>"),
        PatternTemplate("las <T>s son"),
    ]
    terms = ["aguja", "barra", "célula"]
    patterns = compile_search_patterns(templates, terms)
    filler_words = ["campo", "flor", "mar", "viento", "piedra"]
    for _ in range(10):
        pieces = []
        cursor = 0
        expected = []
        k = rng.randint(1, 8)
        for _ in range(k):
            filler = " ".join(rng.choice(filler_words) for _ in range(rng.randint(1, 5)))
            chunk = filler + ". "
            pieces.append(chunk)
            cursor += len(chunk)
            planted = rng.choice(patterns).text
            expected.append((cursor, cursor + len(planted)))
            pieces.append(planted)
            cursor += len(planted)
            tail = " cosa concreta. "
            pieces.append(tail)
            cursor += len(tail)
        text = "".join(pieces)
        cands = scan_text(text, "synthetic", patterns)
        assert [c.span for c in cands] == sorted(expected)


# ---------------------------------------------------------------- scan oracle

def reference_scan(text, source_id, patterns):
    """The plain scan: one search loop over the whole text per pattern."""
    hits = []
    for pattern in patterns:
        regex = re.compile(r"\s+".join(map(re.escape, pattern.text.split())), _MATCH_FLAGS)
        pos = 0
        while True:
            match = regex.search(text, pos)
            if match is None:
                break
            hits.append(
                CandidateContext(
                    source_id=source_id,
                    span=(match.start(), match.end()),
                    term=pattern.term,
                    matched_pattern=pattern.template,
                    tail=_tail_after(text, match.end()),
                )
            )
            pos = match.start() + 1
    hits.sort(key=lambda c: (c.span, c.matched_pattern.surface, c.term))
    return hits


# "<T> es un" with "la x" repeats the text of "la <T> es un" with "x",
# which compile_search_patterns drops; "<T> ..." templates share no
# leading word; "define\tuna <T>" has a tab inside the template; "<T>s"
# makes one-word patterns, alone or beside longer ones on the same word.
ORACLE_TEMPLATES = [
    PatternTemplate("la <T> es un"),
    PatternTemplate("la <T> es"),
    PatternTemplate("las <T>s son"),
    PatternTemplate("<T> es un"),
    PatternTemplate("<T>, que es"),
    PatternTemplate("define\tuna <T>"),
    PatternTemplate("ha definido la <T>"),
    PatternTemplate("<T>s"),
]
# sre's case classes with more than two members (IGNORECASE matches
# across each row), and whitespace that both \s and str.split take
CASE_CLASSES = [
    "kK\u212a",
    "sS\u017f",
    "iI\u0130\u0131",
    "\u03c3\u03a3\u03c2",
    "\u00b5\u03bc\u039c",
]
CASE_CLASS_OF = {ch: row for row in CASE_CLASSES for ch in row}
EXOTIC_SPACES = ["\xa0", "\x85", "\x1c", "\u2028", "\u3000"]
# nested ("x" inside "x es un y"), prefix-sharing ("barra"/"barras"),
# non-ASCII case pairs, whitespace other than a space inside terms, one
# member of each case class above, and "\x00", the fold's sentinel for
# patterns that do not hold it
ORACLE_TERMS = [
    "x", "x es un y", "la x", "barra", "barras", "Ñandú", "ñandú", "É",
    "a\tb", "ca\nsa", "ki\u017f\u03c3", "\u212aI\u03c2\u00b5",
    "o\u3000\u0131s", "n\x00l",
]
ORACLE_FILLER = [
    "", " ", ". ", "; ", "\n", ", ", "la", "las", "es un", "s son", "y",
    "Ñ", "ñandú", "É", "é", " que es", "define", "ha", "z", "barra",
    "\x00", "\x01", *"".join(CASE_CLASSES), *EXOTIC_SPACES,
]
WHITESPACE = [" ", "  ", "\t", "\n", " \n\t", *EXOTIC_SPACES]
CASES = [str, str.lower, str.upper, str.title, str.swapcase]


@st.composite
def respelled(draw, text):
    """``text``, perhaps cut short, re-cased and re-spaced, with each
    character of a case class swapped for any member of it."""
    if draw(st.booleans()):
        text = text[: draw(st.integers(1, len(text)))]
    text = draw(st.sampled_from(CASES))(text)
    text = "".join(
        draw(st.sampled_from(CASE_CLASS_OF[ch])) if ch in CASE_CLASS_OF else ch
        for ch in text
    )
    return "".join(
        draw(st.sampled_from(WHITESPACE)) if ch.isspace() else ch for ch in text
    )


@st.composite
def scan_cases(draw):
    """Templates, terms, and a text dense in their (respelled) instances."""
    templates = draw(
        st.lists(st.sampled_from(ORACLE_TEMPLATES), min_size=1, max_size=7, unique=True)
    )
    terms = draw(
        st.lists(st.sampled_from(ORACLE_TERMS), min_size=1, max_size=10, unique=True)
    )
    instances = [template.instantiate(term) for template in templates for term in terms]
    chunk = st.one_of(
        st.sampled_from(instances).flatmap(respelled),
        st.sampled_from(ORACLE_FILLER),
    )
    text = "".join(draw(st.lists(chunk, max_size=30))) or "."
    return templates, terms, text


@settings(max_examples=300, deadline=None)
@given(scan_cases())
def test_scan_equals_per_pattern_oracle(case):
    templates, terms, text = case
    patterns = compile_search_patterns(templates, terms)
    assert scan_text(text, "d", patterns) == reference_scan(text, "d", patterns)


def test_fold_is_sre_ignorecase_on_exotic_classes():
    """x matches pattern character c under IGNORECASE iff both fold alike."""
    chars = "".join(CASE_CLASSES)
    patterns = compile_search_patterns([PatternTemplate("<T>s")], [chars + "\x00"])
    table = _CaseClasses(patterns)
    for c in chars:
        for x in chars:
            same_class = CASE_CLASS_OF[c] == CASE_CLASS_OF[x]
            assert bool(re.fullmatch(re.escape(c), x, _MATCH_FLAGS)) == same_class
            assert (x.translate(table) == c.translate(table)) == same_class
    for space in EXOTIC_SPACES:
        assert re.fullmatch(r"\s", space, _MATCH_FLAGS) and space.split() == []
        assert space.translate(table) == " "
    # a pattern holding "\x00" moves the sentinel: other characters fold
    # to one that no pattern character folds to
    folded_pattern = patterns[0].text.translate(table)
    assert "\x00" in folded_pattern
    assert {ch.translate(table) for ch in "\x01\u20acz"} == {table.sentinel}
    assert table.sentinel not in folded_pattern + " "


def test_compiled_patterns_scan_without_rebuilding_their_fold():
    patterns = compile_search_patterns(ORACLE_TEMPLATES, ORACLE_TERMS)
    assert isinstance(patterns, tuple) and len(patterns) == len(set(patterns))
    texts = ["La X es un y. Define\tuna BARRA; las ñandús son", "nada", "ha definido la É."]
    with mock.patch("defclust.patterns._CaseClasses", side_effect=AssertionError("rebuilt")):
        got = [scan_text(text, "d", patterns) for text in texts]
    # a plain list of patterns has its fold and regexes built for the call
    assert got == [scan_text(text, "d", list(patterns)) for text in texts]
    assert got == [reference_scan(text, "d", patterns) for text in texts]
    assert [len(hits) for hits in got] == [8, 0, 1]


def test_scan_reports_every_pattern_matching_at_one_start():
    templates = [PatternTemplate("la <T> es un"), PatternTemplate("<T> es un")]
    patterns = compile_search_patterns(templates, ["x", "x es un y"])
    text = "la X es un y es un z."
    got = scan_text(text, "d", patterns)
    assert got == reference_scan(text, "d", patterns)
    assert [(c.span, c.term) for c in got] == [
        ((0, 10), "x"),
        ((0, 18), "x es un y"),
        ((3, 10), "x"),
        ((3, 18), "x es un y"),
    ]
    # members that share a start end at different offsets of one folded
    # match, across runs of mixed whitespace
    text = "La \t X\n es  UN y es un z."
    got = scan_text(text, "d", patterns)
    assert got == reference_scan(text, "d", patterns)
    assert [(c.span, c.term) for c in got] == [
        ((0, 14), "x"),
        ((0, 22), "x es un y"),
        ((5, 14), "x"),
        ((5, 22), "x es un y"),
    ]
    # a bare word is found alone too, where no longer key on it matches
    templates = [PatternTemplate("<T>s"), PatternTemplate("<T> es un")]
    patterns = compile_search_patterns(templates, ["barra", "barras"])
    text = "BARRAS; barras\tes un perfil."
    got = scan_text(text, "d", patterns)
    assert got == reference_scan(text, "d", patterns)
    assert [(c.span, c.term) for c in got] == [
        ((0, 6), "barra"),
        ((8, 14), "barra"),
        ((8, 20), "barras"),
    ]


def test_compile_builds_one_regex_per_leading_word():
    templates = default_templates()
    terms = [f"término{k}" for k in range(40)]
    with mock.patch("defclust.patterns.re.compile", wraps=re.compile) as spy:
        compile_search_patterns(templates, terms)
    leading_words = {template.surface.split()[0] for template in templates}
    # one finder per leading word, and one regex for the fold classes
    assert spy.call_count == len(leading_words) + 1 == 7


# ---------------------------------------------------------------- candidates

def make_candidate(source="f", span=(0, 5), term="x", tail="algo", def_type="analytic"):
    return CandidateContext(
        source_id=source,
        span=span,
        term=term,
        matched_pattern=PatternTemplate("la <T> es", def_type=def_type),
        tail=tail,
    )


def test_candidates_to_corpus_id_scheme():
    cands = [
        make_candidate(span=(0, 5), tail="uno"),
        make_candidate(span=(10, 15), tail="dos"),
        make_candidate(source="g", span=(3, 8), tail="tres"),
    ]
    docs = candidates_to_corpus(cands)
    assert [d.id for d in docs] == ["f#1", "f#2", "g#1"]
    assert [d.text for d in docs] == ["uno", "dos", "tres"]
    assert all(d.term == "x" and d.def_type == "analytic" for d in docs)


def test_candidates_to_corpus_drops_empty_tails(caplog):
    cands = [
        make_candidate(span=(0, 5), tail="uno"),
        make_candidate(span=(9, 14), tail=""),
        make_candidate(span=(20, 25), tail=""),
        make_candidate(span=(30, 35), tail="dos"),
    ]
    with caplog.at_level(logging.WARNING, logger="defclust.patterns"):
        docs = candidates_to_corpus(cands)
    assert [d.id for d in docs] == ["f#1", "f#2"]
    assert "2 candidate(s)" in caplog.text


def test_candidate_jsonl_shape():
    cand = make_candidate(span=(2, 9), tail="cola")
    line = candidates_to_jsonl([cand]).splitlines()[0]
    record = json.loads(line)
    assert record == {
        "source_id": "f",
        "span": [2, 9],
        "term": "x",
        "pattern": "la <T> es",
        "def_type": "analytic",
        "tail": "cola",
    }


# ---------------------------------------------------------------- files

def test_load_pattern_file(tmp_path):
    path = tmp_path / "patterns.tsv"
    path.write_text(
        "# comment line\n"
        "la <T> es un\tanalytic\n"
        "\n"
        "contiene <T>\textensional\n",
        encoding="utf-8",
    )
    templates = load_pattern_file(path)
    assert [(t.surface, t.def_type) for t in templates] == [
        ("la <T> es un", "analytic"),
        ("contiene <T>", "extensional"),
    ]


def test_load_pattern_file_reports_bad_lines(tmp_path):
    path = tmp_path / "patterns.tsv"
    path.write_text("la <T> es un\n", encoding="utf-8")  # missing def_type column
    with pytest.raises(DataError, match=":1"):
        load_pattern_file(path)
    path.write_text("sin hueco\tanalytic\n", encoding="utf-8")
    with pytest.raises(DataError, match=":1.*exactly one"):
        load_pattern_file(path)
    path.write_text("# only comments\n", encoding="utf-8")
    with pytest.raises(DataError, match="no templates"):
        load_pattern_file(path)


def test_default_templates_inventory():
    templates = default_templates()
    assert len(templates) == 9
    assert all(t.surface.count("<T>") == 1 for t in templates)
    assert all(t.def_type == "analytic" for t in templates)
    surfaces = {t.surface for t in templates}
    assert "la <T> es un" in surfaces
