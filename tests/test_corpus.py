"""Tokenization, corpus ingestion, and the binary doc-term matrix."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from defclust import (
    BinaryDocTermMatrix,
    DataError,
    Document,
    Tokenizer,
    build_matrix,
    energy_matrix,
    hamming_distance_vector,
    load_corpus,
    load_phrases,
    load_stopwords,
    parse_jsonl_corpus,
)
from defclust.corpus import check_binary_cells, corpus_to_jsonl
from defclust.errors import read_utf8

# word soup for randomized corpora; accents on purpose
WORDS = (
    "aguja", "barra", "célula", "dato", "estrella", "farol", "grieta",
    "hoja", "isla", "jarra", "kilo", "luz", "mapa", "nube", "ñandú",
)


def make_docs(rng, n, max_len=6):
    docs = []
    for j in range(n):
        k = rng.randint(1, max_len)
        text = " ".join(rng.choice(WORDS) for _ in range(k))
        docs.append(Document(id=f"d{j}", text=text))
    return docs


# ---------------------------------------------------------------- tokenize

def test_tokenize_lowercases_and_splits_on_punctuation():
    assert Tokenizer()("La célula, es un") == ["la", "célula", "es", "un"]


def test_tokenize_keeps_opaque_symbols():
    # inintelligible strings are still valid lexical entities
    assert Tokenizer()("B4 Viv") == ["b4", "viv"]


def test_tokenize_punctuation_only_is_empty():
    assert Tokenizer()("¡¡¡") == []


def test_tokenize_underscore_is_a_separator():
    assert Tokenizer()("foo_bar") == ["foo", "bar"]


def test_tokenize_preserves_diacritics():
    assert Tokenizer()("Ñandú según ESTÁ") == ["ñandú", "según", "está"]


def test_tokenize_stopwords_removed_case_insensitively(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("LA\nes\nun\n", encoding="utf-8")
    tok = Tokenizer(stopwords=load_stopwords(path))
    assert tok("La célula ES un") == ["célula"]


def test_tokenize_phrases_merge_into_single_tokens():
    tok = Tokenizer(phrases=(("república", "francesa"),))
    got = tok("la República Francesa existe")
    assert got == ["la", "república francesa", "existe"]


def test_tokenize_phrase_longest_match_wins():
    got = Tokenizer(phrases=(("a", "b"), ("a", "b", "c")))("a b c d")
    assert got == ["a b c", "d"]


def test_tokenizer_drop_term_removes_own_term_only():
    tok = Tokenizer(drop_term=True)
    doc = Document(id="x", text="la barra de la barra", term="barra")
    assert tok.doc_tokens(doc) == ["la", "de", "la"]
    # other docs' terms stay
    other = Document(id="y", text="la barra brilla", term="luz")
    assert tok.doc_tokens(other) == ["la", "barra", "brilla"]


@given(st.lists(st.sampled_from(WORDS), min_size=1, max_size=8))
def test_tokenize_of_joined_words_returns_them(words):
    assert Tokenizer()(" ".join(words)) == list(words)


# ---------------------------------------------------------------- Document

def test_document_rejects_empty_id():
    with pytest.raises(DataError):
        Document(id="", text="algo")


def test_document_rejects_blank_text():
    with pytest.raises(DataError):
        Document(id="d", text="   ")


def test_document_rejects_unknown_def_type():
    with pytest.raises(DataError, match="def_type"):
        Document(id="d", text="algo", def_type="poetic")


# ---------------------------------------------------------------- loaders

def test_load_corpus_jsonl_maps_fields(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(
        '{"id":"d1","text":"la célula es la unidad de vida"}\n'
        '{"id":"d2","text":"otra cosa","term":"cosa","def_type":"analytic","gold_sense":"s1"}\n',
        encoding="utf-8",
    )
    docs = load_corpus(path)
    assert [d.id for d in docs] == ["d1", "d2"]
    assert docs[0].text.startswith("la célula")
    assert docs[1].term == "cosa"
    assert docs[1].def_type == "analytic"
    assert docs[1].gold_sense == "s1"


def test_load_corpus_plain_lines_numbers_from_one(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("uno\ndos\ntres\n", encoding="utf-8")
    docs = load_corpus(path, format="plain_lines")
    assert [d.id for d in docs] == ["1", "2", "3"]
    assert [d.text for d in docs] == ["uno", "dos", "tres"]


def test_load_corpus_rejects_unknown_format(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("uno\n", encoding="utf-8")
    with pytest.raises(ValueError, match="format"):
        load_corpus(path, format="csv")


def test_jsonl_duplicate_id_is_an_error():
    lines = ['{"id":"d1","text":"a b"}', '{"id":"d1","text":"c d"}']
    with pytest.raises(DataError, match="duplicate document id 'd1'"):
        parse_jsonl_corpus(lines)


def test_jsonl_bad_json_reports_line_number():
    with pytest.raises(DataError, match="f.jsonl:2"):
        parse_jsonl_corpus(['{"id":"d1","text":"a"}', "{oops"], origin="f.jsonl")


def test_jsonl_missing_field_reports_line_number():
    with pytest.raises(DataError, match=":1.*'text'"):
        parse_jsonl_corpus(['{"id":"d1"}'])


def test_jsonl_non_object_record_rejected():
    with pytest.raises(DataError, match="JSON object"):
        parse_jsonl_corpus(["[1, 2]"])


def test_jsonl_blank_lines_skipped():
    docs = parse_jsonl_corpus(['{"id":"d1","text":"a"}', "", '{"id":"d2","text":"b"}'])
    assert [d.id for d in docs] == ["d1", "d2"]


def test_written_jsonl_corpus_parses_back_to_the_same_documents():
    docs = [
        Document(id="d1", text="plain"),
        Document(id="d2", text="ñandú «pétalo» 花", term="flor", def_type="analytic"),
        Document(id="d3", text="numeric sense", gold_sense=3),
        Document(id="d4", text="all", term="t", def_type="functional", gold_sense="s:1"),
    ]
    text = corpus_to_jsonl(docs)
    lines = text.splitlines()
    assert parse_jsonl_corpus(lines) == docs
    assert json.loads(lines[0]) == {"id": "d1", "text": "plain"}
    assert "ñandú «pétalo» 花" in text and text.endswith("}\n")
    assert list(json.loads(lines[3])) == ["id", "text", "term", "def_type", "gold_sense"]
    assert json.loads(lines[2])["gold_sense"] == 3


def test_load_stopwords_lowercases_and_skips_blanks(tmp_path):
    path = tmp_path / "sw.txt"
    path.write_text("La\n\nDE\n según \n", encoding="utf-8")
    assert load_stopwords(path) == frozenset({"la", "de", "según"})


def test_load_phrases_normalizes_lines(tmp_path):
    path = tmp_path / "ph.txt"
    path.write_text("República Francesa\n\nbarra de tareas\n", encoding="utf-8")
    assert load_phrases(path) == (
        ("república", "francesa"),
        ("barra", "de", "tareas"),
    )


def test_read_utf8_translates_newlines_like_text_mode(tmp_path):
    path = tmp_path / "crlf.txt"
    path.write_bytes("uno\r\ndos\rtres\r\r\ncuatro\n\rñu".encode("utf-8"))
    assert read_utf8(path) == path.read_text(encoding="utf-8")
    assert read_utf8(path) == "uno\ndos\ntres\n\ncuatro\n\nñu"


# ---------------------------------------------------------------- dictionary

def test_dictionary_entries_sorted_and_unique():
    m = build_matrix([Document(id="1", text="b a c a")])
    assert m.terms == ("a", "b", "c")
    assert m.data.tolist() == [[1, 1, 1]]


def test_build_dictionary_is_union_of_tokens():
    docs = [Document(id="1", text="a b"), Document(id="2", text="b c")]
    assert build_matrix(docs).terms == ("a", "b", "c")


def test_build_dictionary_rejects_empty_collection():
    with pytest.raises(ValueError):
        build_matrix([])


def test_build_dictionary_rejects_all_empty_tokenizations():
    docs = [Document(id="1", text="...")]
    with pytest.raises(DataError, match="tokenized to nothing"):
        build_matrix(docs)


def test_dictionary_order_stable_under_doc_reordering():
    import random

    rng = random.Random(7)
    docs = make_docs(rng, 12)
    shuffled = list(docs)
    rng.shuffle(shuffled)
    assert build_matrix(docs).terms == build_matrix(shuffled).terms


# ---------------------------------------------------------------- vectorize

def test_vectorize_presence_collapses_repeats():
    docs = [Document(id="1", text="a a c"), Document(id="2", text="b")]
    m = build_matrix(docs)
    assert m.terms == ("a", "b", "c")
    assert m.data.tolist() == [[1, 0, 1], [0, 1, 0]]


def test_vectorize_identical_docs_identical_rows():
    docs = [Document(id="1", text="a b"), Document(id="2", text="a b")]
    m = build_matrix(docs)
    assert (m.data[0] == m.data[1]).all()


def test_vectorize_rejects_duplicate_ids():
    docs = [Document(id="1", text="a"), Document(id="1", text="b")]
    with pytest.raises(DataError, match="unique"):
        build_matrix(docs)


def test_vectorize_rejects_doc_tokenizing_to_nothing():
    docs = [Document(id="1", text="a"), Document(id="2", text="?!")]
    with pytest.raises(DataError, match="'2'"):
        build_matrix(docs)


def test_vectorize_deterministic_bit_identical():
    import random

    rng = random.Random(3)
    docs = make_docs(rng, 15)
    a = build_matrix(docs)
    b = build_matrix(docs)
    assert np.array_equal(a.data, b.data)
    assert a.doc_ids == b.doc_ids
    assert a.terms == b.terms


@settings(max_examples=40)
@given(
    st.lists(
        st.lists(st.sampled_from(WORDS), min_size=1, max_size=6),
        min_size=1,
        max_size=8,
    )
)
def test_vectorize_cell_iff_token_present(token_lists):
    docs = [
        Document(id=f"d{j}", text=" ".join(tokens))
        for j, tokens in enumerate(token_lists)
    ]
    m = build_matrix(docs)
    tok = Tokenizer()
    for j, doc in enumerate(docs):
        present = set(tok.doc_tokens(doc))
        for i, entry in enumerate(m.terms):
            assert m.data[j, i] == (1 if entry in present else 0)


def test_reordering_docs_permutes_rows_identically():
    import random

    rng = random.Random(11)
    docs = make_docs(rng, 10)
    base = build_matrix(docs)
    order = list(range(len(docs)))
    rng.shuffle(order)
    permuted = build_matrix([docs[k] for k in order])
    assert permuted.terms == base.terms
    assert np.array_equal(permuted.data, base.data[order])
    assert permuted.doc_ids == tuple(base.doc_ids[k] for k in order)


def test_build_matrix_tokenizes_each_document_once(monkeypatch):
    import random

    calls = []
    doc_tokens = Tokenizer.doc_tokens

    def counting_doc_tokens(self, doc):
        calls.append(doc.id)
        return doc_tokens(self, doc)

    monkeypatch.setattr(Tokenizer, "doc_tokens", counting_doc_tokens)
    docs = make_docs(random.Random(5), 9)
    build_matrix(docs, Tokenizer(drop_term=True))
    assert calls == [doc.id for doc in docs]


# ------------------------------------------------- one pass vs two passes

def reference_build_matrix(docs, tokenizer=None):
    """The two-pass construction: collect the vocabulary, then fill rows.

    Returns ``(data, terms, doc_ids)``.  Every document is tokenized once
    for the vocabulary and once more for its row.
    """
    if not docs:
        raise ValueError("cannot build a dictionary from an empty collection")
    tok = tokenizer if tokenizer is not None else Tokenizer()
    vocabulary = set()
    for doc in docs:
        vocabulary.update(tok.doc_tokens(doc))
    if not vocabulary:
        raise DataError("all documents tokenized to nothing")
    terms = tuple(sorted(vocabulary))
    index = {term: i for i, term in enumerate(terms)}
    ids = tuple(doc.id for doc in docs)
    if len(set(ids)) != len(docs):
        raise DataError("document ids must be unique within a collection")
    data = np.zeros((len(docs), len(terms)), dtype=np.uint8)
    for j, doc in enumerate(docs):
        tokens = tok.doc_tokens(doc)
        if not tokens:
            raise DataError(f"document {doc.id!r} tokenized to nothing")
        for token in tokens:
            data[j, index[token]] = 1
    return data, terms, ids


def _outcome(build, docs, tok):
    try:
        return build(docs, tok)
    except ValueError as exc:  # DataError included
        return type(exc), str(exc)


# accents, upper case, punctuation-only pieces, stopword and phrase words
PIECES = WORDS + (
    "Célula", "LUZ", "la", "de", "república", "República Francesa", "la luz", "¿?", "...",
)

docs_strategy = st.lists(
    st.tuples(
        st.lists(st.sampled_from(PIECES), min_size=1, max_size=7),
        st.none() | st.sampled_from(("luz", "célula", "república francesa")),
        st.integers(0, 11),
    ),
    min_size=1,
    max_size=9,
).map(
    lambda rows: [
        # id collisions only when the drawn slot is 11, so most runs get
        # past the duplicate-id check
        Document(id=f"d{k}" if k == 11 else f"d{j}", text=" ".join(words), term=term)
        for j, (words, term, k) in enumerate(rows)
    ]
)

tokenizer_strategy = st.builds(
    Tokenizer,
    stopwords=st.frozensets(st.sampled_from(("la", "de", "luz", "célula", "ñandú"))),
    phrases=st.lists(
        st.sampled_from((("república", "francesa"), ("la", "luz"), ("dato", "mapa", "nube"))),
        unique=True,
    ).map(tuple),
    drop_term=st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(docs_strategy, tokenizer_strategy)
@example([], Tokenizer())
# each error case, and each ahead of the next when both apply
@example([Document(id="1", text="¿?"), Document(id="1", text="...")], Tokenizer())
@example([Document(id="x", text="a"), Document(id="x", text="...")], Tokenizer())
@example(
    [Document(id="1", text="luz"), Document(id="2", text="la de"), Document(id="3", text="?")],
    Tokenizer(stopwords=frozenset({"la", "de"})),
)
def test_build_matrix_equals_two_pass_reference(docs, tok):
    got = _outcome(build_matrix, docs, tok)
    want = _outcome(reference_build_matrix, docs, tok)
    if isinstance(want[0], type):
        assert got == want
        return
    data, terms, ids = want
    assert got.data.dtype == np.uint8
    assert np.array_equal(got.data, data)
    assert got.terms == terms
    assert got.doc_ids == ids


# ---------------------------------------------------------------- matrix type

def test_matrix_rejects_non_binary_cells():
    with pytest.raises(ValueError, match="0 or 1"):
        BinaryDocTermMatrix(
            data=np.array([[2, 0]]),
            doc_ids=("d1",),
            terms=("a", "b"),
        )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "cells",
    [
        np.array([[0, 1]], dtype=np.uint8),
        np.array([[1, 3]], dtype=np.uint8),
        np.array([[0, 1], [-1, 1]], dtype=np.int8),
        np.array([[True, False]]),
        np.array([[0.0, -0.0, 1.0]]),
        np.array([[1.0, np.nan]]),
        np.array([[0.5, 1.0]], dtype=np.float32),
        np.array([["0", "1"]]),
        np.array([[0, 1, True, 1.0]], dtype=object),
        np.array([[1, None]], dtype=object),
    ],
    ids=["uint8", "uint8-3", "int8", "bool", "float", "nan", "float32", "str", "object",
         "object-none"],
)
def test_binary_check_accepts_what_isin_accepts(cells):
    # one check serves the matrix type and raw arrays passed to distances
    calls = [
        lambda: BinaryDocTermMatrix(
            data=cells,
            doc_ids=tuple(f"d{j}" for j in range(cells.shape[0])),
            terms=tuple(f"t{i}" for i in range(cells.shape[1])),
        ),
        lambda: energy_matrix(cells),
        lambda: hamming_distance_vector(np.vstack([cells, cells])),
    ]
    for call in calls:
        if np.isin(cells, (0, 1)).all():
            call()
        else:
            with pytest.raises(ValueError, match="^matrix cells must be exactly 0 or 1$"):
                call()


@pytest.mark.parametrize(
    "cells",
    [
        np.array([[0, 256]], dtype=np.uint16),
        np.array([[1, 0], [0, 1]], dtype=np.uint16),
        np.zeros((0, 3), dtype=np.uint8),
        np.array([[True, True], [False, True]]),
    ],
    ids=["uint16-256", "uint16", "no-rows", "bool"],
)
def test_binary_check_by_maximum_accepts_what_isin_accepts(cells):
    # unsigned and bool cells are decided by their maximum alone
    if np.isin(cells, (0, 1)).all():
        check_binary_cells(cells)
    else:
        with pytest.raises(ValueError, match="^matrix cells must be exactly 0 or 1$"):
            check_binary_cells(cells)


def test_matrix_rejects_all_zero_row():
    with pytest.raises(ValueError, match="at least one 1"):
        BinaryDocTermMatrix(
            data=np.array([[1, 0], [0, 0]]),
            doc_ids=("d1", "d2"),
            terms=("a", "b"),
        )


def test_matrix_rejects_shape_mismatches():
    with pytest.raises(ValueError, match="doc_ids"):
        BinaryDocTermMatrix(
            data=np.array([[1, 0]]),
            doc_ids=("d1", "d2"),
            terms=("a", "b"),
        )
    with pytest.raises(ValueError, match="terms length"):
        BinaryDocTermMatrix(
            data=np.array([[1, 0]]),
            doc_ids=("d1",),
            terms=("a",),
        )


def test_matrix_dimensions_exposed():
    m = build_matrix([Document(id="1", text="a b"), Document(id="2", text="c")])
    assert (m.n, m.p) == (2, 3)


# ---------------------------------------------------------------- bundled data

def test_bundled_corpus_shape(synthetic_docs):
    assert len(synthetic_docs) == 120
    terms = {d.term for d in synthetic_docs}
    assert len(terms) == 4
    senses = {d.gold_sense for d in synthetic_docs}
    assert len(senses) == 12
    # ten paraphrases per sense
    per_sense = {}
    for d in synthetic_docs:
        per_sense[d.gold_sense] = per_sense.get(d.gold_sense, 0) + 1
    assert set(per_sense.values()) == {10}


def test_bundled_corpus_matches_gold(synthetic_docs, synthetic_senses):
    for doc in synthetic_docs:
        assert synthetic_senses.sense_of[doc.id] == doc.gold_sense


def test_bundled_tokenizer_strips_function_words(synthetic_docs):
    from defclust import synthetic_tokenizer

    tok = synthetic_tokenizer()
    for doc in synthetic_docs:
        tokens = tok.doc_tokens(doc)
        assert len(tokens) >= 2, doc.id
        assert "la" not in tokens and "de" not in tokens
