"""Synthetic document generation, the hierarchy oracle, JSONL io, and splits."""

import dataclasses
import hashlib
import json
import os

import pytest
from hypothesis import given, strategies as st

import jaeger.data

from jaeger.data import (CATEGORIES, Document, GenConfig,
                         generate_corpus, generate_document, generate_questions,
                         hierarchy_oracle, read_jsonl, split_corpus, write_jsonl)
from jaeger.errors import (ContractError, GenerationError, ParseError, SchemaError,
                           UnknownElementError)
from jaeger.rng import Xoshiro256


# name: (seed, documents, config, SHA-256 of the corpus's JSONL), four questions a document.
PINNED_CORPORA = {
    "quick-start": (7, 200, GenConfig(),
                    "2fde7065e7f339865e20255b8077c6f77c04deeccdd2605ba9bef4d3d9b26c03"),
    "benchmark-1-page": (1, 20, GenConfig(n_pages=1, elements_per_page=(4, 8), max_depth=4,
                                          d_vis=8),
                         "52f0b9e567b82ade545fb90513f08e515aa36b10046d7c9ebab6170cba4910b6"),
    "benchmark-3-pages": (1, 20, GenConfig(n_pages=3, elements_per_page=(8, 12), max_depth=4,
                                           d_vis=8),
                          "e48d6a815626ef22cacba9fb99d43505fd50ee68358b0a9e390f01dee5a8cf2c"),
    "edge": (99, 20, GenConfig(n_pages=2, elements_per_page=(1, 3), max_depth=1, d_vis=9),
             "a957a49f6c44274ac0729720ae42c9172ebbcf622ab9871d539cc3f8169c41c7"),
}


def children_map(doc: Document) -> dict:
    """Independent parent-to-children index built by one linear scan."""
    out = {el.id: set() for el in doc.elements}
    for el in doc.elements:
        if el.parent is not None:
            out[el.parent].add(el.id)
    return out


class TestGenerateDocument:
    def test_same_seed_is_identical(self):
        a = generate_document(123)
        b = generate_document(123)
        assert a == b

    def test_different_seeds_differ(self):
        assert generate_document(1) != generate_document(2)

    def test_structure_invariants_hold_across_seeds(self):
        for seed in range(40):
            doc = generate_document(seed, GenConfig(n_pages=2, elements_per_page=(4, 8)))
            ids = [el.id for el in doc.elements]
            assert len(set(ids)) == len(ids)
            assert doc.elements[0].category == "title"
            assert doc.elements[0].parent is None
            id_set = set(ids)
            for el in doc.elements:
                assert el.category in CATEGORIES
                if el.parent is not None:
                    assert el.parent in id_set and el.parent != el.id

    def test_bboxes_stay_on_the_page_without_overlap(self):
        for seed in range(40):
            doc = generate_document(seed)
            for el in doc.elements:
                x1, y1, x2, y2 = el.bbox
                assert 0.0 <= x1 < x2 <= 1.0
                assert 0.0 <= y1 < y2 <= 1.0
            spans = sorted((el.bbox[1], el.bbox[3]) for el in doc.elements)
            for (_, bottom), (top, _) in zip(spans, spans[1:]):
                assert top >= bottom

    def test_marker_words_are_unique_per_element(self):
        doc = generate_document(7, GenConfig(elements_per_page=(8, 8)))
        markers = [el.text.split()[-1] for el in doc.elements]
        assert len(set(markers)) == len(markers)

    def test_visual_descriptor_shape_and_category_channel(self):
        cfg = GenConfig(d_vis=10)
        doc = generate_document(11, cfg)
        for el in doc.elements:
            assert len(el.vis) == 10
            cat_idx = CATEGORIES.index(el.category)
            assert el.vis[cat_idx] > 0.5

    def test_element_count_respects_bounds(self):
        for seed in range(20):
            doc = generate_document(seed, GenConfig(n_pages=1, elements_per_page=(4, 6)))
            assert 4 <= len(doc.elements) <= 6

    def test_overfull_page_raises(self):
        with pytest.raises(GenerationError):
            generate_document(0, GenConfig(elements_per_page=(200, 200)))

    def test_bad_config_rejected(self):
        with pytest.raises(ContractError):
            GenConfig(elements_per_page=(0, 4))
        with pytest.raises(ContractError):
            GenConfig(elements_per_page=(6, 4))
        with pytest.raises(ContractError):
            GenConfig(d_vis=3)

    def test_unknown_element_lookup(self):
        doc = generate_document(0)
        with pytest.raises(UnknownElementError):
            doc.element(9999)


class TestHierarchyOracle:
    def test_matches_independent_scan(self):
        for seed in range(30):
            doc = generate_document(seed, GenConfig(n_pages=2))
            index = children_map(doc)
            for el in doc.elements:
                assert hierarchy_oracle(doc, "children", el.id) == frozenset(index[el.id])
                expect = frozenset() if el.parent is None else frozenset({el.parent})
                assert hierarchy_oracle(doc, "parent", el.id) == expect

    def test_parent_children_symmetry(self):
        doc = generate_document(5, GenConfig(n_pages=2))
        for el in doc.elements:
            for child in hierarchy_oracle(doc, "children", el.id):
                assert hierarchy_oracle(doc, "parent", child) == frozenset({el.id})

    def test_root_has_empty_parent_set(self):
        doc = generate_document(3)
        assert hierarchy_oracle(doc, "parent", doc.elements[0].id) == frozenset()

    def test_bad_qtype_rejected(self):
        doc = generate_document(0)
        with pytest.raises(ContractError):
            hierarchy_oracle(doc, "siblings", 0)


class TestGenerateQuestions:
    def test_deterministic(self):
        doc = generate_document(9)
        assert generate_questions(doc, 4, 5) == generate_questions(doc, 4, 5)

    def test_answers_match_oracle(self):
        for seed in range(15):
            doc = generate_document(seed)
            for q in generate_questions(doc, seed + 100, 6):
                assert q.answers == hierarchy_oracle(doc, q.qtype, q.target)

    def test_question_mentions_target(self):
        doc = generate_document(2)
        for q in generate_questions(doc, 3, 4):
            el = doc.element(q.target)
            assert el.category in q.question
            assert el.text in q.question

    def test_some_children_question_is_answerable(self):
        """Whenever the document has any edge, the batch must contain at
        least one children question with a non-empty answer set."""
        for seed in range(25):
            doc = generate_document(seed)
            has_edge = any(el.parent is not None for el in doc.elements)
            if not has_edge:
                continue
            qs = generate_questions(doc, seed, 4)
            assert any(q.qtype == "children" and q.answers for q in qs)

    def test_qids_are_unique(self):
        doc = generate_document(1)
        qids = [q.qid for q in generate_questions(doc, 1, 8)]
        assert len(set(qids)) == len(qids)

    def test_bad_count_rejected(self):
        doc = generate_document(0)
        with pytest.raises(ContractError):
            generate_questions(doc, 0, 0)


class TestGenerateCorpus:
    def test_doc_ids_are_unique(self):
        docs = generate_corpus(17, 12)
        ids = [d.doc_id for d in docs]
        assert len(set(ids)) == len(ids)

    def test_questions_attached(self):
        docs = generate_corpus(17, 3, questions_per_doc=5)
        assert all(len(d.questions) == 5 for d in docs)

    def test_replay_is_identical(self):
        assert generate_corpus(21, 6) == generate_corpus(21, 6)

    def test_seed_changes_content(self):
        assert generate_corpus(21, 3) != generate_corpus(22, 3)

    @pytest.mark.parametrize("name", list(PINNED_CORPORA))
    def test_corpus_bytes_are_pinned(self, tmp_path, name):
        """The JSONL a seed gives never changes: the README quick start, both
        benchmark configs, and an edge config whose odd d_vis carries a gauss
        spare value from one element to the next and whose max_depth 1 takes
        the flat branch."""
        seed, n_docs, cfg, digest = PINNED_CORPORA[name]
        write_jsonl(generate_corpus(seed, n_docs, cfg), tmp_path / "corpus.jsonl")
        assert hashlib.sha256((tmp_path / "corpus.jsonl").read_bytes()).hexdigest() == digest

    def test_pages_that_cannot_fit_raise_before_drawing_them_all_ahead(self):
        """The words drawn ahead are capped, so a config whose pages could hold
        far more elements than fit still ends in GenerationError."""
        with pytest.raises(GenerationError):
            generate_corpus(0, 3, GenConfig(n_pages=10**6, elements_per_page=(200, 10**9)))

    @pytest.mark.parametrize("name", list(PINNED_CORPORA))
    def test_every_layout_word_of_a_pinned_corpus_is_drawn_ahead(self, monkeypatch, name):
        """No document of the pinned corpora reads past the layout words drawn
        for it, so generating them never steps a layout generator on its own."""
        seed, n_docs, cfg, _ = PINNED_CORPORA[name]
        layouts, stepped = {}, {}  # id: generator, kept alive so that no id is reused
        from_state, step = Xoshiro256.from_state, Xoshiro256._step

        def recording_from_state(state, drawn=()):
            gen = from_state(state, drawn)
            if len(drawn):
                layouts[id(gen)] = gen
            return gen

        def recording_step(gen):
            stepped[id(gen)] = gen
            return step(gen)

        monkeypatch.setattr(Xoshiro256, "from_state", recording_from_state)
        monkeypatch.setattr(Xoshiro256, "_step", recording_step)
        docs = generate_corpus(seed, n_docs, cfg)
        assert len(layouts) == n_docs and len(docs) == n_docs
        assert not layouts.keys() & stepped.keys()


class TestJsonl:
    def test_roundtrip_preserves_everything(self, tmp_path):
        docs = generate_corpus(31, 5)
        path = tmp_path / "corpus.jsonl"
        write_jsonl(docs, path)
        assert read_jsonl(path) == docs

    def test_rewrite_is_byte_identical(self, tmp_path):
        docs = generate_corpus(31, 5)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(docs, p1)
        write_jsonl(read_jsonl(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(generate_corpus(1, 2), path)
        before = path.read_bytes()
        written = []
        original = jaeger.data._doc_to_record

        def fail_on_second(doc):
            written.append(doc)
            if len(written) == 2:
                raise OSError("no space left on device")
            return original(doc)

        monkeypatch.setattr(jaeger.data, "_doc_to_record", fail_on_second)
        with pytest.raises(OSError, match="no space"):
            write_jsonl(generate_corpus(2, 3), path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["corpus.jsonl"]

    def test_invalid_json_names_the_line(self, tmp_path):
        docs = generate_corpus(1, 2)
        path = tmp_path / "bad.jsonl"
        write_jsonl(docs, path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:-10]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 2"):
            read_jsonl(path)

    def test_blank_line_rejected(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        write_jsonl(generate_corpus(1, 1), path)
        path.write_text(path.read_text() + "\n")
        with pytest.raises(ParseError, match="line 2"):
            read_jsonl(path)

    def _mutate_first_record(self, tmp_path, mutate):
        path = tmp_path / "edit.jsonl"
        write_jsonl(generate_corpus(2, 1), path)
        record = json.loads(path.read_text().splitlines()[0])
        mutate(record)
        path.write_text(json.dumps(record) + "\n")
        return path

    def test_missing_field_named(self, tmp_path):
        path = self._mutate_first_record(tmp_path, lambda r: r["elements"][0].pop("bbox"))
        with pytest.raises(SchemaError, match="bbox"):
            read_jsonl(path)

    def test_unknown_field_named(self, tmp_path):
        path = self._mutate_first_record(
            tmp_path, lambda r: r["elements"][0].__setitem__("color", "red"))
        with pytest.raises(SchemaError, match="color"):
            read_jsonl(path)

    def test_bad_question_type_rejected(self, tmp_path):
        path = self._mutate_first_record(
            tmp_path, lambda r: r["questions"][0].__setitem__("type", "sibling"))
        with pytest.raises(SchemaError):
            read_jsonl(path)

    # The model reads vis as float32, where 3.5e38 and the rest are infinite too.
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999",
                                         pytest.param("1" + "0" * 400, id="huge-int"),
                                         "3.5e38", "-3.5e38", "1e39",
                                         pytest.param("4" + "0" * 38, id="float32-int")])
    def test_non_finite_visual_value_names_the_line(self, tmp_path, literal):
        path = tmp_path / "vis.jsonl"
        write_jsonl(generate_corpus(2, 2), path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["elements"][0]["vis"][3] = "PLACEHOLDER"
        lines[1] = json.dumps(record).replace('"PLACEHOLDER"', literal)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="line 2.*vis"):
            read_jsonl(path)

    def test_largest_float32_visual_value_is_read(self, tmp_path):
        path = self._mutate_first_record(
            tmp_path, lambda r: r["elements"][0]["vis"].__setitem__(0, -3.4028234663852886e38))
        assert read_jsonl(path)[0].elements[0].vis[0] == -3.4028234663852886e38

    @pytest.mark.parametrize("where,field", [("elements", "text"), ("questions", "question"),
                                             ("questions", "qid")])
    def test_lone_surrogate_names_the_file_line_and_field(self, tmp_path, where, field):
        """A JSON escape can spell a lone surrogate, which no UTF-8 file can hold."""
        path = tmp_path / "surrogate.jsonl"
        write_jsonl(generate_corpus(2, 2), path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record[where][0][field] = "alpha \ud800 beta"
        lines[1] = json.dumps(record)
        assert "\\ud800" in lines[1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=f"surrogate.jsonl line 2.{where}.0.*{field}"):
            read_jsonl(path)

    def test_bool_id_rejected(self, tmp_path):
        path = self._mutate_first_record(
            tmp_path, lambda r: r["elements"][0].__setitem__("id", True))
        with pytest.raises(SchemaError):
            read_jsonl(path)

    def test_short_bbox_rejected(self, tmp_path):
        path = self._mutate_first_record(
            tmp_path, lambda r: r["elements"][0].__setitem__("bbox", [0.1, 0.2, 0.9]))
        with pytest.raises(SchemaError, match="bbox"):
            read_jsonl(path)

    def test_dangling_question_target_rejected(self, tmp_path):
        path = self._mutate_first_record(
            tmp_path, lambda r: r["questions"][0].__setitem__("target", 999))
        with pytest.raises(SchemaError, match="999"):
            read_jsonl(path)

    def test_dangling_answer_rejected(self, tmp_path):
        path = self._mutate_first_record(
            tmp_path, lambda r: r["questions"][0].__setitem__("answers", [999]))
        with pytest.raises(SchemaError, match="999"):
            read_jsonl(path)

    def test_dangling_parent_rejected(self, tmp_path):
        path = self._mutate_first_record(
            tmp_path, lambda r: r["elements"][1].__setitem__("parent", 999))
        with pytest.raises(SchemaError, match="999"):
            read_jsonl(path)

    @pytest.mark.parametrize("line,where", [
        ('{"doc_id":"d","elements":[5],"questions":[]}', r"elements\[0\]"),
        ('{"doc_id":"d","elements":[["bbox"]],"questions":[]}', r"elements\[0\]"),
        ('{"doc_id":"d","elements":[],"questions":[null]}', r"questions\[0\]"),
    ])
    def test_record_that_is_not_an_object_named(self, tmp_path, line, where):
        path = tmp_path / "records.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(SchemaError, match=f"line 1.{where} must be an object"):
            read_jsonl(path)


class TestReadOneDocument:
    """read_jsonl(path, doc_id) checks every line it reads up to the match."""

    def _corpus(self, tmp_path, n_docs=4):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(generate_corpus(17, n_docs), path)
        return path, path.read_text().splitlines(keepends=True)

    def test_matches_the_first_document_of_a_full_read(self, tmp_path):
        docs = generate_corpus(23, 12)
        docs.append(dataclasses.replace(docs[6], doc_id=docs[5].doc_id))
        path = tmp_path / "corpus.jsonl"
        write_jsonl(docs, path)
        first = {}
        for doc in read_jsonl(path):
            first.setdefault(doc.doc_id, doc)
        assert len(first) == 12 and first[docs[5].doc_id] == docs[5]
        for doc_id, doc in first.items():
            assert read_jsonl(path, doc_id) == [doc]

    def test_unknown_id_reads_nothing(self, tmp_path):
        path, _ = self._corpus(tmp_path)
        assert read_jsonl(path, "doc-missing") == []

    def test_lines_after_the_match_are_not_read(self, tmp_path):
        path, lines = self._corpus(tmp_path)
        path.write_text("".join(lines[:2]) + "{bad\n\xff\n")
        doc_id = json.loads(lines[1])["doc_id"]
        assert [d.doc_id for d in read_jsonl(path, doc_id)] == [doc_id]

    def test_only_the_match_is_schema_checked(self, tmp_path):
        path, lines = self._corpus(tmp_path)
        record = json.loads(lines[0])
        record["elements"][0]["color"] = "red"
        path.write_text(json.dumps(record) + "\n" + "".join(lines[1:]))
        doc_id = json.loads(lines[2])["doc_id"]
        assert [d.doc_id for d in read_jsonl(path, doc_id)] == [doc_id]
        with pytest.raises(SchemaError, match="line 1.*color"):
            read_jsonl(path, record["doc_id"])

    @pytest.mark.parametrize("bad", [b"{bad\n", b"\xff\xfe{}\n", b"\n", b"[1]\n"])
    def test_bad_line_before_the_match_names_the_line(self, tmp_path, bad):
        path, lines = self._corpus(tmp_path)
        path.write_bytes(lines[0].encode() + bad + "".join(lines[1:]).encode())
        with pytest.raises((ParseError, SchemaError), match="corpus.jsonl line 2"):
            read_jsonl(path, json.loads(lines[2])["doc_id"])


def record_line(doc: Document, compact=True, ensure_ascii=True, reverse=False) -> bytes:
    """doc as one corpus line: write_jsonl's layout by default, or with spaces,
    raw non-ASCII characters or the keys in reverse order."""
    record = jaeger.data._doc_to_record(doc)
    if reverse:
        record = dict(reversed(record.items()))
    text = json.dumps(record, separators=(",", ":") if compact else None,
                      ensure_ascii=ensure_ascii)
    return text.encode("utf-8") + b"\n"


def renamed(ids, seed=31) -> list[Document]:
    """A small generated corpus whose documents carry the given ids."""
    docs = generate_corpus(seed, len(ids), GenConfig(elements_per_page=(3, 4)),
                           questions_per_doc=1)
    return [dataclasses.replace(doc, doc_id=i) for doc, i in zip(docs, ids)]


class TestReadSkipsOtherIds:
    """read_jsonl(path, doc_id) compares write_jsonl-layout ids as bytes and
    parses every other line, so it returns what a full read finds first."""

    def _check_every_id(self, path, docs):
        """Each id, and two that are absent, give the first such document of a full read.
        Python decodes a --doc-id argument holding a byte that is not UTF-8 to a lone
        surrogate."""
        everything = read_jsonl(path)
        for doc_id in [doc.doc_id for doc in docs] + ["doc-missing", "\udcff"]:
            assert read_jsonl(path, doc_id) == [d for d in everything if d.doc_id == doc_id][:1]

    def test_other_key_order_and_spaces(self, tmp_path):
        docs = renamed(["doc-a", "doc-b", "doc-c", "doc-d"])
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(record_line(docs[0]) + record_line(docs[1], compact=False, reverse=True)
                         + record_line(docs[2]) + record_line(docs[3], compact=False))
        assert read_jsonl(path, "doc-b") == [docs[1]]
        assert read_jsonl(path, "doc-d") == [docs[3]]
        self._check_every_id(path, docs)

    def test_id_with_a_quote(self, tmp_path):
        docs = renamed(['doc-"a"', "doc-", 'doc-"a', 'doc-\\"a"'])
        path = tmp_path / "corpus.jsonl"
        write_jsonl(docs, path)
        assert read_jsonl(path, 'doc-"a') == [docs[2]]
        self._check_every_id(path, docs)

    @pytest.mark.parametrize("ensure_ascii", [False, True])
    def test_non_ascii_id(self, tmp_path, ensure_ascii):
        docs = renamed(["doc-e", "doc-é", "文書", "doc-é2"])
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b"".join(record_line(doc, ensure_ascii=ensure_ascii) for doc in docs))
        assert read_jsonl(path, "doc-é") == [docs[1]]
        assert read_jsonl(path, "文書") == [docs[2]]
        self._check_every_id(path, docs)

    @pytest.mark.parametrize("ids", [["doc-1", "doc-10"], ["doc-10", "doc-1"]])
    def test_id_that_prefixes_another(self, tmp_path, ids):
        docs = renamed(ids)
        path = tmp_path / "corpus.jsonl"
        write_jsonl(docs, path)
        for doc in docs:
            assert read_jsonl(path, doc.doc_id) == [doc]

    @pytest.mark.parametrize("key", [b'"doc_id":', b'"doc_id" : ', b'"doc\\u005fid":'],
                             ids=["compact", "spaced", "escaped"])
    @pytest.mark.parametrize("where", ["next", "last"])
    def test_repeated_doc_id_key(self, tmp_path, where, key):
        """json.loads keeps the last of two doc_id keys, so the line answers to that one,
        however the second key is spelled."""
        docs = renamed(["doc-a", "doc-b", "doc-a"])
        line = record_line(docs[0])
        twice = {"next": line.replace(b'"doc-a",', b'"doc-a",' + key + b'"doc-b",', 1),
                 "last": line[:-2] + b"," + key + b'"doc-b"}\n'}[where]
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(twice + record_line(docs[1]) + record_line(docs[2]))
        assert read_jsonl(path, "doc-b") == [dataclasses.replace(docs[0], doc_id="doc-b")]
        assert read_jsonl(path, "doc-a") == [docs[2]]
        self._check_every_id(path, docs)

    def test_skipped_line_is_not_parsed(self, tmp_path):
        """A write_jsonl-layout line naming another id is passed over unread,
        and named in the error when it is the one asked for."""
        docs = renamed(["doc-a", "doc-b"])
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b'{"doc_id":"doc-x",\xff{bad\n' + b"".join(map(record_line, docs)))
        assert read_jsonl(path, "doc-b") == [docs[1]]
        with pytest.raises(ParseError, match="corpus.jsonl line 1"):
            read_jsonl(path, "doc-x")

    @given(data=st.data())
    def test_same_as_the_first_match_of_a_full_read(self, tmp_path_factory, data):
        ids = data.draw(st.lists(st.sampled_from(["doc-1", "doc-10", 'doc-"', "doc-\\", "é", ""])
                                 | st.text(max_size=4), min_size=1, max_size=5))
        docs = renamed(ids, seed=data.draw(st.integers(0, 1 << 16)))
        layouts = st.sampled_from([{}, {"ensure_ascii": False}, {"compact": False},
                                   {"reverse": True}])
        lines = [record_line(doc, **data.draw(layouts)) for doc in docs]
        if data.draw(st.booleans()):  # a second doc_id key, naming the last document's id
            lines[0] = lines[0][:-2] + b',"doc_id":' + json.dumps(ids[-1]).encode() + b"}\n"
        path = tmp_path_factory.getbasetemp() / "property.jsonl"
        path.write_bytes(b"".join(lines))
        self._check_every_id(path, docs)


class TestSplitCorpus:
    def test_80_10_10_on_100_docs(self):
        docs = generate_corpus(41, 100, GenConfig(elements_per_page=(4, 5)),
                               questions_per_doc=1)
        train, val, test = split_corpus(docs, (0.8, 0.1, 0.1), seed=0)
        assert (len(train), len(val), len(test)) == (80, 10, 10)

    def test_splits_are_disjoint_and_cover(self):
        docs = generate_corpus(41, 30, questions_per_doc=1)
        train, val, test = split_corpus(docs, (0.8, 0.1, 0.1), seed=5)
        ids = [d.doc_id for part in (train, val, test) for d in part]
        assert len(set(ids)) == len(ids) == 30
        assert set(ids) == {d.doc_id for d in docs}

    def test_deterministic(self):
        docs = generate_corpus(41, 20, questions_per_doc=1)
        a = split_corpus(docs, (0.5, 0.5), seed=3)
        b = split_corpus(docs, (0.5, 0.5), seed=3)
        assert [d.doc_id for d in a[0]] == [d.doc_id for d in b[0]]

    def test_seed_changes_assignment(self):
        docs = generate_corpus(41, 20, questions_per_doc=1)
        a = split_corpus(docs, (0.5, 0.5), seed=3)
        b = split_corpus(docs, (0.5, 0.5), seed=4)
        assert [d.doc_id for d in a[0]] != [d.doc_id for d in b[0]]

    def test_single_ratio_takes_everything(self):
        docs = generate_corpus(41, 7, questions_per_doc=1)
        (train,) = split_corpus(docs, (1.0,), seed=0)
        assert len(train) == 7

    def test_empty_corpus_rejected(self):
        with pytest.raises(ContractError):
            split_corpus([], (1.0,), seed=0)

    def test_bad_ratios_rejected(self):
        docs = generate_corpus(41, 3, questions_per_doc=1)
        with pytest.raises(ContractError):
            split_corpus(docs, (), seed=0)
        with pytest.raises(ContractError):
            split_corpus(docs, (0.5, -0.1), seed=0)
        with pytest.raises(ContractError):
            split_corpus(docs, (0.9, 0.2), seed=0)
