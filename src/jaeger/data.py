"""Synthetic hierarchical documents, QA pairs and their JSONL serialization.

Documents are forests: titles and standalone elements are roots,
sections sit under titles, body elements under sections, captions under
the figure or table they describe. Boxes are laid out top to bottom per
page without overlap. Every random draw comes from named deterministic
streams, so a seed fully pins a corpus byte for byte. generate_corpus derives
every document's streams in one pass and draws their layout words ahead in one
stream_words call; each document reads the same words as it would alone.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

from .atomic import replacing
from .errors import (ContractError, GenerationError, ParseError, SchemaError,
                     UnknownElementError, parse_json)
from .rng import Xoshiro256, derive_streams, stream_states, stream_words

CATEGORIES = ("title", "section", "paragraph", "figure", "table", "caption", "list")
QUESTION_TYPES = ("parent", "children")

_TOPICS = ("climate", "budget", "enzyme", "survey", "network", "harvest",
           "orbit", "protocol", "soil", "tariff", "voltage", "corridor")
_ASPECTS = ("overview", "methods", "results", "analysis", "discussion", "background")
_METRICS = ("trend", "distribution", "comparison", "summary", "breakdown", "timeline")
_VERBS = ("rose", "fell", "stalled", "doubled", "stabilized", "shifted")
_PERIODS = ("spring", "summer", "autumn", "winter", "the first phase", "the second phase")
_MARKERS = ("alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel",
            "india", "juliet", "kilo", "lima", "mike", "november", "oscar", "papa",
            "quebec", "romeo", "sierra", "tango", "uniform", "victor", "whiskey",
            "xray", "yankee", "zulu")

_VIS_NOISE_SIGMA = 0.1
# json.loads returns a number as exactly int or float (a bool has its own
# type), and the range test rejects NaN, ±Infinity and ints too big for a float.
_JSON_NUMBERS = (int, float)
_FLOAT_MAX = sys.float_info.max
# The model reads vis as float32, where a larger magnitude would be infinite.
_FLOAT32_MAX = 3.4028234663852886e38
_MIN_HEIGHT = 0.03
_GAP = 0.012
_MARGIN = 0.04
# The most layout words generate_corpus draws ahead in one call, which bounds the
# memory they take; every benchmark corpus (200 documents) is one call.
_WORDS_AHEAD = 1 << 17


@dataclass
class DocumentElement:
    """One layout element; parent is an element id or None for roots."""

    id: int
    category: str
    page: int
    bbox: tuple[float, float, float, float]
    text: str
    parent: int | None
    vis: list[float]


@dataclass
class QASample:
    qid: str
    qtype: str
    target: int
    question: str
    answers: frozenset[int]


@dataclass
class Document:
    doc_id: str
    elements: list[DocumentElement]
    questions: list[QASample] = field(default_factory=list)

    def element(self, element_id: int) -> DocumentElement:
        for el in self.elements:
            if el.id == element_id:
                return el
        raise UnknownElementError(f"element {element_id} not in document {self.doc_id}")


@dataclass(frozen=True)
class GenConfig:
    """Knobs for one synthetic document."""

    n_pages: int = 1
    elements_per_page: tuple[int, int] = (4, 8)
    max_depth: int = 4
    d_vis: int = 8

    def __post_init__(self):
        lo, hi = self.elements_per_page
        if self.n_pages < 1 or lo < 1 or hi < lo or self.max_depth < 1:
            raise ContractError(f"invalid generation config {self}")
        if self.d_vis < len(CATEGORIES):
            raise ContractError(
                f"d_vis must cover the {len(CATEGORIES)} category channels, got {self.d_vis}")


def _marker(element_id: int) -> str:
    base = _MARKERS[element_id % len(_MARKERS)]
    rep = element_id // len(_MARKERS)
    return base if rep == 0 else f"{base}{rep + 1}"


def _element_text(rng: Xoshiro256, category: str, element_id: int) -> str:
    topic = rng.choice(_TOPICS)
    if category == "title":
        body = f"a study of {topic}"
    elif category == "section":
        body = f"{rng.choice(_ASPECTS)} of {topic}"
    elif category == "paragraph":
        body = f"the {topic} {rng.choice(_VERBS)} during {rng.choice(_PERIODS)}"
    elif category == "figure":
        body = f"figure showing the {topic} {rng.choice(_METRICS)}"
    elif category == "table":
        body = f"table of {topic} {rng.choice(_METRICS)} values"
    elif category == "caption":
        body = f"caption for the {topic} {rng.choice(_METRICS)}"
    else:
        body = f"list of {topic} items"
    return f"{body} {_marker(element_id)}"


@dataclass
class _BuildState:
    title_id: int | None = None
    title_depth: int = 1
    section_id: int | None = None
    media_id: int | None = None
    media_depth: int = 0


def _pick_structure(rng: Xoshiro256, st: _BuildState, max_depth: int) -> tuple[str, int | None, int]:
    """Choose (category, parent id, depth) for the next element."""
    if st.title_id is None:
        return "title", None, 1
    if max_depth == 1:
        return rng.choice(("section", "paragraph", "figure", "table", "list")), None, 1
    if (st.media_id is not None and st.media_depth + 1 <= max_depth
            and rng.random() < 0.5):
        parent, depth = st.media_id, st.media_depth + 1
        return "caption", parent, depth
    if st.section_id is None or rng.random() < 0.3:
        return "section", st.title_id, 2
    if max_depth >= 3:
        cat = rng.choice(("paragraph", "figure", "table", "list", "paragraph"))
        return cat, st.section_id, 3
    return "section", st.title_id, 2


def generate_document(seed: int, cfg: GenConfig | None = None) -> Document:
    """Build one document; raises GenerationError if a page cannot fit."""
    return _build_document(Xoshiro256(seed, "layout"), seed, cfg or GenConfig())


def _build_document(rng: Xoshiro256, seed: int, cfg: GenConfig) -> Document:
    elements: list[DocumentElement] = []
    st = _BuildState()
    next_id = 0
    for page in range(cfg.n_pages):
        lo, hi = cfg.elements_per_page
        count = rng.randint(lo, hi)
        avail = 1.0 - 2 * _MARGIN - (count - 1) * _GAP
        if avail < count * _MIN_HEIGHT:
            raise GenerationError(
                f"cannot place {count} elements of height {_MIN_HEIGHT} on one page")
        weights = [rng.uniform(1.0, 2.0) for _ in range(count)]
        total_w = sum(weights)
        slack = avail - count * _MIN_HEIGHT
        cursor = _MARGIN
        for w in weights:
            height = _MIN_HEIGHT + slack * w / total_w
            category, parent, depth = _pick_structure(rng, st, cfg.max_depth)
            x1 = min(0.05 + 0.03 * (depth - 1), 0.5)
            bbox = (x1, cursor, 0.95, cursor + height)
            cursor += height + _GAP
            cat_idx = CATEGORIES.index(category)
            vis = [(1.0 if j == cat_idx else 0.0) + rng.gauss(0.0, _VIS_NOISE_SIGMA)
                   for j in range(cfg.d_vis)]
            el = DocumentElement(
                id=next_id, category=category, page=page, bbox=bbox,
                text=_element_text(rng, category, next_id), parent=parent, vis=vis,
            )
            elements.append(el)
            if category == "title":
                st.title_id = el.id
            elif category == "section":
                st.section_id, st.media_id = el.id, None
            elif category in ("figure", "table"):
                st.media_id, st.media_depth = el.id, depth
            elif category == "caption":
                st.media_id = None
            next_id += 1
    doc = Document(doc_id=f"doc-{seed & (2**64 - 1):016x}", elements=elements)
    _validate_document(doc, where=doc.doc_id)
    return doc


def hierarchy_oracle(doc: Document, qtype: str, target: int) -> frozenset[int]:
    """Ground-truth answer set for a hierarchy question.

    children means direct children; parent is a singleton or empty set for
    roots. Symmetric by construction: e is in children(p) exactly when
    parent(e) == {p}.
    """
    if qtype not in QUESTION_TYPES:
        raise ContractError(f"question type must be one of {QUESTION_TYPES}, got {qtype!r}")
    el = doc.element(target)
    if qtype == "parent":
        return frozenset() if el.parent is None else frozenset({el.parent})
    return frozenset(el.id for el in doc.elements if el.parent == target)


_TEMPLATES = {
    "children": "which elements are the children of the {category} titled {text}?",
    "parent": "what is the parent of the {category} titled {text}?",
}


def _make_question(doc: Document, qtype: str, target: int, index: int) -> QASample:
    el = doc.element(target)
    return QASample(
        qid=f"{doc.doc_id}.q{index}",
        qtype=qtype,
        target=target,
        question=_TEMPLATES[qtype].format(category=el.category, text=el.text),
        answers=hierarchy_oracle(doc, qtype, target),
    )


def generate_questions(doc: Document, seed: int, count: int) -> list[QASample]:
    """Deterministic QA pairs whose answers come from the hierarchy oracle.

    When the document has any parent-child edge, at least one generated
    children-question has a non-empty answer set.
    """
    return _ask(doc, Xoshiro256(seed, "questions"), count)


def _ask(doc: Document, rng: Xoshiro256, count: int) -> list[QASample]:
    if count < 1:
        raise ContractError(f"count must be at least 1, got {count}")
    if not doc.elements:
        raise ContractError("cannot ask questions about an empty document")
    ids = [el.id for el in doc.elements]
    samples = [
        _make_question(doc, rng.choice(QUESTION_TYPES), rng.choice(ids), i)
        for i in range(count)
    ]
    parents = [el.parent for el in doc.elements if el.parent is not None]
    has_edge = bool(parents)
    if has_edge and not any(s.qtype == "children" and s.answers for s in samples):
        target = rng.choice(sorted(set(parents)))
        samples[-1] = _make_question(doc, "children", target, count - 1)
    return samples


def generate_corpus(seed: int, n_docs: int, cfg: GenConfig | None = None,
                    questions_per_doc: int = 4) -> list[Document]:
    """n_docs documents with questions attached, fully pinned by the seed.

    Document i is generate_document(derive_stream(seed, f"doc.{i}"), cfg) with
    generate_questions(doc, derive_stream(seed, f"questions.{i}"), questions_per_doc)
    attached, byte for byte. Its layout words are drawn ahead, all documents' in one
    stream_words call: one randint a page and d_vis + 7 words an element.
    """
    if n_docs < 1:
        raise ContractError(f"n_docs must be at least 1, got {n_docs}")
    cfg = cfg or GenConfig()
    ids = derive_streams([(seed, f"{kind}.{i}") for kind in ("doc", "questions")
                          for i in range(n_docs)]).tolist()
    states = stream_states([(s, "layout") for s in ids[:n_docs]]
                           + [(s, "questions") for s in ids[n_docs:]])
    budget = min(cfg.n_pages * (1 + cfg.elements_per_page[1] * (cfg.d_vis + 7)), _WORDS_AHEAD)
    per_call = max(1, _WORDS_AHEAD // budget)
    docs = []
    for i in range(n_docs):
        if i % per_call == 0:
            drawn = stream_words([(state, budget) for state in states[i:min(i + per_call, n_docs)]])
        doc = _build_document(Xoshiro256.from_state(states[i], drawn[i % per_call]), ids[i], cfg)
        doc.questions = _ask(doc, Xoshiro256.from_state(states[n_docs + i]), questions_per_doc)
        docs.append(doc)
    return docs


def _validate_document(doc: Document, where: str) -> None:
    ids = [el.id for el in doc.elements]
    id_set = set(ids)
    if len(id_set) != len(ids):
        raise SchemaError(f"{where}: duplicate element ids")
    by_id = {el.id: el for el in doc.elements}
    for el in doc.elements:
        x1, y1, x2, y2 = el.bbox
        if not (x1 < x2 and y1 < y2):
            raise SchemaError(f"{where}: element {el.id} has degenerate bbox {el.bbox}")
        if min(el.bbox) < 0 or max(el.bbox) > 1:
            raise SchemaError(f"{where}: element {el.id} bbox {el.bbox} leaves the unit square")
        if el.parent is not None:
            if el.parent not in id_set:
                raise SchemaError(f"{where}: element {el.id} references missing parent {el.parent}")
            if el.parent == el.id:
                raise SchemaError(f"{where}: element {el.id} is its own parent")
        if el.category not in CATEGORIES:
            raise SchemaError(f"{where}: element {el.id} has unknown category {el.category!r}")
    for el in doc.elements:
        seen = set()
        node = el
        while node.parent is not None:
            if node.parent in seen:
                raise SchemaError(f"{where}: cycle through element {node.id}")
            seen.add(node.id)
            node = by_id[node.parent]
    for page in sorted({el.page for el in doc.elements}):
        spans = sorted((el.bbox[1], el.bbox[3], el.id) for el in doc.elements
                       if el.page == page)
        for (_, bottom, a), (top, _, b) in zip(spans, spans[1:]):
            if top < bottom:
                raise SchemaError(f"{where}: elements {a} and {b} overlap on page {page}")


def _doc_to_record(doc: Document) -> dict:
    return {
        "doc_id": doc.doc_id,
        "elements": [
            {
                "id": el.id, "category": el.category, "page": el.page,
                "bbox": list(el.bbox), "text": el.text, "parent": el.parent,
                "vis": list(el.vis),
            }
            for el in doc.elements
        ],
        "questions": [
            {
                "qid": q.qid, "type": q.qtype, "target": q.target,
                "question": q.question, "answers": sorted(q.answers),
            }
            for q in doc.questions
        ],
    }


def write_jsonl(docs: list[Document], path: str) -> None:
    """One compact JSON document per line, in corpus order; replaces path atomically."""
    with replacing(path) as tmp, open(tmp, "w", encoding="utf-8") as f:
        for doc in docs:
            f.write(json.dumps(_doc_to_record(doc), separators=(",", ":")) + "\n")


def _take(obj: dict, key: str, kind, where: str, optional_none: bool = False):
    if key not in obj:
        raise SchemaError(f"{where} missing field {key!r}")
    val = obj[key]
    if optional_none and val is None:
        return None
    if kind is int and isinstance(val, bool):
        raise SchemaError(f"{where}.{key} must be an integer")
    if not isinstance(val, kind):
        raise SchemaError(f"{where}.{key} has the wrong type")
    if kind is str:
        try:
            val.encode("utf-8")
        except UnicodeEncodeError as e:
            raise SchemaError(f"{where}.{key} is not UTF-8 text ({e.reason})") from None
    return val


def _check_keys(obj: dict, allowed: tuple[str, ...], where: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where} must be an object")
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"{where} has unknown field {key!r}")


def _element_from_record(raw: dict, where: str) -> DocumentElement:
    _check_keys(raw, ("id", "category", "page", "bbox", "text", "parent", "vis"), where)
    bbox = _take(raw, "bbox", list, where)
    if len(bbox) != 4:
        raise SchemaError(f"{where}.bbox must have 4 coordinates")
    for c in bbox:
        if type(c) not in _JSON_NUMBERS or not -_FLOAT_MAX <= c <= _FLOAT_MAX:
            raise SchemaError(f"{where}.bbox must hold finite numbers")
    vis = _take(raw, "vis", list, where)
    for c in vis:
        if type(c) not in _JSON_NUMBERS or not -_FLOAT32_MAX <= c <= _FLOAT32_MAX:
            raise SchemaError(f"{where}.vis must hold finite numbers within float32's range")
    return DocumentElement(
        id=_take(raw, "id", int, where),
        category=_take(raw, "category", str, where),
        page=_take(raw, "page", int, where),
        bbox=tuple(float(c) for c in bbox),
        text=_take(raw, "text", str, where),
        parent=_take(raw, "parent", int, where, optional_none=True),
        vis=[float(c) for c in vis],
    )


def _question_from_record(raw: dict, where: str) -> QASample:
    _check_keys(raw, ("qid", "type", "target", "question", "answers"), where)
    qtype = _take(raw, "type", str, where)
    if qtype not in QUESTION_TYPES:
        raise SchemaError(f"{where}.type must be one of {QUESTION_TYPES}")
    answers = _take(raw, "answers", list, where)
    for a in answers:
        if isinstance(a, bool) or not isinstance(a, int):
            raise SchemaError(f"{where}.answers must hold element ids")
    return QASample(
        qid=_take(raw, "qid", str, where),
        qtype=qtype,
        target=_take(raw, "target", int, where),
        question=_take(raw, "question", str, where),
        answers=frozenset(answers),
    )


def _doc_from_record(raw: dict, where: str) -> Document:
    _check_keys(raw, ("doc_id", "elements", "questions"), where)
    doc_id = _take(raw, "doc_id", str, where)
    elements_raw = _take(raw, "elements", list, where)
    questions_raw = _take(raw, "questions", list, where)
    elements = [_element_from_record(el, f"{where}.elements[{i}]")
                for i, el in enumerate(elements_raw)]
    questions = [_question_from_record(q, f"{where}.questions[{i}]")
                 for i, q in enumerate(questions_raw)]
    doc = Document(doc_id=doc_id, elements=elements, questions=questions)
    _validate_document(doc, where)
    ids = {el.id for el in elements}
    for i, q in enumerate(questions):
        if q.target not in ids:
            raise SchemaError(f"{where}.questions[{i}] targets missing element {q.target}")
        for a in q.answers:
            if a not in ids:
                raise SchemaError(f"{where}.questions[{i}] answers missing element {a}")
    return doc


# How write_jsonl opens every line; the id literal follows up to the next '"'.
_ID_PREFIX = b'{"doc_id":"'


def read_jsonl(path: str, doc_id: str | None = None) -> list[Document]:
    """Parse a corpus, rejecting malformed lines and unknown or missing fields.

    A string that UTF-8 cannot encode (a lone surrogate, which only a JSON
    escape can spell) and a vis value beyond float32's range, which the
    model would read as infinite, are refused too. Every error names the
    file and the line. Given a doc_id, returns just
    the first document with that id ([] if none): only it is schema-checked,
    and no later line is read. A line before it that opens as write_jsonl's
    do, holds no backslash and no second '"doc_id"', and whose id differs
    from doc_id as bytes, cannot hold that document and is skipped unread;
    every other line before it is decoded and parsed as a JSON object.
    """
    docs = []
    key = None if doc_id is None else doc_id.encode("utf-8", "surrogatepass")
    with open(path, "rb") as f:
        for line_no, raw_line in enumerate(f, start=1):
            if key is not None and raw_line.startswith(_ID_PREFIX) and b"\\" not in raw_line:
                end = raw_line.find(b'"', len(_ID_PREFIX))
                if (end != -1 and raw_line[len(_ID_PREFIX):end] != key
                        and raw_line.find(b'"doc_id"', end) == -1):
                    continue
            where = f"{path} line {line_no}"
            try:
                line = raw_line.decode("utf-8")
            except UnicodeDecodeError as e:
                raise ParseError(f"{where}: not valid UTF-8 ({e.reason})") from None
            if not line.strip():
                raise ParseError(f"{where}: blank line in corpus")
            raw = parse_json(line, lambda e: ParseError(
                f"{where}: invalid JSON ({getattr(e, 'msg', e)})"))
            if not isinstance(raw, dict):
                raise SchemaError(f"{where}: document record must be an object")
            if doc_id is None:
                docs.append(_doc_from_record(raw, where))
            elif raw.get("doc_id") == doc_id:
                return [_doc_from_record(raw, where)]
    return docs


def split_corpus(docs: list[Document], ratios, seed: int) -> tuple[list[Document], ...]:
    """Disjoint document-level splits after a seeded shuffle.

    Boundaries are the rounded cumulative ratios, so (0.8, 0.1, 0.1) on
    100 documents yields 80/10/10.
    """
    if not docs:
        raise ContractError("cannot split an empty corpus")
    ratios = tuple(float(r) for r in ratios)
    if not ratios or any(r <= 0 for r in ratios):
        raise ContractError(f"ratios must be positive, got {ratios}")
    if sum(ratios) > 1.0 + 1e-9:
        raise ContractError(f"ratios sum to {sum(ratios)}, more than 1")
    order = list(range(len(docs)))
    Xoshiro256(seed, "split").shuffle(order)
    shuffled = [docs[i] for i in order]
    n = len(docs)
    bounds = [0]
    acc = 0.0
    for r in ratios:
        acc += r
        bounds.append(int(acc * n + 0.5))
    return tuple(shuffled[bounds[i]:bounds[i + 1]] for i in range(len(ratios)))
