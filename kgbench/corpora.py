"""Seeded input corpora for the three workloads, and a plain-Python replay
of what the engine must extract from them.

Nothing here imports the engine.  The replay re-derives every text window
from the chunking contract (token windows of ``CHUNK_SIZE`` tokens with
``CHUNK_OVERLAP`` tokens of overlap, tokens being word runs or single
non-space symbols, each window's text sliced from its spans and joined by
newlines) and runs the extraction rule of each workload over those windows
itself, so the expected graph does not depend on the code under test.
"""

from __future__ import annotations

import bisect
import html
import random
import re

CHUNK_SIZE = 64
CHUNK_OVERLAP = 16

# --- closed_vocab ----------------------------------------------------------
# 27 names of four types; '&' in one name exercises the '&amp;' variant.
CLOSED_NAMES: list[tuple[str, str]] = (
    [(n, "organization") for n in (
        "Orion Freight", "Tessel Works", "Granite Trust", "Lark Studios",
        "Vantage Mills", "Cobalt Assurance", "Nimbus Rail", "Fable Press",
        "Wren & Daughters")]
    + [(n, "person") for n in (
        "Iris Kellerman", "Tomas Reyes", "Yuki Tanabe", "Omar Haddad",
        "Lena Fischer", "Pavel Sokolov", "Nadia Osei", "Rafael Duarte")]
    + [(n, "geo") for n in (
        "Bright Hollow", "Cedar Bay", "Ferro Valley", "Kestrel Point",
        "Lowmoor", "Sable Coast")]
    + [(n, "event") for n in (
        "Ember Gala", "Tidewater Forum", "Zenith Games", "Aurora Fair")]
)
CLOSED_HUB = CLOSED_NAMES[0][0]
CLOSED_VERBS: list[tuple[str, float]] = [
    ("teamed up with", 2.0), ("bought", 3.0), ("is based in", 1.0),
    ("organised", 4.0), ("reports to", 2.0), ("toured", 1.0),
]
FILLER = (
    "quarterly figures pointed toward modest gains across several regional "
    "markets while observers awaited another detailed briefing soon"
).split()
MEDIA_KINDS = ("image", "audio", "table")

# --- high_card / llm_resume -------------------------------------------------
HIGH_CARD_NAMES = 100_000
ZIPF_S = 1.1
NAME_SHARE = 0.2  # share of word slots that hold a name
COOC_WINDOW = 5  # CooccurrenceExtractor's default pair window
HUB_SHARE = 0.10
MEDIA_ONLY_SHARE = 0.03
LLM_DUPLICATE_SHARE = 0.25
_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")
_SENTENCE_SPLIT = re.compile(r"(?<=[.!?])\s+|\n+")


def _span(kind: str, text: str, media_ref: str, offset: int) -> dict:
    return {"kind": kind, "text": text, "media_ref": media_ref, "offset": offset}


# ------------------------------------------------------------ closed_vocab

def _surface(rng: random.Random, name: str) -> str:
    roll = rng.random()
    if "&" in name and roll < 0.5:
        return name.replace("&", "&amp;")
    if roll < 0.15:
        return name.upper()
    if roll < 0.3:
        return name.lower()
    return name


def _closed_sentence(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.45:
        a, b = rng.sample(CLOSED_NAMES, 2)
        verb = rng.choice(CLOSED_VERBS)[0]
        return f"{_surface(rng, a[0])} {verb} {_surface(rng, b[0])}."
    filler = " ".join(rng.choices(FILLER, k=rng.randint(3, 10)))
    if roll < 0.8:
        return f"{_surface(rng, rng.choice(CLOSED_NAMES)[0])} {filler}."
    return filler.capitalize() + "."


def closed_vocab_docs(num_docs: int, seed: int, variant: str = "") -> list[dict]:
    """Multi-span docs: relation-verb sentences over 27 names, a hub
    sentence in ~10% of docs, media spans and ~3% media-only docs."""
    docs = []
    for i in range(num_docs):
        rng = random.Random(f"closed{variant}:{seed}:{i}")
        media_only = rng.random() < MEDIA_ONLY_SHARE
        spans: list[dict] = []
        offset = 0
        for si in range(rng.randint(1, 2) if media_only else rng.randint(1, 5)):
            if media_only or (si > 0 and rng.random() < 0.25):
                kind = rng.choice(MEDIA_KINDS)
                spans.append(_span(kind, "", f"media://{kind}/{seed}-{i}-{si}", offset))
                offset += 1
                continue
            sentences = []
            if si == 0 and rng.random() < HUB_SHARE:
                other = rng.choice(CLOSED_NAMES[1:])[0]
                sentences.append(
                    f"{CLOSED_HUB} {CLOSED_VERBS[0][0]} {_surface(rng, other)}.")
            sentences += [_closed_sentence(rng) for _ in range(rng.randint(2, 6))]
            text = " ".join(sentences)
            spans.append(_span("text", text, "", offset))
            offset += len(text)
        docs.append({"doc_id": f"cv{variant}-{seed}-{i:07d}", "spans": spans})
    return docs


_CLOSED_RE = re.compile(
    r"\b(?:" + "|".join(
        re.escape(n).replace(re.escape("&"), "(?:&|&amp;)")
        for n, _ in sorted(CLOSED_NAMES, key=lambda nt: -len(nt[0]))
    ) + r")\b",
    re.IGNORECASE,
)
_CLOSED_VERB_RES = [(re.compile(rf"\b{re.escape(v)}\b", re.IGNORECASE), w)
                    for v, w in CLOSED_VERBS]


def _closed_key(surface: str) -> str:
    return html.unescape(surface.upper())


def closed_vocab_records(text: str):
    """Gazetteer rule: every vocabulary mention is an entity; two
    consecutive mentions in one sentence with a relation verb between them
    are an edge weighted by the first listed verb found."""
    ents, edges = [], []
    for sentence in _SENTENCE_SPLIT.split(text):
        found = list(_CLOSED_RE.finditer(sentence))
        ents += [_closed_key(m.group(0)) for m in found]
        for a, b in zip(found, found[1:]):
            between = sentence[a.end():b.start()]
            for verb_re, weight in _CLOSED_VERB_RES:
                if verb_re.search(between):
                    edges.append((_closed_key(a.group(0)), _closed_key(b.group(0)), weight))
                    break
    return ents, edges


# -------------------------------------------------------- high cardinality

def make_names(seed: int, count: int = HIGH_CARD_NAMES) -> list[str]:
    """``count`` distinct capitalised single-token names."""
    rng = random.Random(f"names:{seed}")
    names: set[str] = set()
    out = []
    while len(out) < count:
        name = "".join(rng.choices(_SYLLABLES, k=rng.randint(3, 4))).capitalize()
        if name not in names:
            names.add(name)
            out.append(name)
    return out


def _zipf_cum_weights(count: int) -> list[float]:
    total, cum = 0.0, []
    for rank in range(1, count + 1):
        total += rank ** -ZIPF_S
        cum.append(total)
    return cum


class ZipfCorpus:
    """Single-span docs of filler words with names drawn from a Zipf law
    over ``HIGH_CARD_NAMES`` generated names, plus one planted hub name in
    ~10% of docs.  Names never touch punctuation, so a whitespace split
    sees them as whole tokens."""

    def __init__(self, seed: int, prefix: str):
        self.seed = seed
        self.prefix = prefix
        names = make_names(seed, HIGH_CARD_NAMES + 1)
        self.hub = names[0]
        self.names = names[1:]
        self.cum = _zipf_cum_weights(len(self.names))

    def vocabulary(self) -> list[tuple[str, str]]:
        return [(self.hub, "organization")] + [(n, "person") for n in self.names]

    def _draw(self, rng: random.Random) -> str:
        return self.names[bisect.bisect_left(self.cum, rng.random() * self.cum[-1])]

    def text(self, rng: random.Random) -> str:
        sentences = []
        if rng.random() < HUB_SHARE:
            sentences.append(f"{self.hub} {self._draw(rng)} {rng.choice(FILLER)}.")
        for _ in range(rng.randint(3, 8)):
            words = [self._draw(rng) if rng.random() < NAME_SHARE else rng.choice(FILLER)
                     for _ in range(rng.randint(5, 14))]
            sentences.append(" ".join(words) + f" {rng.choice(FILLER)}.")
        return " ".join(sentences)

    def docs(self, num_docs: int, duplicate_share: float = 0.0,
             variant: str = "") -> list[dict]:
        docs = []
        for i in range(num_docs):
            rng = random.Random(f"{self.prefix}{variant}:{self.seed}:{i}")
            doc_id = f"{self.prefix}{variant}-{self.seed}-{i:07d}"
            if rng.random() < MEDIA_ONLY_SHARE:
                spans = [_span("image", "", f"media://image/{doc_id}", 0)]
            elif docs and rng.random() < duplicate_share:
                spans = rng.choice(docs)["spans"]  # earlier text, new id
            else:
                spans = [_span("text", self.text(rng), "", 0)]
            docs.append({"doc_id": doc_id, "spans": spans})
        return docs


def cooccurrence_records(text: str, vocab: set[str]):
    """Co-occurrence rule: every whitespace token that is a name is an
    entity; consecutive names at most ``COOC_WINDOW`` tokens apart form an
    edge of weight 1."""
    ents, edges, prev = [], [], None
    for pos, tok in enumerate(text.split(" ")):
        if tok not in vocab:
            continue
        ents.append(tok.upper())
        if prev is not None and prev[1] != tok and pos - prev[0] <= COOC_WINDOW:
            edges.append((prev[1].upper(), tok.upper(), 1.0))
        prev = (pos, tok)
    return ents, edges


# ---------------------------------------------------------------- replay

def chunk_texts(spans: list[dict]) -> list[str]:
    """Text of each window the chunker cuts from one doc ([] if the doc
    has no text tokens: its single pass-through chunk has no text)."""
    tokens = [(si, m.start(), m.end())
              for si, sp in enumerate(spans) if sp["kind"] == "text" and sp["text"]
              for m in _TOKEN_RE.finditer(sp["text"])]
    out, pos = [], 0
    step = CHUNK_SIZE - CHUNK_OVERLAP
    while tokens:
        window = tokens[pos:pos + CHUNK_SIZE]
        parts = []
        for si in sorted({t[0] for t in window}):
            toks = [t for t in window if t[0] == si]
            parts.append(spans[si]["text"][toks[0][1]:toks[-1][2]])
        out.append("\n".join(parts))
        if pos + CHUNK_SIZE >= len(tokens):
            break
        pos += step
    return out


class Expected:
    """The graph the engine must export for one corpus."""

    def __init__(self):
        self.entities: set[str] = set()
        self.edges: dict[tuple[str, str], float] = {}
        self.chunks = 0  # text units, including pass-through media chunks
        self.text_chunks = 0  # text units that carry text
        self.total_weight = 0.0  # summed over edge mentions, not over edges

    def add(self, ents, edges):
        self.entities.update(ents)
        for a, b, w in edges:
            key = (a, b) if a <= b else (b, a)
            self.edges[key] = self.edges.get(key, 0.0) + w
            self.entities.update(key)
            self.total_weight += w


def replay(docs: list[dict], records) -> Expected:
    exp = Expected()
    for doc in docs:
        texts = chunk_texts(doc["spans"])
        exp.chunks += max(1, len(texts))
        exp.text_chunks += len(texts)
        for text in texts:
            exp.add(*records(text))
    return exp
