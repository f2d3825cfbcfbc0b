"""Span-aware token-window chunking (text units).

Reference semantics: /root/reference/verbs/text_units/split_texts/run.py:12-33
— TokenTextSplitter with chunk_size=1200, chunk_overlap=100 (config.py:17-19),
per-document windows (the reference's primary path chunks each document
independently; the cross-document token stream of
text/chunk/strategies/tokens.py:28-83 is deliberately NOT used because it
breaks document parallelism — SURVEY.md M2).

Extension over the reference (BASELINE.json input_hint): documents are
interleaved span sequences ``list<struct<kind,text,media_ref,offset>>``.
Only ``kind='text'`` spans contribute tokens; media spans ride along in
each chunk's ``span_seq`` attached to the adjacent text window.  The
per-row invariant — the union of a doc's chunk ``span_seq`` entries,
deduped by offset and ordered, equals the doc's original span sequence
``(kind, text, media_ref, order)`` — is enforced by
tests/test_chunker.py.

Runs as a stateless ``map_batches`` over pyarrow batches: tokenization is
a compiled-regex scan; chunk text is sliced from the original span text
by token char-offsets (lossless, no re-join of tokens).
"""

from __future__ import annotations

import pyarrow as pa

from knowledge_graph_ray.config import CHUNK_OVERLAP, CHUNK_SIZE
from knowledge_graph_ray.corpus import SPAN_STRUCT
from knowledge_graph_ray.functions.text import token_spans

TEXT_UNIT_SCHEMA = pa.schema(
    [
        ("chunk_id", pa.string()),
        ("doc_id", pa.string()),
        ("chunk_index", pa.int32()),
        ("text", pa.large_string()),
        ("n_tokens", pa.int32()),
        ("span_seq", pa.list_(SPAN_STRUCT)),
    ]
)


def _chunk_doc(
    doc_id: str,
    spans: list[dict],
    chunk_size: int,
    chunk_overlap: int,
    carry_span_text: bool = True,
) -> list[dict]:
    """``carry_span_text=False`` blanks text-span payloads in ``span_seq``
    (kind/media_ref/offset kept): a text span overlapping k windows is
    otherwise copied k times, a ~2-3x byte amplification that matters at
    corpus scale.  The full per-row invariant holds only with True (the
    default); False keeps the structural invariant (kind, media_ref,
    order) for pipelines that re-read span text from the source table."""
    # token stream over text spans: (span_index, char_start, char_end)
    tokens: list[tuple[int, int, int]] = []
    for si, span in enumerate(spans):
        if span["kind"] == "text" and span["text"]:
            for start, end in token_spans(span["text"]):
                tokens.append((si, start, end))

    if not tokens:
        # media-only (or empty) doc: one pass-through chunk, spans untouched
        return [
            {
                "chunk_id": f"{doc_id}:0",
                "doc_id": doc_id,
                "chunk_index": 0,
                "text": "",
                "n_tokens": 0,
                "span_seq": list(spans),
            }
        ]

    step = max(1, chunk_size - chunk_overlap)
    chunks: list[dict] = []
    chunk_index = 0
    pos = 0
    while True:
        window = tokens[pos : pos + chunk_size]
        lo, hi = window[0][0], window[-1][0]
        # slice each involved text span by the window's token char-offsets
        parts: list[str] = []
        for si in range(lo, hi + 1):
            span_toks = [t for t in window if t[0] == si]
            if span_toks:
                parts.append(spans[si]["text"][span_toks[0][1] : span_toks[-1][2]])
        # attach adjacent media spans so every span lands in >=1 chunk
        while lo > 0 and spans[lo - 1]["kind"] != "text":
            lo -= 1
        while hi + 1 < len(spans) and spans[hi + 1]["kind"] != "text":
            hi += 1
        span_seq = [dict(spans[si]) for si in range(lo, hi + 1)]
        if not carry_span_text:
            for sp in span_seq:
                if sp["kind"] == "text":
                    sp["text"] = ""
        chunks.append(
            {
                "chunk_id": f"{doc_id}:{chunk_index}",
                "doc_id": doc_id,
                "chunk_index": chunk_index,
                "text": "\n".join(parts),
                "n_tokens": len(window),
                "span_seq": span_seq,
            }
        )
        if pos + chunk_size >= len(tokens):
            break
        pos += step
        chunk_index += 1
    return chunks


def chunk_spans_batch(
    batch: pa.Table,
    chunk_size: int = CHUNK_SIZE,
    chunk_overlap: int = CHUNK_OVERLAP,
    carry_span_text: bool = True,
) -> pa.Table:
    """map_batches body: interleaved docs -> text units."""
    out: list[dict] = []
    doc_ids = batch.column("doc_id").to_pylist()
    spans_col = batch.column("spans").to_pylist()
    for doc_id, spans in zip(doc_ids, spans_col):
        out.extend(
            _chunk_doc(doc_id, spans or [], chunk_size, chunk_overlap, carry_span_text)
        )
    return pa.Table.from_pylist(out, schema=TEXT_UNIT_SCHEMA)


def chunk_documents(ds, chunk_size: int = CHUNK_SIZE, chunk_overlap: int = CHUNK_OVERLAP,
                    batch_size: int = 256, carry_span_text: bool = True):
    """Dataset[interleaved docs] -> Dataset[text units] (stateless stage)."""
    return ds.map_batches(
        lambda b: chunk_spans_batch(b, chunk_size, chunk_overlap, carry_span_text),
        batch_format="pyarrow",
        batch_size=batch_size,
    )


# ------------------------------------------------------ sentence strategy

_SENTENCE_RE = None


def _sentence_re():
    global _SENTENCE_RE
    if _SENTENCE_RE is None:
        import re

        _SENTENCE_RE = re.compile(r"(?<=[.!?])\s+")
    return _SENTENCE_RE


def chunk_sentences_batch(batch: pa.Table) -> pa.Table:
    """Alternative chunker strategy (SURVEY M3): one text unit per
    sentence (reference text/chunk/strategies/sentence.py:10-20 uses
    nltk.sent_tokenize; this uses the same compiled-regex splitter as the
    extractors — nltk data is not available here).  Media spans attach to
    the chunk of the nearest preceding sentence (first chunk if none)."""
    out: list[dict] = []
    for doc_id, spans in zip(
        batch.column("doc_id").to_pylist(), batch.column("spans").to_pylist()
    ):
        sentences: list[tuple[str, dict]] = []  # (sentence, owning span)
        media: list[dict] = []
        for span in spans or []:
            if span["kind"] == "text" and span["text"]:
                for s in _sentence_re().split(span["text"]):
                    if s.strip():
                        sentences.append((s.strip(), span))
            else:
                media.append(span)
        if not sentences:
            out.append(
                {
                    "chunk_id": f"{doc_id}:0",
                    "doc_id": doc_id,
                    "chunk_index": 0,
                    "text": "",
                    "n_tokens": 0,
                    "span_seq": list(spans or []),
                }
            )
            continue
        from knowledge_graph_ray.functions.text import token_count

        for ci, (sentence, span) in enumerate(sentences):
            span_seq = [dict(span)]
            if ci == 0 and media:
                span_seq = [dict(m) for m in media] + span_seq
            out.append(
                {
                    "chunk_id": f"{doc_id}:{ci}",
                    "doc_id": doc_id,
                    "chunk_index": ci,
                    "text": sentence,
                    "n_tokens": token_count(sentence),
                    "span_seq": span_seq,
                }
            )
    return pa.Table.from_pylist(out, schema=TEXT_UNIT_SCHEMA)
