"""Triple-extraction stage: actor-pool ``map_batches`` over text units.

The reference runs a sequential per-chunk LLM loop
(/root/reference/graph/extractors/graph_extractor.py:102-108) whose output
is the delimited-record protocol parsed by graph_extractor.py:196-292.
Here the extractor is a callable CLASS so Ray Data runs it as an actor
pool: model/gazetteer/regex state is built ONCE per actor in ``__init__``
(the reference rebuilds its LLM client per call — llm/__init__.py:5-9),
and ``__call__`` handles a batch of chunks.

Strategies (mirroring the reference's strategy loaders,
verbs/entities/extraction/entity_extract.py:15-54):

* ``PatternExtractor`` — deterministic gazetteer + relation-verb matcher,
  the shape of the reference's nltk strategy
  (verbs/entities/extraction/graph_nltk/run.py:20-60).  It EMITS the wire
  format and re-parses it through the shared parser so the parse path is
  identical to what an LLM strategy would exercise.
* an LLM strategy would subclass and override ``_extract_raw`` — no LLM
  is available in this sandbox.

Output: one *mention* dataset (not a global graph) with columns::

    chunk_id, doc_id, order_key, kind('entity'|'rel'), name, type,
    description, src, dst, weight

``order_key`` is a totally-ordered string ``doc_id:chunk_index:record``;
the reference's order-sensitive merge rules (last-non-empty type,
first-mention stub source) are replayed against this order downstream.
"""

from __future__ import annotations

import re

import pyarrow as pa

from knowledge_graph_ray.config import RECORD_DELIMITER
from knowledge_graph_ray.corpus import REL_VERBS, VOCABULARY
from knowledge_graph_ray.functions.records import (
    format_entity_record,
    format_relationship_record,
    join_records,
    parse_graph_records,
)

MENTION_SCHEMA = pa.schema(
    [
        ("chunk_id", pa.string()),
        ("doc_id", pa.string()),
        ("order_key", pa.string()),
        ("kind", pa.string()),
        ("name", pa.string()),
        ("type", pa.string()),
        ("description", pa.large_string()),
        ("src", pa.string()),
        ("dst", pa.string()),
        ("weight", pa.float64()),
    ]
)

_SENT_SPLIT = re.compile(r"(?<=[.!?])\s+|\n+")


class PatternExtractor:
    """Deterministic entity/relationship extractor (gazetteer strategy).

    Stand-in for the LLM extractor with identical output protocol; the
    vocabulary defaults to the synthetic corpus's closed vocabulary
    (knowledge_graph_ray.corpus) and can be overridden — e.g. bench runs
    over the driver's flat ``documents`` table pass a word-list gazetteer.
    """

    def __init__(self, vocabulary: list[tuple[str, str]] | None = None,
                 rel_verbs: list[tuple[str, float]] | None = None):
        vocab = vocabulary if vocabulary is not None else VOCABULARY
        self.rel_verbs = rel_verbs if rel_verbs is not None else REL_VERBS
        # canonical surface -> type, plus a case-insensitive alternation that
        # also matches html-escaped '&' variants. Longest-first so multiword
        # names win over prefixes.
        self.types = {name.upper(): type_ for name, type_ in vocab}
        alts = sorted((name for name, _ in vocab), key=len, reverse=True)
        pattern = "|".join(
            re.escape(name).replace(re.escape("&"), "(?:&|&amp;)") for name in alts
        )
        self.entity_re = re.compile(rf"\b(?:{pattern})\b", re.IGNORECASE)
        self.verb_res = [
            (re.compile(rf"\b{re.escape(v)}\b", re.IGNORECASE), v, w)
            for v, w in self.rel_verbs
        ]

    # --- strategy hook -------------------------------------------------
    def _extract_raw(self, text: str) -> str:
        """chunk text -> delimited-record wire output (what the LLM returns)."""
        records: list[str] = []
        for sentence in _SENT_SPLIT.split(text):
            matches = list(self.entity_re.finditer(sentence))
            for m in matches:
                surface = m.group(0)
                etype = self.types.get(
                    surface.upper().replace("&AMP;", "&"), ""
                )
                records.append(
                    format_entity_record(surface, etype, sentence.strip())
                )
            for a, b in zip(matches, matches[1:]):
                between = sentence[a.end() : b.start()]
                for verb_re, _verb, weight in self.verb_res:
                    if verb_re.search(between):
                        records.append(
                            format_relationship_record(
                                a.group(0), b.group(0), sentence.strip(), weight
                            )
                        )
                        break
        return join_records(records)

    # --- gleaning protocol (reference graph_extractor.py:139-174) -------
    max_gleanings: int = 0

    def _glean(self, text: str, round_index: int, previous: str) -> str | None:
        """Extra extraction rounds after the first (the reference's
        CONTINUE_PROMPT loop, up to max_gleanings).  Deterministic
        strategies have nothing to add -> None stops; LLM strategies
        override to issue the continue prompt."""
        return None

    def _should_continue(self, text: str, round_index: int,
                         accumulated: str) -> bool:
        """The reference's YES/NO logit-bias stop probe asked BETWEEN
        gleaning rounds (graph_extractor.py:158-173): after appending
        round ``round_index``'s records, return False to stop before the
        next round.  Not asked after the final allowed round."""
        return True

    def _extract_all_rounds(self, text: str) -> str:
        """First extraction + up to ``max_gleanings`` CONTINUE rounds.

        Gleaned records are APPENDED in round order, so downstream
        order_keys rank them after round-0 records of the same chunk —
        which is exactly what makes the reference's order-sensitive merge
        rules (last-non-empty type wins) give gleaned rounds precedence.
        """
        raw = self._extract_raw(text)
        for round_index in range(self.max_gleanings):
            more = self._glean(text, round_index, raw)
            if more:
                raw = raw + RECORD_DELIMITER + more if raw else more
            if round_index == self.max_gleanings - 1:
                break
            if not self._should_continue(text, round_index, raw):
                break
        return raw

    # --- actor-pool batch body -----------------------------------------
    def __call__(self, batch: pa.Table) -> pa.Table:
        rows: list[dict] = []
        quarantined: list[dict] = []
        chunk_ids = batch.column("chunk_id").to_pylist()
        doc_ids = batch.column("doc_id").to_pylist()
        chunk_idx = batch.column("chunk_index").to_pylist()
        texts = batch.column("text").to_pylist()
        for chunk_id, doc_id, ci, text in zip(chunk_ids, doc_ids, chunk_idx, texts):
            if not text:
                continue
            try:
                raw = self._extract_all_rounds(text)
                ents, rels = parse_graph_records(raw)
            except Exception as err:  # noqa: BLE001
                # poison-row quarantine: the reference silently drops
                # failed chunks (graph_extractor.py:103-108); emit an
                # 'error' mention row instead so P/R accounting sees it
                quarantined.append(
                    {
                        "chunk_id": chunk_id,
                        "doc_id": doc_id,
                        "order_key": f"{doc_id}:{ci:08d}:00000000",
                        "kind": "error",
                        "name": "",
                        "type": type(err).__name__,
                        "description": str(err)[:500],
                        "src": "",
                        "dst": "",
                        "weight": 0.0,
                    }
                )
                continue
            for e in ents:
                rows.append(
                    {
                        "chunk_id": chunk_id,
                        "doc_id": doc_id,
                        "order_key": f"{doc_id}:{ci:08d}:{e['order']:08d}",
                        "kind": "entity",
                        "name": e["name"],
                        "type": e["type"],
                        "description": e["description"],
                        "src": "",
                        "dst": "",
                        "weight": 0.0,
                    }
                )
            for r in rels:
                rows.append(
                    {
                        "chunk_id": chunk_id,
                        "doc_id": doc_id,
                        "order_key": f"{doc_id}:{ci:08d}:{r['order']:08d}",
                        "kind": "rel",
                        "name": "",
                        "type": "",
                        "description": r["description"],
                        "src": r["src"],
                        "dst": r["dst"],
                        "weight": r["weight"],
                    }
                )
        return pa.Table.from_pylist(rows + quarantined, schema=MENTION_SCHEMA)


def quarantined_mentions(mentions):
    """Rows the extractor failed on (kind='error') — inspect or re-drive."""
    return mentions.filter(expr="kind == 'error'")


class CooccurrenceExtractor(PatternExtractor):
    """Gazetteer strategy for corpora without relation verbs (e.g. the
    driver's flat ``documents`` table): a relationship record is emitted
    for each pair of gazetteer mentions within ``window`` tokens of each
    other, weight 1.0 — the reference's nltk strategy does exactly this
    clique-of-co-occurring-entities trick
    (verbs/entities/extraction/graph_nltk/run.py:40-56)."""

    def __init__(self, vocabulary: list[tuple[str, str]], window: int = 5):
        # tokens are looked up in ``types`` only: the parent's regex
        # alternation over the vocabulary is never used, and compiling it
        # costs seconds at 100k names
        self.types = {name.upper(): type_ for name, type_ in vocabulary}
        self.rel_verbs = []
        self.verb_res = []
        self.window = window

    def _extract_raw(self, text: str) -> str:
        records: list[str] = []
        tokens = text.split(" ")
        positions: list[tuple[int, str]] = []
        for pos, tok in enumerate(tokens):
            etype = self.types.get(tok.upper())
            if etype is not None:
                context = " ".join(tokens[max(0, pos - 4) : pos + 5])
                records.append(format_entity_record(tok, etype, context))
                positions.append((pos, tok))
        for (p1, t1), (p2, t2) in zip(positions, positions[1:]):
            if t1 != t2 and p2 - p1 <= self.window:
                context = " ".join(tokens[max(0, p1 - 2) : p2 + 3])
                records.append(format_relationship_record(t1, t2, context, 1.0))
        return join_records(records)


def actor_pool_args(concurrency) -> dict:
    """``map_batches`` sizing of an extractor actor pool of ``concurrency``
    actors (a fixed size or ``(min, max)``), fitted to the Ray cluster.

    Each actor holds one CPU by default, and the upstream read and chunk
    tasks need one CPU each.  With fewer CPUs than the pool's minimum
    size + 1, the actors would hold every CPU those tasks need and the
    build would never progress.  The pool is then fixed at its minimum
    size, and its actors split what is left after one CPU for the
    upstream tasks (nothing on a one-CPU cluster: they time-share with
    them).  Larger clusters get the pool unchanged."""
    import ray

    if not ray.is_initialized():
        return {"concurrency": concurrency}
    low = concurrency[0] if isinstance(concurrency, (tuple, list)) else concurrency
    cpus = ray.cluster_resources().get("CPU", 0.0)
    if cpus >= low + 1:
        return {"concurrency": concurrency}
    return {"concurrency": low, "num_cpus": max(cpus - 1.0, 0.0) / low}


def extract_mentions(
    text_units,
    extractor_cls=PatternExtractor,
    batch_size: int = 256,
    concurrency=(2, 8),
    use_actor_pool: bool = True,
    **extractor_kwargs,
):
    """Dataset[text_unit] -> Dataset[mention].

    ``use_actor_pool=True`` (default): callable-class actor pool — the
    right shape when extractor setup is expensive (LLM client, model
    weights), state built once per actor (reference rebuilds per call,
    llm/__init__.py:5-9).  ``actor_pool_args`` fits the pool to small
    clusters.

    ``use_actor_pool=False``: stateless task pool with a per-worker-
    process extractor cache — for cheap-to-build extractors (compiled
    regex gazetteers) this removes actor-pool startup latency (~2-4s per
    fresh pool) and scales elastically with the cluster; construction
    happens once per worker process, not per batch.
    """
    if use_actor_pool:
        return text_units.map_batches(
            extractor_cls,
            fn_constructor_kwargs=extractor_kwargs,
            batch_format="pyarrow",
            batch_size=batch_size,
            **actor_pool_args(concurrency),
        )

    from knowledge_graph_ray.functions.poolcache import cached_class_map

    return cached_class_map(text_units, extractor_cls, batch_size=batch_size,
                            **extractor_kwargs)
