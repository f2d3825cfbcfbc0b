"""Community context assembly + report generation.

Reference flow (/root/reference/verbs/community_summarization/): pandas
joins J2/J3, per-community context sorted by combined edge degree under a
token budget (graph/community_reports/sort_context.py:10-155), then one
LLM call per community producing ``{title, summary, rating,
rating_explanation, findings[]}``
(graph/community_reports/community_reports_extractor.py:25-79), levels
processed bottom-up (utils.py:26-29).

Ray-Data-native: context rows are produced by hash joins
(communities ⨝ entities on name; communities ⨝ edges on both endpoints,
keeping same-community pairs — the reference's filter_edges_to_nodes,
community_reports/utils.py:36-44), then one ``groupby(level, community)
.map_groups`` assembles the ordered context and a deterministic report
(an LLM strategy would replace ``_compose`` only).  Output mirrors the
reference's community_report.csv columns.
"""

from __future__ import annotations

import hashlib
import json

import pandas as pd
import pyarrow as pa

from knowledge_graph_ray.config import COMMUNITY_REPORT_MAX_INPUT_LENGTH
from knowledge_graph_ray.functions.joins import hash_join, project
from knowledge_graph_ray.functions.text import token_count

REPORT_COLUMNS = [
    "id",
    "community",
    "title",
    "summary",
    "full_content",
    "full_content_json",
    "rank",
    "level",
    "rank_explanation",
    "findings",
]


def _node_lines(nodes: pd.DataFrame) -> list[str]:
    return [
        f"{n},{t},{d}"
        for n, t, d in zip(nodes["name"], nodes["type"], nodes["description"])
    ]


def _edge_lines(edges: pd.DataFrame) -> list[str]:
    return [
        f"{s},{d},{r},{ds}"
        for s, d, r, ds in zip(edges["src"], edges["dst"], edges["rank"],
                               edges["description"])
    ]


def _context_text(nodes: pd.DataFrame, edges: pd.DataFrame, budget: int) -> str:
    """Greedy context under token budget: edges desc by rank, then their
    endpoints' node details (sort_context.py semantics, deterministic)."""
    lines = ["-----Entities-----"]
    used = 0
    for line in _node_lines(nodes):
        used += token_count(line)
        if used > budget:
            break
        lines.append(line)
    lines.append("-----Relationships-----")
    for line in _edge_lines(edges):
        used += token_count(line)
        if used > budget:
            break
        lines.append(line)
    return "\n".join(lines)


def _mixed_context(nodes: pd.DataFrame, edges: pd.DataFrame, budget: int,
                   sub_summaries: list[tuple[str, str]]) -> str:
    """Parent-community context over budget: substitute sub-community
    report summaries (largest first) for raw detail until it fits —
    the reference's build_mixed_context
    (graph/community_reports/build_mixed_context.py:12-68)."""
    lines = ["-----Sub-community reports-----"]
    used = 0
    for cid, summary in sub_summaries:
        line = f"{cid}: {summary}"
        used += token_count(line)
        if used > budget:
            break
        lines.append(line)
    remaining = max(0, budget - used)
    return "\n".join(lines) + "\n" + _context_text(nodes, edges, remaining)


def _compose(community: str, level: int, nodes: pd.DataFrame, edges: pd.DataFrame,
             max_input_tokens: int = COMMUNITY_REPORT_MAX_INPUT_LENGTH,
             sub_summaries: list[tuple[str, str]] | None = None) -> dict:
    """Deterministic report strategy (LLM stand-in with the same schema)."""
    top = nodes.head(5)
    top_names = top["name"].tolist()
    title = " & ".join(top_names[:2]) or f"Community {community}"
    summary = (
        f"Community of {len(nodes)} entities and {len(edges)} relationships "
        f"centered on {', '.join(top_names)}."
    )
    findings = [
        {
            "summary": f"{nm} ({tp or 'UNKNOWN'}) has degree {int(dg)}",
            "explanation": (ds or "")[:400],
        }
        for nm, tp, dg, ds in zip(top_names, top["type"], top["degree"],
                                  top["description"])
    ]
    rank = float(min(10.0, round(float(nodes["degree"].mean() or 0.0), 1)))
    raw_tokens = sum(token_count(line) for line in _node_lines(nodes)) + sum(
        token_count(line) for line in _edge_lines(edges)
    )
    if sub_summaries and raw_tokens > max_input_tokens:
        # bottom-up mixed context: this parent's full detail is over
        # budget — substitute the already-generated deeper-level report
        # summaries (O3 build_mixed_context)
        context = _mixed_context(nodes, edges, max_input_tokens, sub_summaries)
    else:
        context = _context_text(nodes, edges, max_input_tokens)
    full_content = f"# {title}\n\n{summary}\n\n{context}"
    payload = {
        "title": title,
        "summary": summary,
        "rating": rank,
        "rating_explanation": "Deterministic rating: mean entity degree, capped at 10.",
        "findings": findings,
    }
    return {
        "id": "r" + hashlib.md5(f"{community}|{level}".encode()).hexdigest()[:12],
        "community": community,
        "title": title,
        "summary": summary,
        "full_content": full_content,
        "full_content_json": json.dumps(payload, sort_keys=True),
        "rank": rank,
        "level": int(level),
        "rank_explanation": payload["rating_explanation"],
        "findings": json.dumps(findings, sort_keys=True),
    }


class ReportComposer:
    """Strategy seam for report generation (the reference's
    community_reports_extractor.py:25-79 LLM call).  The default
    deterministic composer replays ``_compose``; an LLM strategy
    subclasses ``RawJsonReportComposer`` and overrides ``_generate_raw``.
    """

    def compose(self, community: str, level: int, nodes: pd.DataFrame,
                edges: pd.DataFrame, max_input_tokens: int,
                sub_summaries: list[tuple[str, str]] | None) -> dict:
        return _compose(community, level, nodes, edges,
                        max_input_tokens=max_input_tokens,
                        sub_summaries=sub_summaries)


class RawJsonReportComposer(ReportComposer):
    """LLM-shaped composer: ``_generate_raw`` returns the model's raw
    text (possibly fenced / prose-wrapped / truncated JSON); the output
    is recovered with ``try_parse_json_object`` (M9, reference
    utils/__init__.py:44-99) and missing fields get deterministic
    defaults — a malformed report never poisons the pipeline."""

    def _generate_raw(self, community: str, level: int, context: str) -> str:
        raise NotImplementedError("override with the LLM call")

    def compose(self, community, level, nodes, edges, max_input_tokens,
                sub_summaries):
        from knowledge_graph_ray.functions.jsonx import try_parse_json_object

        if sub_summaries:
            context = _mixed_context(nodes, edges, max_input_tokens, sub_summaries)
        else:
            context = _context_text(nodes, edges, max_input_tokens)
        raw = self._generate_raw(community, level, context)
        _cleaned, payload = try_parse_json_object(raw)
        title = str(payload.get("title") or f"Community {community}")
        summary = str(payload.get("summary") or "")
        try:
            rank = float(payload.get("rating", 0.0))
        except (TypeError, ValueError):
            rank = 0.0
        findings = payload.get("findings")
        if not isinstance(findings, list):
            findings = []
        full_content = f"# {title}\n\n{summary}\n\n{context}"
        return {
            "id": "r" + hashlib.md5(f"{community}|{level}".encode()).hexdigest()[:12],
            "community": community,
            "title": title,
            "summary": summary,
            "full_content": full_content,
            "full_content_json": json.dumps(payload, sort_keys=True, default=str),
            "rank": rank,
            "level": int(level),
            "rank_explanation": str(payload.get("rating_explanation") or ""),
            "findings": json.dumps(findings, sort_keys=True, default=str),
        }


BROADCAST_COMMUNITIES_MAX = 1_000_000

# generate_reports' driver regime composes every report itself, one
# after another (an LLM composer's calls included), where the
# distributed regime composes each bucket in its own task: it sits below
# the shared DRIVER_THRESHOLD
REPORT_DRIVER_THRESHOLD = 50_000

_NODE_CTX_COLUMNS = ["name", "type", "description", "degree"]
_EDGE_CTX_COLUMNS = ["src", "dst", "rank", "description"]

_NODE_CTX_SCHEMA = pa.schema(
    [("level", pa.int64()), ("community", pa.string()),
     ("name", pa.string()), ("type", pa.string()),
     ("description", pa.large_string()), ("degree", pa.float64())]
)
_EDGE_CTX_SCHEMA = pa.schema(
    [("level", pa.int64()), ("community", pa.string()),
     ("src", pa.string()), ("dst", pa.string()),
     ("rank", pa.float64()), ("description", pa.large_string())]
)


def _membership(communities_pdf: pd.DataFrame) -> pd.DataFrame:
    """The (name, level, community) frame the broadcast context joins."""
    return communities_pdf[["name", "level", "community"]].reset_index(drop=True)


def _node_ctx(b: pa.Table, cdf: pd.DataFrame) -> pa.Table:
    """Entity rows ⨝ community membership on name — a vectorized pandas
    merge (C hash join); a name appears once per level, so the merge
    fans each row out to its per-level community rows."""
    j = b.to_pandas().merge(cdf, on="name", how="inner")
    return pa.Table.from_pydict(
        {
            "level": pa.array(j["level"].astype("int64")),
            "community": pa.array(j["community"], type=pa.string()),
            "name": pa.array(j["name"], type=pa.string()),
            "type": pa.array(j["type"], type=pa.string()),
            "description": pa.array(j["description"], type=pa.large_string()),
            "degree": pa.array(j["degree"].fillna(0).astype("float64")),
        },
        schema=_NODE_CTX_SCHEMA,
    )


def _edge_ctx(b: pa.Table, cdf: pd.DataFrame) -> pa.Table:
    """Edge rows ⨝ membership on both endpoints, same-community pairs
    only (filter_edges_to_nodes)."""
    j = b.to_pandas().merge(
        cdf.rename(columns={"name": "src"}), on="src", how="inner"
    ).merge(
        cdf.rename(columns={"name": "dst"}), on="dst", how="inner",
        suffixes=("", "_dst"),
    )
    j = j[(j["level"] == j["level_dst"])
          & (j["community"] == j["community_dst"])]
    return pa.Table.from_pydict(
        {
            "level": pa.array(j["level"].astype("int64")),
            "community": pa.array(j["community"], type=pa.string()),
            "src": pa.array(j["src"], type=pa.string()),
            "dst": pa.array(j["dst"], type=pa.string()),
            "rank": pa.array(j["rank"].fillna(0).astype("float64")),
            "description": pa.array(j["description"], type=pa.large_string()),
        },
        schema=_EDGE_CTX_SCHEMA,
    )


def _node_rows(b: pa.Table) -> pa.Table:
    """Node context -> the level's uniform context rows (kind='node')."""
    return pa.Table.from_pydict(
        {
            "level": b.column("level"),
            "community": b.column("community"),
            "kind": pa.array(["node"] * len(b), type=pa.string()),
            "name": b.column("name"),
            "type": b.column("type"),
            "description": b.column("description"),
            "degree": b.column("degree").cast(pa.float64()),
            "src": pa.nulls(len(b), pa.string()),
            "dst": pa.nulls(len(b), pa.string()),
            "rank": pa.nulls(len(b), pa.float64()),
        }
    )


def _edge_rows(b: pa.Table) -> pa.Table:
    """Edge context -> the level's uniform context rows (kind='edge')."""
    return pa.Table.from_pydict(
        {
            "level": b.column("level"),
            "community": b.column("community"),
            "kind": pa.array(["edge"] * len(b), type=pa.string()),
            "name": pa.nulls(len(b), pa.string()),
            "type": pa.nulls(len(b), pa.string()),
            "description": b.column("description"),
            "degree": pa.nulls(len(b), pa.float64()),
            "src": b.column("src"),
            "dst": b.column("dst"),
            "rank": b.column("rank").cast(pa.float64()),
        }
    )


def _context_rows(communities, entities, relationships, num_partitions: int = 32,
                  communities_pdf: "pd.DataFrame | None" = None,
                  broadcast_max: int = BROADCAST_COMMUNITIES_MAX):
    """Joined per-community context rows (nodes + same-community edges).

    When the communities table is small (<= BROADCAST_COMMUNITIES_MAX
    rows) it is broadcast via ray.put and attached inside map_batches —
    no shuffle (guide small-side rule; the caller usually already has it
    as pandas for the level loop).  Larger community tables fall back to
    partitioned hash joins.
    """
    if communities_pdf is None:
        try:
            communities_pdf = communities.to_pandas(limit=broadcast_max)
        except Exception:
            communities_pdf = None

    if communities_pdf is not None and len(communities_pdf) <= broadcast_max:
        import ray

        # broadcast the (name, level, community) frame once via ray.put
        cdf_ref = ray.put(_membership(communities_pdf))
        node_ctx = entities.select_columns(_NODE_CTX_COLUMNS).map_batches(
            lambda b: _node_ctx(b, ray.get(cdf_ref)), batch_format="pyarrow")
        e_in = relationships.select_columns(_EDGE_CTX_COLUMNS).map_batches(
            lambda b: _edge_ctx(b, ray.get(cdf_ref)), batch_format="pyarrow")
    else:
        node_ctx = hash_join(
            communities,
            entities.select_columns(_NODE_CTX_COLUMNS),
            on=["name"],
            how="inner",
            num_partitions=num_partitions,
        )

        edges = relationships.select_columns(["src", "dst", "weight", "rank", "description"])
        e_src = hash_join(
            edges,
            project(communities,
                    {"name": "src", "community": "community", "level": "level"}),
            on=["src"],
            how="inner",
            num_partitions=num_partitions,
        )
        e_both = hash_join(
            e_src,
            project(communities,
                    {"name": "dst", "community": "community_dst",
                     "level": "level_dst"}),
            on=["dst"],
            how="inner",
            num_partitions=num_partitions,
        )
        e_in = e_both.filter(
            expr="community == community_dst and level == level_dst"
        )

    return node_ctx.map_batches(_node_rows, batch_format="pyarrow").union(
        e_in.map_batches(_edge_rows, batch_format="pyarrow")
    )


def _report_schema():
    return pa.schema(
        [("id", pa.string()), ("community", pa.string()),
         ("title", pa.string()), ("summary", pa.string()),
         ("full_content", pa.string()), ("full_content_json", pa.string()),
         ("rank", pa.float64()), ("level", pa.int64()),
         ("rank_explanation", pa.string()), ("findings", pa.string())]
    )


def _compose_bucket(g: pd.DataFrame, sub_summaries_by_parent: dict,
                    max_input_tokens: int, composer: "ReportComposer") -> pa.Table:
    """Reports for context rows of one or more communities: one sort for
    every community in ``g``; within a community the order matches a
    per-community sort exactly."""
    nodes_all = g[g["kind"] == "node"].sort_values(
        ["level", "community", "degree", "name"],
        ascending=[True, True, False, True], kind="stable",
    )
    edges_all = g[g["kind"] == "edge"].sort_values(
        ["level", "community", "rank", "src", "dst"],
        ascending=[True, True, False, True, True], kind="stable",
    )
    sub_groups: dict = {}
    subs_all = g[g["kind"] == "sub"]
    if len(subs_all):
        # same (sub_id, summary) ascending order the broadcast
        # regime's subs.sort() produces
        subs_all = subs_all.sort_values(
            ["level", "community", "name", "description"], kind="stable"
        )
        sub_groups = {
            key: list(zip(sub["name"], sub["description"]))
            for key, sub in subs_all.groupby(["level", "community"],
                                             sort=False)
        }
    node_groups = dict(iter(nodes_all.groupby(["level", "community"], sort=False)))
    edge_groups = dict(iter(edges_all.groupby(["level", "community"], sort=False)))
    keys = list(node_groups) + [k for k in edge_groups if k not in node_groups]
    rows = []
    for key in keys:
        level, community = int(key[0]), key[1]
        nodes = node_groups.get(key)
        if nodes is None:
            nodes = nodes_all.iloc[0:0]
        edges = edge_groups.get(key)
        if edges is None:
            edges = edges_all.iloc[0:0]
        rows.append(
            composer.compose(
                community, level, nodes, edges, max_input_tokens,
                sub_summaries_by_parent.get(community)
                or sub_groups.get(key),
            )
        )
    return pa.Table.from_pylist(rows, schema=_report_schema())


def _report_level(ctx_level, sub_summaries_by_parent: dict, max_input_tokens: int,
                  composer: "ReportComposer | None" = None,
                  num_buckets: int = 64, driver_threshold: int | None = None):
    """Reports for one level's context rows (nodes + same-community
    edges; SURVEY J5).

    Sub-community summaries arrive one of two ways, by regime:
    broadcast (small community tables) passes the driver-built
    ``sub_summaries_by_parent`` dict in the closure; the distributed
    regime unions ``kind == "sub"`` rows into ``ctx_level`` (community
    = parent, name = sub community, description = its summary) so the
    summaries shuffle WITH their parent's context rows and no
    community-count-sized state ever lives on the driver.

    Routed through ``bucketed_bucket_map``: one Ray task per key-hash
    bucket instead of one ``map_groups`` call per community, and the
    per-community sorts/filters run ONCE per bucket (vectorized sorts
    + one groupby) instead of once per tiny group — measured
    ~4ms/community of pandas overhead removed."""
    from knowledge_graph_ray.functions.grouping import bucketed_bucket_map

    composer = composer or ReportComposer()
    return bucketed_bucket_map(
        ctx_level, ["level", "community"],
        lambda g: _compose_bucket(g, sub_summaries_by_parent,
                                  max_input_tokens, composer),
        num_buckets=num_buckets, empty_schema=_report_schema(),
        driver_threshold=driver_threshold,
    )


def _sub_summaries(comm_pdf: pd.DataFrame, level: int, prev_level: int,
                   prev_summaries: dict) -> dict:
    """Broadcast regime: parent community at ``level`` -> sorted
    (sub community, summary) pairs of its ``prev_level`` children."""
    deeper = comm_pdf[comm_pdf.level == prev_level][["community", "name"]]
    here = comm_pdf[comm_pdf.level == level][["community", "name"]]
    pairs = deeper.merge(here, on="name", suffixes=("_sub", "_parent"))
    pairs = pairs.drop_duplicates(["community_sub", "community_parent"])
    sub_by_parent: dict[str, list[tuple[str, str]]] = {}
    for row in pairs.itertuples():
        summary = prev_summaries.get(row.community_sub)
        if summary is not None:
            sub_by_parent.setdefault(row.community_parent, []).append(
                (row.community_sub, summary)
            )
    for subs in sub_by_parent.values():
        subs.sort()  # deterministic under any shuffle order
    return sub_by_parent


def report_tables(communities: pa.Table, entities: pa.Table,
                  relationships: pa.Table,
                  max_input_tokens: int = COMMUNITY_REPORT_MAX_INPUT_LENGTH,
                  composer: "ReportComposer | None" = None) -> pa.Table:
    """Driver kernel of ``generate_reports`` on Arrow tables: the
    broadcast context, then the levels bottom-up, each composed in one
    ``_compose_bucket`` call."""
    import pyarrow.compute as pc

    composer = composer or ReportComposer()
    comm_pdf = communities.to_pandas()
    cdf = _membership(comm_pdf)
    ctx = pa.concat_tables([
        _node_rows(_node_ctx(entities.select(_NODE_CTX_COLUMNS), cdf)),
        _edge_rows(_edge_ctx(relationships.select(_EDGE_CTX_COLUMNS), cdf)),
    ])
    per_level = [_report_schema().empty_table()]
    prev_summaries: dict[str, str] = {}
    prev_level: int | None = None
    for level in sorted({int(v) for v in comm_pdf["level"]}, reverse=True):
        ctx_level = ctx.filter(pc.equal(ctx.column("level"), level))
        sub_by_parent = ({} if prev_level is None else _sub_summaries(
            comm_pdf, level, prev_level, prev_summaries))
        if ctx_level.num_rows:
            level_reports = _compose_bucket(ctx_level.to_pandas(), sub_by_parent,
                                            max_input_tokens, composer)
        else:
            level_reports = _report_schema().empty_table()
        per_level.append(level_reports)
        prev_summaries = dict(zip(level_reports.column("community").to_pylist(),
                                  level_reports.column("summary").to_pylist()))
        prev_level = level
    return pa.concat_tables(per_level)


def generate_reports(communities, entities, relationships, num_partitions: int = 32,
                     max_input_tokens: int = COMMUNITY_REPORT_MAX_INPUT_LENGTH,
                     broadcast_max: int = BROADCAST_COMMUNITIES_MAX,
                     composer: "ReportComposer | None" = None,
                     driver_threshold: int | None = REPORT_DRIVER_THRESHOLD):
    """-> Dataset[community_report], generated bottom-up per level.

    ``driver_threshold`` (default ``REPORT_DRIVER_THRESHOLD``) sits
    below the shared ``DRIVER_THRESHOLD``: the driver regime composes
    every report itself, one after another (an LLM composer's calls
    included), where the distributed regime composes each bucket in its
    own task.  ``report_tables`` is its driver kernel on Arrow tables;
    here each level's composition takes the driver regime when its
    context has at most ``driver_threshold`` rows.

    Levels are processed DESCENDING (reference utils.py:26-29 /
    summarization.py:71-85): deeper-level reports are generated first and
    a parent community whose raw context exceeds the token budget
    substitutes its children's report summaries (build_mixed_context, O3).
    The level loop is inherently sequential with a barrier per level
    (SURVEY §7.5 'Level-sequential report generation').
    """
    from knowledge_graph_ray.functions import grouping

    empty = grouping.empty_tables([communities, entities, relationships])
    if empty is not None:
        return grouping.driver_dataset(
            report_tables(*empty, max_input_tokens, composer))
    # size-adaptive driver state (same pattern as _context_rows): a
    # communities table under the broadcast threshold is pulled ONCE and
    # the level list + parent/child pairs + sub summaries come from
    # pandas/driver dicts (no extra shuffle rounds); above the threshold
    # NOTHING community-count-sized touches the driver — levels via a
    # tiny aggregate, pairs via a distributed hash_join, and each
    # level's summaries stay a (materialized) Dataset joined into the
    # parent level's context as kind='sub' rows
    comm_pdf = None
    try:
        comm_pdf = communities.to_pandas(limit=broadcast_max)
    except Exception:
        comm_pdf = None

    ctx = _context_rows(communities, entities, relationships, num_partitions,
                        communities_pdf=comm_pdf, broadcast_max=broadcast_max)
    if comm_pdf is not None:
        levels = sorted(int(v) for v in comm_pdf["level"].unique())[::-1]
    else:
        level_counts = communities.groupby("level").count().to_pandas()
        levels = sorted(int(v) for v in level_counts["level"])[::-1]
    if not levels:
        return _report_level(ctx, {}, max_input_tokens, composer,
                             num_buckets=num_partitions,
                             driver_threshold=driver_threshold)
    if len(levels) > 1:
        # the level loop filters ctx once per level; without pinning,
        # each filter would re-run the whole join DAG
        ctx = ctx.materialize()

    def _sub_ctx_rows(level: int, prev_level: int, prev_reports):
        """Distributed regime: deeper-level summaries stay a Dataset —
        dedup (sub, parent) membership pairs, hash_join the summaries
        in, and emit them as kind='sub' context rows keyed by the
        PARENT community, so they ride the level's bucket shuffle
        instead of a driver dict (VERDICT r3 #3)."""
        from knowledge_graph_ray.functions.agg import distinct_rows

        deeper = project(
            communities.filter(expr=f"level == {int(prev_level)}"),
            {"community": "community_sub", "name": "name"},
        )
        here = project(
            communities.filter(expr=f"level == {int(level)}"),
            {"community": "community_parent", "name": "name"},
        )
        pairs = distinct_rows(
            hash_join(deeper, here, on=["name"], how="inner",
                      num_partitions=num_partitions),
            ["community_sub", "community_parent"],
            empty_schema=pa.schema([("community_sub", pa.string()),
                                    ("community_parent", pa.string())]),
        )
        summaries = project(
            prev_reports.select_columns(["community", "summary"]),
            {"community": "community_sub", "summary": "summary"},
        )
        joined = hash_join(pairs, summaries, on=["community_sub"],
                           how="inner", num_partitions=num_partitions)

        def to_ctx(b: pa.Table, lvl=int(level)) -> pa.Table:
            return pa.Table.from_pydict(
                {
                    "level": pa.array([lvl] * len(b), type=pa.int64()),
                    "community": b.column("community_parent").cast(pa.string()),
                    "kind": pa.array(["sub"] * len(b)),
                    "name": b.column("community_sub").cast(pa.string()),
                    "type": pa.nulls(len(b), pa.string()),
                    "description": b.column("summary").cast(pa.large_string()),
                    "degree": pa.nulls(len(b), pa.float64()),
                    "src": pa.nulls(len(b), pa.string()),
                    "dst": pa.nulls(len(b), pa.string()),
                    "rank": pa.nulls(len(b), pa.float64()),
                }
            )

        return joined.map_batches(to_ctx, batch_format="pyarrow")

    per_level = []
    prev_summaries: dict[str, str] = {}
    prev_reports = None
    prev_level: int | None = None
    for level in levels:
        sub_by_parent: dict[str, list[tuple[str, str]]] = {}
        ctx_level = ctx.filter(expr=f"level == {int(level)}")
        if prev_level is not None:
            if comm_pdf is not None:
                # broadcast regime: community-count-sized driver dicts
                # (bounded by broadcast_max)
                sub_by_parent = _sub_summaries(comm_pdf, level, prev_level,
                                               prev_summaries)
            else:
                ctx_level = ctx_level.union(
                    _sub_ctx_rows(level, prev_level, prev_reports)
                )
        level_reports = _report_level(
            ctx_level, sub_by_parent,
            max_input_tokens, composer, num_buckets=num_partitions,
            driver_threshold=driver_threshold,
        ).materialize()
        per_level.append(level_reports)
        if comm_pdf is not None:
            prev_summaries = {
                r["community"]: r["summary"]
                for r in level_reports.select_columns(["community", "summary"]).to_pandas().to_dict("records")
            }
        prev_reports = level_reports
        prev_level = level

    out = per_level[0]
    for extra in per_level[1:]:
        out = out.union(extra)
    return out
