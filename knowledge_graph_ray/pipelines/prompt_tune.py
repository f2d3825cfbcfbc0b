"""Prompt-tuning pipeline (auto-templating the indexing prompts).

Reproduces the reference's prompt-tuning flow — reference ``api.py:25-152``
(generate_indexing_prompts: domain -> language -> persona -> report
rating -> entity types -> relationship examples -> the three assembled
prompt files) and ``cli.py:14-43`` (prompt_tune: write
``entity_extraction.txt`` / ``summarize_descriptions.txt`` /
``community_report.txt``) — on Ray Data: document sampling + chunking is
a bounded Dataset pipeline (reference ``text_unit/__init__.py:28-38``
loads and splits on the driver), and the generation steps run through
the same OpenAI-compatible client seam as the extractor/report
strategies (stages/llm.py).  Template TEXTS are original; placeholders
and assembly semantics (token-budgeted example packing, min-examples
floor, persona-as-system-message) follow the reference
(``extract_elements_prompts/*.py``).

Without an endpoint (no ``KG_RAY_LLM_BASE_URL``), a deterministic
offline model stands in so the whole pipeline — sampling, budgeting,
assembly, file writing — runs and is testable; the live client drops in
unchanged (env-gated, exactly like stages/llm.py).
"""

from __future__ import annotations

import collections
import json
import os
import re
from pathlib import Path

from knowledge_graph_ray.functions.jsonx import try_parse_json_object
from knowledge_graph_ray.functions.text import token_count, tokenize

# reference extract_elements_prompts/defaults.py:1-5
MAX_TOKEN_COUNT = 2000
DEFAULT_TASK = (
    "Identify the relations and structure of the community of interest, "
    "specifically within the {domain} domain."
)

# reference filenames (entity_extraction_prompt.py:16,
# entity_summarization_prompt.py:6, community_report_summarization.py:5)
ENTITY_EXTRACTION_FILENAME = "entity_extraction.txt"
ENTITY_SUMMARIZATION_FILENAME = "summarize_descriptions.txt"
COMMUNITY_SUMMARIZATION_FILENAME = "community_report.txt"

# --- original template texts (semantics per reference prompts/*) --------

GENERATE_DOMAIN_PROMPT = (
    "You are an expert data analyst.  Read the sample text below and name "
    "the domain it belongs to in a few words (e.g. 'clinical trials', "
    "'maritime logistics').  Reply with the domain only.\n\nText:\n"
    "{input_text}"
)
DETECT_LANGUAGE_PROMPT = (
    "Name the primary natural language of the text below.  Reply with the "
    "language name only.\n\nText:\n{input_text}"
)
GENERATE_PERSONA_PROMPT = (
    "Craft a one-paragraph expert persona for an assistant that will {task} "
    "Start the paragraph with 'You are'."
)
GENERATE_REPORT_RATING_PROMPT = (
    "{persona}\n\nDefine, in one paragraph, a 0-10 importance rating scale "
    "for community reports about the {domain} domain, grounded in the kind "
    "of material shown below.\n\nText:\n{input_text}"
)
ENTITY_TYPE_GENERATION_PROMPT = (
    "{task}\n\nList the entity types present in the text below as a "
    "comma-separated line (lowercase, singular).\n\nText:\n{input_text}"
)
ENTITY_TYPE_GENERATION_JSON_PROMPT = (
    "{task}\n\nList the entity types present in the text below as JSON: "
    '{{"entity_types": [...]}} (lowercase, singular).\n\nText:\n'
    "{input_text}"
)
ENTITY_RELATIONSHIPS_GENERATION_PROMPT = (
    "Extract entities of types [{entity_types}] and the relationships "
    "between them from the text below, writing in {language}.  Output one "
    'record per line: ("entity"|NAME|TYPE|DESCRIPTION) or '
    '("relationship"|SOURCE|TARGET|DESCRIPTION|WEIGHT).\n\nText:\n'
    "{input_text}"
)
UNTYPED_ENTITY_RELATIONSHIPS_GENERATION_PROMPT = (
    "Extract all entities and the relationships between them from the text "
    "below, writing in {language}.  Output one record per line: "
    '("entity"|NAME|TYPE|DESCRIPTION) or '
    '("relationship"|SOURCE|TARGET|DESCRIPTION|WEIGHT).\n\nText:\n'
    "{input_text}"
)
GRAPH_EXTRACTION_PROMPT = (
    "-Goal-\nGiven a text document and a list of entity types, identify "
    "every entity of those types and every relationship among them, "
    "writing in {language}.\n\n-Entity types-\n{entity_types}\n\n"
    "-Examples-\n{examples}\n-Real data-\ntext: {{input_text}}\noutput:"
)
UNTYPED_GRAPH_EXTRACTION_PROMPT = (
    "-Goal-\nGiven a text document, identify every entity and every "
    "relationship among them, writing in {language}.\n\n-Examples-\n"
    "{examples}\n-Real data-\ntext: {{input_text}}\noutput:"
)
EXAMPLE_EXTRACTION_TEMPLATE = (
    "Example {n}:\nentity types: [{entity_types}]\ntext: {input_text}\n"
    "output:\n{output}\n\n"
)
UNTYPED_EXAMPLE_EXTRACTION_TEMPLATE = (
    "Example {n}:\ntext: {input_text}\noutput:\n{output}\n\n"
)
ENTITY_SUMMARIZATION_PROMPT = (
    "{persona}\n\nMerge the description list below into one comprehensive "
    "description of the given entity, written in third person in "
    "{language}, resolving any contradictions.\n\nentity: {{entity_name}}\n"
    "descriptions: {{description_list}}\noutput:"
)
GENERATE_COMMUNITY_REPORTER_ROLE_PROMPT = (
    "{persona}\n\nBased on the sample text below from the {domain} domain, "
    "write a one-sentence role definition for an analyst who will write "
    "community reports (format: 'A <role> that ...').\n\nText:\n"
    "{input_text}"
)
COMMUNITY_REPORT_SUMMARIZATION_PROMPT = (
    "{persona}\n\n{role}\n\nWrite a community report in {language} about "
    "the community described by the entities and relationships below.  "
    "Return JSON with keys: title, summary, rating, rating_explanation, "
    "findings (list of {{{{summary, explanation}}}}).\n\nRating scale:\n"
    "{report_rating_description}\n\nInput:\n{{input_text}}\noutput:"
)

_CAP_RE = re.compile(r"\b[A-Z][a-zA-Z&]+(?:\s+[A-Z][a-zA-Z&]+)*\b")
_CJK_RE = re.compile(r"[一-鿿]")

# small closed stopword tables per language (stopword-hit language id)
_STOPWORDS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "that", "it", "for"},
    "fr": {"le", "la", "et", "les", "des", "un", "une", "du", "est", "que"},
    "es": {"el", "los", "las", "y", "una", "es", "por", "con", "para", "del"},
    "de": {"der", "die", "das", "und", "ist", "ein", "eine", "nicht", "mit", "zu"},
}


def _language_of(tokens: list[str], text: str) -> str:
    """Language with the most stopword hits in the first 200 tokens."""
    if _CJK_RE.search(text):
        return "zh"
    lower = [t.lower() for t in tokens[:200]]
    best, best_hits = "en", -1
    for lang, stops in _STOPWORDS.items():
        hits = sum(1 for t in lower if t in stops)
        if hits > best_hits:
            best, best_hits = lang, hits
    return best if best_hits > 0 else "unknown"


class DeterministicPromptModel:
    """Offline stand-in chat model for the prompt-tuning steps.

    Responds to each generation prompt with a deterministic function of
    the prompt text (content-word statistics, capitalized-phrase scan),
    so the full pipeline runs without a network.  The live
    ``OpenAIChatClient`` satisfies the same ``chat(messages)`` protocol.
    """

    def chat(self, messages: list[dict], max_tokens: int = 4000) -> str:
        text = messages[-1]["content"]
        body = text.split("Text:\n", 1)[-1]
        if text.startswith("You are an expert data analyst."):
            words = [w for w in tokenize(body.lower()) if len(w) > 4]
            top = [w for w, _ in collections.Counter(words).most_common(3)]
            return " ".join(top) if top else "general knowledge"
        if text.startswith("Name the primary natural language"):
            lang = _language_of(tokenize(body.lower()), body)
            return {"en": "English", "de": "German", "fr": "French",
                    "es": "Spanish"}.get(lang, "English")
        if text.startswith("Craft a one-paragraph expert persona"):
            task = text.split("that will ", 1)[-1].split(" Start the", 1)[0]
            return ("You are a senior analyst. You are skilled at careful "
                    "reading, entity resolution and network analysis. You "
                    f"will {task}")
        if "importance rating scale" in text:
            return ("Importance rating scale: 0 means trivial or routine; 5 "
                    "means notable within its community; 10 means critical, "
                    "with broad impact across the domain.")
        if "List the entity types" in text:
            counts = collections.Counter(
                m.group(0).lower() for m in _CAP_RE.finditer(body)
                if len(m.group(0)) > 3
            )
            types = sorted({t for t, _ in counts.most_common(6)})[:6]
            types = types or ["organization", "person", "location"]
            if "as JSON" in text:
                return json.dumps({"entity_types": types})
            return ", ".join(types)
        if "Output one record per line" in text:
            phrases = []
            for m in _CAP_RE.finditer(body):
                if m.group(0) not in phrases:
                    phrases.append(m.group(0))
            recs = [
                f'("entity"|{p.upper()}|organization|mentioned in the text)'
                for p in phrases[:3]
            ]
            if len(phrases) >= 2:
                recs.append(
                    f'("relationship"|{phrases[0].upper()}|'
                    f'{phrases[1].upper()}|appear together|2)'
                )
            return "\n".join(recs)
        if "one-sentence role definition" in text:
            domain = text.split("below from the ", 1)[-1].split(" domain", 1)[0]
            return (f"A {domain} analyst that maps entities, relationships "
                    "and their significance for decision makers.")
        return "OK"


def _default_client():
    if os.environ.get("KG_RAY_LLM_BASE_URL"):
        from knowledge_graph_ray.stages.llm import OpenAIChatClient

        return OpenAIChatClient()
    return DeterministicPromptModel()


def load_docs_in_chunks(docs, chunk_size: int = 1200, chunk_overlap: int = 100,
                        sample_size: int = 15, seed: int = 6969) -> list[str]:
    """Sample ``sample_size`` text units from an interleaved docs Dataset.

    Reference ``text_unit/__init__.py:28-38`` loads the whole input
    directory on the driver and splits it; here chunking runs as the
    normal Dataset stage and only a seeded, hash-ordered sample of
    chunks is pulled — the pull is bounded by ``sample_size`` regardless
    of corpus size.
    """
    import zlib

    import pyarrow as pa

    from knowledge_graph_ray.stages.chunk import chunk_documents

    chunks = chunk_documents(docs, chunk_size=chunk_size,
                             chunk_overlap=chunk_overlap)

    def keyed(b: pa.Table) -> pa.Table:
        keys = [
            zlib.crc32(f"{seed}|{c}".encode()) & 0xFFFFFFFF
            for c in b.column("chunk_id").to_pylist()
        ]
        return b.append_column("__k", pa.array(keys, type=pa.uint32()))

    # per-block local top-k by hash key bounds the pull to
    # sample_size rows per block before the final driver-side cut
    def local_topk(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        idx = pc.select_k_unstable(
            b, sample_size, [("__k", "ascending")]
        )
        return b.take(idx)

    top = (
        chunks.map_batches(keyed, batch_format="pyarrow")
        .map_batches(local_topk, batch_format="pyarrow")
        .to_pandas()
        .sort_values("__k", kind="stable")
        .head(sample_size)
    )
    return [t for t in top["text"].tolist() if t]


def generate_domain(client, docs: list[str]) -> str:
    """Reference extract_elements_prompts/domain.py:8-25."""
    return client.chat([{
        "role": "user",
        "content": GENERATE_DOMAIN_PROMPT.format(input_text=" ".join(docs)),
    }]).strip()


def detect_language(client, docs: list[str]) -> str:
    """Reference extract_elements_prompts/language.py:8-28."""
    return client.chat([{
        "role": "user",
        "content": DETECT_LANGUAGE_PROMPT.format(input_text=" ".join(docs)),
    }]).strip()


def generate_persona(client, domain: str, task: str = DEFAULT_TASK) -> str:
    """Reference extract_elements_prompts/persona.py (task.format(domain))."""
    return client.chat([{
        "role": "user",
        "content": GENERATE_PERSONA_PROMPT.format(
            task=task.format(domain=domain)
        ),
    }]).strip()


def generate_community_report_rating(client, domain: str, persona: str,
                                     docs: list[str]) -> str:
    """Reference extract_elements_prompts/community_report_rating.py."""
    return client.chat([{
        "role": "user",
        "content": GENERATE_REPORT_RATING_PROMPT.format(
            persona=persona, domain=domain, input_text="\n".join(docs)
        ),
    }]).strip()


def generate_entity_types(client, domain: str, persona: str,
                          docs: list[str], task: str = DEFAULT_TASK,
                          json_mode: bool = False):
    """Reference extract_elements_prompts/entity_types.py:19-60 —
    persona as system message, JSON or comma-list output."""
    prompt = (ENTITY_TYPE_GENERATION_JSON_PROMPT if json_mode
              else ENTITY_TYPE_GENERATION_PROMPT).format(
        task=task.format(domain=domain), input_text="\n".join(docs)
    )
    raw = client.chat([
        {"role": "system", "content": persona},
        {"role": "user", "content": prompt},
    ])
    if json_mode:
        _, obj = try_parse_json_object(raw)
        return list(obj.get("entity_types", [])) if obj else []
    return raw.strip()


def generate_entity_relationship_examples(
    client, entity_types, language: str, persona: str, docs: list[str],
    json_mode: bool = False,
) -> list[str]:
    """Reference extract_elements_prompts/entity_relationship.py:36-80 —
    one generation per sampled chunk (async-gathered there, sequential
    over the <= sample_size chunks here)."""
    if entity_types:
        types_str = (", ".join(map(str, entity_types))
                     if isinstance(entity_types, list) else entity_types)
        prompts = [
            ENTITY_RELATIONSHIPS_GENERATION_PROMPT.format(
                entity_types=types_str, language=language, input_text=d
            )
            for d in docs
        ]
    else:
        prompts = [
            UNTYPED_ENTITY_RELATIONSHIPS_GENERATION_PROMPT.format(
                language=language, input_text=d
            )
            for d in docs
        ]
    return [
        client.chat([
            {"role": "system", "content": persona},
            {"role": "user", "content": p},
        ])
        for p in prompts
    ]


def create_entity_extraction_prompt(
    entity_types, docs: list[str], examples: list[str], language: str,
    max_token_count: int = MAX_TOKEN_COUNT, min_examples_required: int = 2,
) -> str:
    """Reference extract_elements_prompts/entity_extraction_prompt.py:19-110
    — token-budgeted example packing over the deterministic tokenizer
    (tiktoken absent in this environment, SURVEY §7.5), with the
    min-examples floor overriding the budget."""
    prompt = (GRAPH_EXTRACTION_PROMPT if entity_types
              else UNTYPED_GRAPH_EXTRACTION_PROMPT)
    if isinstance(entity_types, list):
        entity_types = ", ".join(map(str, entity_types))
    # the reference's conditional expression zeroes the budget on the
    # untyped path (entity_extraction_prompt.py:58-63 binds the whole
    # subtraction to the if-arm) so only min_examples_required examples
    # ever pack there — corrected here: the budget applies on both paths
    tokens_left = max_token_count - token_count(prompt) - (
        token_count(entity_types) if entity_types else 0
    )
    examples_prompt = ""
    for i, output in enumerate(examples):
        example = (
            EXAMPLE_EXTRACTION_TEMPLATE.format(
                n=i + 1, input_text=docs[i], entity_types=entity_types,
                output=output,
            )
            if entity_types
            else UNTYPED_EXAMPLE_EXTRACTION_TEMPLATE.format(
                n=i + 1, input_text=docs[i], output=output,
            )
        )
        example_tokens = token_count(example)
        if i >= min_examples_required and example_tokens > tokens_left:
            break
        examples_prompt += example
        tokens_left -= example_tokens
    if entity_types:
        return prompt.format(entity_types=entity_types,
                             examples=examples_prompt, language=language)
    return prompt.format(examples=examples_prompt, language=language)


def create_entity_summarization_prompt(persona: str, language: str) -> str:
    """Reference extract_elements_prompts/entity_summarization_prompt.py."""
    return ENTITY_SUMMARIZATION_PROMPT.format(persona=persona,
                                              language=language)


def generate_community_reporter_role(client, docs: list[str], domain: str,
                                     persona: str) -> str:
    """Reference extract_elements_prompts/community_reporter_role.py."""
    return client.chat([{
        "role": "user",
        "content": GENERATE_COMMUNITY_REPORTER_ROLE_PROMPT.format(
            persona=persona, domain=domain, input_text="\n".join(docs)
        ),
    }]).strip()


def create_community_summarization_prompt(
    persona: str, language: str, report_rating_description: str, role: str,
) -> str:
    """Reference extract_elements_prompts/community_report_summarization.py."""
    return COMMUNITY_REPORT_SUMMARIZATION_PROMPT.format(
        persona=persona, language=language,
        report_rating_description=report_rating_description, role=role,
    )


def generate_indexing_prompts(
    docs,
    client=None,
    domain: str | None = None,
    language: str | None = None,
    skip_entity_types: bool = False,
    chunk_size: int = 1200,
    chunk_overlap: int = 100,
    sample_size: int = 15,
    json_mode: bool = False,
    max_token_count: int = MAX_TOKEN_COUNT,
    min_examples_required: int = 2,
) -> tuple[str, str, str]:
    """Reference api.py:25-152, step for step: returns (entity extraction
    prompt, entity summarization prompt, community summarization prompt).
    ``docs`` is an interleaved docs Dataset (same input as build_graph).
    """
    client = client or _default_client()
    doc_list = load_docs_in_chunks(docs, chunk_size, chunk_overlap,
                                   sample_size)
    if not domain:
        domain = generate_domain(client, doc_list)
    if not language:
        language = detect_language(client, doc_list)
    persona = generate_persona(client, domain)
    rating = generate_community_report_rating(client, domain, persona,
                                              doc_list)
    entity_types = None
    if not skip_entity_types:
        entity_types = generate_entity_types(client, domain, persona,
                                             doc_list, json_mode=json_mode)
    examples = generate_entity_relationship_examples(
        client, entity_types, language, persona, doc_list,
        json_mode=json_mode,
    )
    extraction = create_entity_extraction_prompt(
        entity_types, doc_list, examples, language,
        max_token_count=max_token_count,
        min_examples_required=min_examples_required,
    )
    summarization = create_entity_summarization_prompt(persona, language)
    role = generate_community_reporter_role(client, doc_list, domain,
                                            persona)
    community = create_community_summarization_prompt(persona, language,
                                                      rating, role)
    return extraction, summarization, community


def prompt_tune(docs, output: str = "output_prompts", client=None,
                domain: str | None = None, language: str | None = None,
                **kwargs) -> dict[str, str]:
    """Reference cli.py:14-43: generate the three indexing prompts and
    write them to ``output`` under the reference's filenames.  Returns
    {filename: path}."""
    extraction, summarization, community = generate_indexing_prompts(
        docs, client=client, domain=domain, language=language, **kwargs
    )
    out = Path(output)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    for fname, text in [
        (ENTITY_EXTRACTION_FILENAME, extraction),
        (ENTITY_SUMMARIZATION_FILENAME, summarization),
        (COMMUNITY_SUMMARIZATION_FILENAME, community),
    ]:
        path = out / fname
        path.write_text(text, encoding="utf-8")
        paths[fname] = str(path)
    return paths
