"""Self-test of the correctness checks, without Ray.

    python3 kgbench/selftest.py           # run the self-test
    python3 kgbench/selftest.py --regen   # rebuild the fixture (needs Ray)

The fixture is a small real output of the engine (the columns the checks
read, for a 300-doc closed_vocab corpus).  The clean output must pass every
check; each corrupted copy must be rejected by the check meant to catch it.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import checks
import corpora

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixture.json")
COLUMNS = {"entities": ["name", "degree"], "relationships": ["src", "dst", "weight"],
           "communities": ["level", "community", "name"],
           "community_reports": ["level", "community"]}
SEED, DOCS = 11, 300


def expected():
    return corpora.replay(corpora.closed_vocab_docs(DOCS, SEED), corpora.closed_vocab_records)


def drop_edge(t):
    t["relationships"].pop(0)


def change_weight(t):
    t["relationships"][0]["weight"] += 1.0


def entity_in_two_level0(t):
    level0 = [r for r in t["communities"] if r["level"] == 0]
    other = next(r["community"] for r in level0 if r["community"] != level0[0]["community"])
    t["communities"].append({"level": 0, "community": other, "name": level0[0]["name"]})


def remove_report(t):
    t["community_reports"].pop(0)


CASES = [(drop_edge, checks.check_edges), (change_weight, checks.check_edges),
         (entity_in_two_level0, checks.check_communities),
         (remove_report, checks.check_reports)]


def main() -> int:
    with open(FIXTURE) as f:
        tables = json.load(f)
    exp = expected()
    failures = []
    clean = checks.check_outputs(tables, exp) + checks.check_resumed(tables, tables)
    if clean:
        failures.append(f"clean output rejected: {clean}")
    for corrupt, check in CASES:
        bad = copy.deepcopy(tables)
        corrupt(bad)
        errors = check(bad, exp)
        print(f"{corrupt.__name__:24} {'rejected' if errors else 'ACCEPTED'}: {errors[:1]}")
        if not errors:
            failures.append(corrupt.__name__)
    resumed = copy.deepcopy(tables)
    resumed["entities"][0]["degree"] += 1
    errors = checks.check_resumed(tables, resumed)
    print(f"{'change_resumed_row':24} {'rejected' if errors else 'ACCEPTED'}: {errors[:1]}")
    if not errors:
        failures.append("change_resumed_row")
    print("self-test", "FAILED: " + ", ".join(failures) if failures else "passed")
    return 1 if failures else 0


def regen():
    """Build the 300-doc corpus with the engine and store the checked columns."""
    import tempfile

    import run

    with tempfile.TemporaryDirectory(dir=run.REPO) as tmp:
        session = run.Session(os.path.join(tmp, "s"))
        try:
            corpus = run.Corpus(run.Workload("closed_vocab", DOCS, 0), SEED, tmp)
            out = os.path.join(tmp, "out")
            run.build_and_export(corpus, corpus.input, out)
            tables = run.read_exported(out)
        finally:
            session.close()
    fixture = {name: [{c: r[c] for c in cols} for r in tables[name]]
               for name, cols in COLUMNS.items()}
    with open(FIXTURE, "w") as f:
        json.dump(fixture, f, indent=0, sort_keys=True)


if __name__ == "__main__":
    if sys.argv[1:] == ["--regen"]:
        regen()
    sys.exit(main())
