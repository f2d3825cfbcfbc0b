"""Correctness checks over the exported tables.

Every check compares against the benchmark's own replay of its generated
text (``corpora.Expected``) or against a property the method must have;
none compares against a stored copy of an earlier output.  Each returns a
list of failure messages (empty when the check holds).  Tables are given
as lists of row dicts keyed by column name.
"""

from __future__ import annotations

from collections import Counter


def _edge_key(row) -> tuple[str, str]:
    a, b = row["src"], row["dst"]
    return (a, b) if a <= b else (b, a)


def check_entities(tables, exp) -> list[str]:
    names = [r["name"] for r in tables["entities"]]
    errors = []
    if len(names) != len(set(names)):
        errors.append("entities: duplicate names")
    missing, extra = exp.entities - set(names), set(names) - exp.entities
    if missing or extra:
        errors.append(f"entities: {len(missing)} missing, {len(extra)} unexpected, "
                      f"e.g. {sorted(missing)[:2]} {sorted(extra)[:2]}")
    return errors


def check_edges(tables, exp) -> list[str]:
    got: dict[tuple[str, str], float] = {}
    for r in tables["relationships"]:
        key = _edge_key(r)
        if key in got:
            return [f"relationships: duplicate edge {key}"]
        got[key] = r["weight"]
    errors = []
    if got.keys() != exp.edges.keys():
        errors.append(f"relationships: {len(exp.edges.keys() - got.keys())} missing, "
                      f"{len(got.keys() - exp.edges.keys())} unexpected")
    wrong = [k for k in got.keys() & exp.edges.keys() if got[k] != exp.edges[k]]
    if wrong:
        errors.append(f"relationships: {len(wrong)} weights differ, e.g. {wrong[0]} "
                      f"{got[wrong[0]]} != {exp.edges[wrong[0]]}")
    if sum(got.values()) != exp.total_weight:
        errors.append(f"relationships: total weight {sum(got.values())} != "
                      f"{exp.total_weight} counted co-occurrence weight")
    return errors


def check_degrees(tables, exp) -> list[str]:
    incident = Counter()
    for a, b in exp.edges:
        incident[a] += 1
        incident[b] += 1
    wrong = [r["name"] for r in tables["entities"]
             if r["degree"] != incident.get(r["name"], 0)]
    errors = []
    if wrong:
        errors.append(f"degree: {len(wrong)} entities differ from their incident-edge "
                      f"count, e.g. {wrong[0]}")
    total = sum(r["degree"] for r in tables["entities"])
    if total != 2 * len(tables["relationships"]):
        errors.append(f"degree: sum {total} != 2 x {len(tables['relationships'])} edges")
    return errors


def components(exp) -> list[set[str]]:
    """Connected components of the expected graph (union-find)."""
    parent = {n: n for n in exp.entities}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in exp.edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    groups: dict[str, set[str]] = {}
    for n in exp.entities:
        groups.setdefault(find(n), set()).add(n)
    return list(groups.values())


def _members(tables) -> dict[tuple[int, str], set[str]]:
    out: dict[tuple[int, str], set[str]] = {}
    for r in tables["communities"]:
        out.setdefault((r["level"], r["community"]), set()).add(r["name"])
    return out


def check_communities(tables, exp) -> list[str]:
    comps = components(exp)
    largest = max((len(c) for c in comps), default=0)
    level0 = [r["name"] for r in tables["communities"] if r["level"] == 0]
    errors = []
    if len(level0) != len(set(level0)):
        errors.append("communities: an entity is in more than one level-0 community")
    if not any(len(c) == largest and c == set(level0) for c in comps):
        errors.append(f"communities: level 0 ({len(set(level0))} names) does not "
                      f"partition a largest connected component ({largest} names)")
    members = _members(tables)
    for (level, cid), names in members.items():
        if level > 0 and not any(lv == level - 1 and names <= parent
                                 for (lv, _), parent in members.items()):
            errors.append(f"communities: level-{level} community {cid} lies "
                          f"inside no single level-{level - 1} community")
            break
    return errors


def check_reports(tables, exp) -> list[str]:
    keys = Counter((r["level"], r["community"]) for r in tables["community_reports"])
    errors = []
    if any(n > 1 for n in keys.values()):
        errors.append("reports: more than one report for a (level, community)")
    communities = set(_members(tables))
    if set(keys) != communities:
        errors.append(f"reports: {len(communities - set(keys))} communities without a "
                      f"report, {len(set(keys) - communities)} reports without a community")
    return errors


CHECKS = (check_entities, check_edges, check_degrees, check_communities, check_reports)


def check_outputs(tables, exp) -> list[str]:
    return [e for check in CHECKS for e in check(tables, exp)]


def _row_set(rows) -> Counter:
    def freeze(v):
        if isinstance(v, list):
            return tuple(freeze(x) for x in v)
        if isinstance(v, dict):
            return tuple(sorted((k, freeze(x)) for k, x in v.items()))
        return v

    return Counter(tuple(sorted((k, freeze(v)) for k, v in r.items())) for r in rows)


def check_resumed(first, resumed) -> list[str]:
    """The resumed run's exported tables equal the first run's as row sets."""
    errors = []
    for name in sorted(first.keys() | resumed.keys()):
        if _row_set(first.get(name, [])) != _row_set(resumed.get(name, [])):
            errors.append(f"resume: table {name} differs from the first run")
    return errors
