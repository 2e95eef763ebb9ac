"""Seeded input generator for the pipeline benchmark.

Writes one workload's inputs in the program's own file formats:

    triples.tsv   subject<TAB>relation<TAB>object
    catalog.tsv   E/R catalog lines
    train.jsonl   {"question": ..., "answers": [...]}
    test.jsonl    held-out questions, same format
    inputs.json   the make-up of the inputs (sizes, question kinds)

Run it as its own process, so that building the inputs never shows in the
measured process's time or memory:

    python3 pipebench/gen.py --workload wide --seed 3 --out DIR

``toy`` is the program's own toy corpus (``tensorparse.toy.gen_toy``).
``wide`` and ``large`` are synthetic graphs built here.  Their gold answers
are computed from this module's own triple list; nothing here executes a
logical form through ``tensorparse``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

TOY_TEST_SHARE = 0.2

# Relation phrases are "<a> <b>": each word is shared by eight relations,
# so a lexical feature learned for one relation helps its neighbours and a
# hundred-odd training questions cover all of them.
_A_WORDS = ["north", "south", "east", "west", "upper", "lower", "inner", "outer"]
_B_WORDS = ["gate", "tower", "river", "field", "market", "bridge", "harbor", "garden"]

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]

# Synthetic workloads.  ``item_groups`` lists (items, relations per item);
# each edge gets a value drawn from ``values``.  ``two_entity`` is the exact
# share of T3 questions; the rest are split evenly between T1 and T2.
SPECS = {
    "wide": dict(
        relations=60, item_groups=[(300, 3), (600, 1)], values=3000,
        questions=100, test_share=0.8, two_entity=0.2,
    ),
    "large": dict(
        relations=8, item_groups=[(12500, 8)], values=5000,
        questions=200, test_share=0.7, two_entity=0.0,
    ),
}

T1_TEMPLATE = "{r} of {e}"
T2_TEMPLATE = "things whose {r} is {e}"
T3_TEMPLATE = "{r} whose {r1} is {e1} and {r2} is {e2}"


def relation_phrase(index: int) -> str:
    return f"{_A_WORDS[index // len(_B_WORDS)]} {_B_WORDS[index % len(_B_WORDS)]}"


def entity_names(rng: random.Random, count: int) -> list[str]:
    """``count`` distinct three-syllable names, one token each."""
    n = len(_SYLLABLES)
    names = []
    for code in rng.sample(range(n ** 3), count):
        a, rest = divmod(code, n * n)
        b, c = divmod(rest, n)
        names.append((_SYLLABLES[a] + _SYLLABLES[b] + _SYLLABLES[c]).capitalize())
    return names


class SyntheticGraph:
    """Items carry one value per relation they have; values are shared."""

    def __init__(self, spec: dict, rng: random.Random):
        self.rel_ids = [f"r{i:02d}" for i in range(spec["relations"])]
        self.phrase = {rid: relation_phrase(i) for i, rid in enumerate(self.rel_ids)}
        n_items = sum(count for count, _ in spec["item_groups"])
        self.items = [f"i{i:05d}" for i in range(n_items)]
        self.values = [f"v{i:05d}" for i in range(spec["values"])]
        names = entity_names(rng, len(self.items) + len(self.values))
        self.name = dict(zip(self.items + self.values, names))
        self.triples = []
        self.forward: dict = {}
        self.backward: dict = {}
        items = iter(self.items)
        for count, per_item in spec["item_groups"]:
            for _ in range(count):
                item = next(items)
                for rid in sorted(rng.sample(self.rel_ids, per_item)):
                    value = rng.choice(self.values)
                    self.triples.append((item, rid, value))
                    self.forward.setdefault((item, rid), set()).add(value)
                    self.backward.setdefault((value, rid), set()).add(item)
        self.item_rels = {}
        for s, r, _ in self.triples:
            self.item_rels.setdefault(s, []).append(r)
        self.value_rels = sorted(self.backward)
        self.rich_items = [i for i in self.items if len(self.item_rels[i]) >= 3]

    def names_of(self, ids) -> list[str]:
        return sorted(self.name[e] for e in ids)

    def t1(self, rng):
        item = rng.choice(self.items)
        rid = rng.choice(self.item_rels[item])
        question = T1_TEMPLATE.format(r=self.phrase[rid], e=self.name[item].lower())
        return question, self.forward[(item, rid)]

    def t2(self, rng):
        value, rid = rng.choice(self.value_rels)
        question = T2_TEMPLATE.format(r=self.phrase[rid], e=self.name[value].lower())
        return question, self.backward[(value, rid)]

    def t3(self, rng):
        while True:
            item = rng.choice(self.rich_items)
            r1, r2, rid = rng.sample(self.item_rels[item], 3)
            (e1,) = self.forward[(item, r1)]
            (e2,) = self.forward[(item, r2)]
            if e1 != e2:
                break
        middle = self.backward[(e1, r1)] & self.backward[(e2, r2)]
        gold = set()
        for x in middle:
            gold |= self.forward.get((x, rid), set())
        question = T3_TEMPLATE.format(
            r=self.phrase[rid], r1=self.phrase[r1], e1=self.name[e1].lower(),
            r2=self.phrase[r2], e2=self.name[e2].lower(),
        )
        return question, gold

    def catalog_lines(self) -> list[str]:
        lines = [f"E\t{e}\t{self.name[e]}\t" for e in self.items + self.values]
        lines += [f"R\t{r}\t{self.phrase[r]}\tthing\tthing" for r in self.rel_ids]
        return lines

    def triple_lines(self) -> list[str]:
        return [f"{s}\t{r}\t{o}" for s, r, o in self.triples]


def synthetic_examples(graph: SyntheticGraph, spec: dict, rng: random.Random):
    """Examples per kind, with fixed counts so every seed has the same mix."""
    n = spec["questions"]
    n3 = round(n * spec["two_entity"])
    n1 = (n - n3 + 1) // 2
    counts = {"t1": n1, "t2": n - n3 - n1, "t3": n3}
    makers = {"t1": graph.t1, "t2": graph.t2, "t3": graph.t3}
    seen = set()
    by_kind = {}
    for kind in ("t1", "t2", "t3"):
        rows = []
        while len(rows) < counts[kind]:
            question, gold = makers[kind](rng)
            if question in seen:
                continue
            seen.add(question)
            rows.append({"question": question, "answers": graph.names_of(gold), "kind": kind})
        by_kind[kind] = rows
    return by_kind


def stratified_split(by_kind: dict, test_share: float, rng: random.Random):
    """Hold out ``test_share`` of every kind, so train and test share the mix."""
    train, test = [], []
    for kind in sorted(by_kind):
        rows = list(by_kind[kind])
        rng.shuffle(rows)
        n_test = round(len(rows) * test_share)
        test += rows[:n_test]
        train += rows[n_test:]
    rng.shuffle(train)
    rng.shuffle(test)
    return train, test


def toy_examples(out: Path, seed: int):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from tensorparse import toy

    paths = toy.gen_toy(out, seed=seed)
    rows = [json.loads(line) for line in paths["dataset"].read_text().splitlines()]
    for row in rows:
        row["kind"] = "t1"
    return {"t1": rows}


def write_lines(path: Path, lines) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def write_examples(path: Path, rows) -> None:
    write_lines(
        path,
        (json.dumps({"question": r["question"], "answers": r["answers"]}, sort_keys=True)
         for r in rows),
    )


def generate(workload: str, seed: int, out_dir) -> dict:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "toy":
        by_kind = toy_examples(out, seed)
        test_share = TOY_TEST_SHARE
        make_up = {"relations": 3, "source": f"tensorparse.toy.gen_toy(seed={seed})"}
    elif workload in SPECS:
        spec = SPECS[workload]
        graph = SyntheticGraph(spec, rng)
        write_lines(out / "catalog.tsv", graph.catalog_lines())
        write_lines(out / "triples.tsv", graph.triple_lines())
        by_kind = synthetic_examples(graph, spec, rng)
        test_share = spec["test_share"]
        make_up = dict(spec, entities=len(graph.name), triples=len(graph.triples))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    train, test = stratified_split(by_kind, test_share, rng)
    write_examples(out / "train.jsonl", train)
    write_examples(out / "test.jsonl", test)
    make_up.update(
        workload=workload,
        seed=seed,
        train=len(train),
        test=len(test),
        kinds={r["question"]: r["kind"] for r in train + test},
    )
    (out / "inputs.json").write_text(json.dumps(make_up, sort_keys=True), encoding="utf-8")
    return make_up


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["toy", *SPECS])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
