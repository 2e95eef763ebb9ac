import io

import pytest

from tensorparse import kgraph, toy
from tensorparse.dataset import load_dataset

MINI_CATALOG = """\
# mini world
E\tbrazil\tbrazil\t
E\tbrazilian_real\tbrazilian real\t
E\tethiopia\tethiopia\t
E\tkenya\tkenya\t
E\tsudan\tsudan\t
E\tdominican_republic\tdominican republic\tthe dominican republic
E\tbrad_pitt\tBrad Pitt\t
E\ttroy\tTroy\t
E\tachilles\tAchilles\t
E\tp1\tperformance 1\t
R\tcurrency\tcurrency\tcountry\tcurrency
R\tadjoins\tadjoins\tcountry\tcountry
R\tactor\tactor\tperformance\tperson
R\tfilm\tfilm\tperformance\tfilm
R\tcharacter\tcharacter\tperformance\tcharacter
"""

MINI_TRIPLES = """\
brazil\tcurrency\tbrazilian_real
ethiopia\tadjoins\tkenya
ethiopia\tadjoins\tsudan
kenya\tadjoins\tethiopia
sudan\tadjoins\tethiopia
p1\tactor\tbrad_pitt
p1\tfilm\ttroy
p1\tcharacter\tachilles
"""


def graph_from_strings(triples: str, catalog: str) -> kgraph.KnowledgeGraph:
    return kgraph.load_graph(io.StringIO(triples), io.StringIO(catalog))


@pytest.fixture
def mini_kg():
    return graph_from_strings(MINI_TRIPLES, MINI_CATALOG)


@pytest.fixture(scope="session")
def toy_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy")
    toy.gen_toy(out, seed=0)
    return out


@pytest.fixture(scope="session")
def toy_kg(toy_dir):
    with open(toy_dir / toy.TRIPLES_FILE) as triples, open(
        toy_dir / toy.CATALOG_FILE
    ) as catalog:
        return kgraph.load_graph(triples, catalog)


@pytest.fixture(scope="session")
def toy_data(toy_dir):
    with open(toy_dir / toy.DATASET_FILE) as fh:
        return load_dataset(fh)


@pytest.fixture(scope="session")
def toy_corpora(tmp_path_factory):
    """``{seed: (dataset, graph)}`` of the toy corpus for seeds 0-4."""
    corpora = {}
    for seed in range(5):
        out = tmp_path_factory.mktemp(f"toy{seed}")
        toy.gen_toy(out, seed=seed)
        with open(out / toy.TRIPLES_FILE) as triples, open(out / toy.CATALOG_FILE) as catalog:
            kg = kgraph.load_graph(triples, catalog)
        with open(out / toy.DATASET_FILE) as fh:
            corpora[seed] = (load_dataset(fh), kg)
    return corpora
