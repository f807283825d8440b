"""Golden shard files: the sha256 of every ``part-*`` file the pipelines'
final-round reducers write, recorded on the commit before the final rounds
began handing their stores arrays (30cd2d7, where every sample was still
split into a GraphFeature and restacked) and pinned here.

The record digests of ``test_golden_digests.py`` hash re-encoded wire
records, so they cannot see the shard frame itself: its header, the order
of its blocks, their dtypes and padding.  These do.  GraphFlat node
classification (integer and vector labels), link prediction, edge
classification and typed tables, GraphInfer node classification, link
prediction and edge classification — on the in-memory ``serial`` runtime
and on ``processes`` spilling every round — with cells whose few targets
leave partitions empty (an empty shard's ``x`` is ``(0, 0)`` and its label
kind ``none``).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.graphflat import GraphFlatConfig, graph_flat
from repro.core.infer import GraphInferConfig, graph_infer
from repro.datasets import cora_like, labeled_edges_like, ppi_like, typed_like
from repro.mapreduce import DistFileSystem, LocalRuntime
from repro.nn.gnn import GraphSAGEModel
from repro.proto.columnar import ColumnarShard

RUNTIMES = ("serial", "processes")

GOLDEN: dict[str, tuple[str, ...]] = {
    # cell: sha256 of part-00000 .. part-00003
    "flat_nc": (
        "aadd00d14104e008e54063d4d1b2f9a159466bce7d32a9da13daa3c28776ddd6",
        "9f21ae0ac3ab48a9a757c5d13805bd54147a26e517f6f97d7638d4e49e7e314d",
        "058ec866d735ef676b4bcdf434bbe5922c1345f2b5927eb7c19dd041a6f3ffe6",
        "3dd44faa6d9de8a418813343163ddc20b2f1b60bacf111486dffc39d554f8c7a",
    ),
    "flat_nc_vector_labels": (
        "1da1bd15f8e01b8d64dc2543e97c7538ba2023820ea4f8c56f92d64a921b6e9d",
        "41f4005e362a62a951091ef23a06b3e1e5b547dcecaaa07ac803ef05bec0b231",
        "a80738c77f7d01e6648e5e8fd1307713e148b3ddb716ca3a988d36ae6fc8ee93",
        "7637df28968a70ab86aa5b06ba60cc785cdac45a44111bb03685bf7157ce0426",
    ),
    "flat_nc_empty_partitions": (
        "7b80dabd7f7b16dca4cd79a49f87b03e245bb4376375aa476a277a4f1cd5e476",
        "7b80dabd7f7b16dca4cd79a49f87b03e245bb4376375aa476a277a4f1cd5e476",
        "058ec866d735ef676b4bcdf434bbe5922c1345f2b5927eb7c19dd041a6f3ffe6",
        "dcd7fcc3983963f7158b5eb5931ee828570b93b5fb42f34a125fdd173eac9c83",
    ),
    "flat_lp": (
        "45d605b38c160822e63cb41b9f1f08663dab285e45df7e16c2a3f5f75e5f9945",
        "d402dd1c21c8cfcff7180fe29077606ef42040b0a8c34cc7963e94f4615965c5",
        "3e8615ec7ee9cea5a7150a254478b258bed531322452d35d73ee9fed1e35e63c",
        "97a866d816c9bbc23c40dbbfde07362aab01f105e09c17c3c35293755cb6c981",
    ),
    "flat_ec": (
        "2a39c60fbb94b81ab195ed8495ab5d59d28d7980aab3d1103d38f0c2067552b7",
        "3082ae00deeea6d6dd2a36b99528032ceed9a2d544fbf4c2a227fc335ca18044",
        "f7b8af358f6dcc1d3e5f4c12590dbc97f099f2ee8b033c2d00014bc3fa4d10e3",
        "0e586380366699c2b24c72a3e7502ca08292993da71936d319548864352f80d9",
    ),
    "flat_typed_nc": (
        "9dc9d77b0746da928e9537f794d0d606ecd3f48f18a6097254adf58ab095e1fa",
        "f68eee83f1392d56645479c3c3bcdded2739f53e6d74e1a36f0e45c4ce56aed3",
        "90f7f33dc50b242d7025a132b9919b4e6cb22cba09bb875f095964edfbc4e5c1",
        "445dc840db5d777830d4303949add35d7e45a50d6dda6403367a4c4c3867eeaf",
    ),
    "flat_typed_lp": (
        "96a791d455d6210c6f7bd224521cf64717f82380b8b27eac2a48226840895fb1",
        "476c60379601435d23b423b7a86b3cf800bedc596d4fb191588b82d7a3b248af",
        "0e765336ba0091f88119c17ce9d6cf3282e0c27e4127bffae70c01f85653aa5d",
        "4118a45b5bacaa620ea42843218257ae0bdb931dfcea2bb0f183f19f555471f0",
    ),
    "infer_nc": (
        "060a5ac514b7e8854cbbb28da55eba4e21b70c295dd166de6dd745336e926239",
        "a96ef4f3d3a886f0db6e6ec5a6d304803172bd861556fed3375c8d77050d9e03",
        "d17d7ceef1f706c7bc90a84c06168f78b224c43e7df36887fe99683234baa41a",
        "09765a530917bd19ac22e3e94216a0b448de7f437d2becb73ce735c664a136be",
    ),
    "infer_nc_empty_partitions": (
        "5891a0bedbbfa9eaa1da457ddb71eba93da57d51f67416bd7f3d9c528e217303",
        "5891a0bedbbfa9eaa1da457ddb71eba93da57d51f67416bd7f3d9c528e217303",
        "5af53442c808f4f3f5deff6e8895d7d619ff5716893ce55314f5ea2b12aa7d36",
        "dc53174bcc6aa64c1e30e61ee12e56a1a7fdc2adbed91734763416b7228feeec",
    ),
    "infer_lp": (
        "bde33f2a4a4efaabe124a1fc8913a2d75d251b10f678b5dc03a137881fb4955c",
        "978ea93bff4568a27dcdc5c700f4147d3e567942ebbaffb20062114bf961c027",
        "77c8db8d7fe40e8a0254cf1d14a680a2109ee1e6cce19a317db2f87600b10f7b",
        "3d1c968b3ab6724a8c9de92a3136af9c44c7bb4d35e2bee4edb444880c48fb12",
    ),
    "infer_ec": (
        "dfa96875e1456b3304c4aa9ff70b4d746702b28e501a71f882710c0823320e76",
        "0e9ff4de6ddaf3d99f1b436aba526b8c027d3807981c1a23e40c747b89bcab10",
        "9bf16e98c6f55154fc6c90350d73a067c840746d5bf1fbd296b0a7723e273169",
        "8585ad645e970e011c5f197f087892810fb598453f7a91897022a6f056e25043",
    ),
}


def _graphs():
    cora = cora_like(
        seed=7, num_nodes=150, num_edges=450, feature_dim=48, num_classes=3,
        words_per_class=12, words_per_doc=6,
    )
    ppi = ppi_like(
        seed=7, num_graphs=4, nodes_per_graph=30, avg_degree=4, feature_dim=6, num_labels=5
    )
    edge_task = labeled_edges_like(seed=7, num_nodes=100, num_edges=360, feature_dim=6)
    typed = typed_like(seed=3, num_users=60, num_items=40, num_edges=260, feature_dim=6)
    return cora, ppi, edge_task, typed


def _cells():
    """``cell -> run``: ``run(runtime, fs, name)`` writes the cell's dataset
    ``name``."""
    cora, ppi, (e_nodes, e_edges), (t_nodes, t_edges) = _graphs()
    shared = dict(hops=2, max_neighbors=6, num_reducers=4, seed=0)
    infer_shared = dict(num_reducers=4, seed=0)
    sage = GraphSAGEModel(48, 8, 3, num_layers=2, seed=0)
    edge_sage = GraphSAGEModel(6, 8, 2, num_layers=2, seed=0)
    candidates = np.stack([e_edges.src[:40], e_edges.dst[:40]], axis=1)

    def flat(nodes, edges, targets, **knobs):
        def run(runtime, fs, name):
            config = GraphFlatConfig(**shared, **knobs)
            graph_flat(nodes, edges, targets, config, runtime, fs=fs, dataset_name=name)
        return run

    def infer(model, nodes, edges, targets=None, candidates=None, **knobs):
        def run(runtime, fs, name):
            config = GraphInferConfig(**infer_shared, **knobs)
            graph_infer(
                model, nodes, edges, config, runtime, fs=fs, dataset_name=name,
                targets=targets, candidates=candidates,
            )
        return run

    return {
        "flat_nc": flat(cora.nodes, cora.edges, cora.train_ids[:40]),
        "flat_nc_vector_labels": flat(ppi.nodes, ppi.edges, ppi.nodes.ids[::3]),
        "flat_nc_empty_partitions": flat(cora.nodes, cora.edges, cora.train_ids[:2]),
        "flat_lp": flat(e_nodes, e_edges, None, task="link_prediction", edge_targets=30),
        "flat_ec": flat(e_nodes, e_edges, None, task="edge_classification", edge_targets=30),
        "flat_typed_nc": flat(t_nodes, t_edges, t_nodes.ids[::5]),
        "flat_typed_lp": flat(
            t_nodes, t_edges, None, task="link_prediction", edge_targets=30
        ),
        "infer_nc": infer(sage, cora.nodes, cora.edges),
        "infer_nc_empty_partitions": infer(
            sage, cora.nodes, cora.edges, targets=cora.train_ids[:2]
        ),
        "infer_lp": infer(
            edge_sage, e_nodes, e_edges, candidates=candidates, task="link_prediction"
        ),
        "infer_ec": infer(
            edge_sage, e_nodes, e_edges, candidates=candidates, task="edge_classification"
        ),
    }


def shard_digests(fs: DistFileSystem, name: str) -> tuple[str, ...]:
    return tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in fs.shards(name))


@pytest.fixture(scope="module")
def cells():
    return _cells()


@pytest.fixture(scope="module")
def runtimes(tmp_path_factory):
    made = {
        "serial": None,
        "processes": LocalRuntime(
            backend="processes", max_workers=2, spill_dir=tmp_path_factory.mktemp("spill")
        ),
    }
    yield made
    made["processes"].close()


@pytest.mark.parametrize("backend", RUNTIMES)
@pytest.mark.parametrize("cell", sorted(GOLDEN))
def test_shard_files_match_the_recorded_digests(cells, runtimes, tmp_path, cell, backend):
    fs = DistFileSystem(tmp_path)
    cells[cell](runtimes[backend], fs, "out")
    assert shard_digests(fs, "out") == GOLDEN[cell]


def test_the_empty_partition_cells_have_empty_shards(cells, tmp_path):
    """What the empty-partition cells pin: a shard of no records — ``x`` of
    shape ``(0, 0)``, label kind ``none`` — beside full ones."""
    fs = DistFileSystem(tmp_path)
    for name in ("flat_nc_empty_partitions", "infer_nc_empty_partitions"):
        cells[name](None, fs, name)
        shards = [ColumnarShard(path) for path in fs.shards(name)]
        empty = [shard for shard in shards if not len(shard)]
        assert empty and len(empty) < len(shards)
    empty_flat = next(
        ColumnarShard(p) for p in fs.shards("flat_nc_empty_partitions")
        if not len(ColumnarShard(p))
    )
    assert empty_flat.array("x").shape == (0, 0)
    assert empty_flat.label_kind == "none"
