"""Golden output digests: the dataset bytes of ``graph_flat`` and
``graph_infer`` on the seed-11 hub fixture, recorded on the commit *before*
hub re-indexing became a side stage (f0ed82d, where every record still passed
through the re-index round) and pinned here.

Re-routing records between rounds may change how many of them are shuffled,
never what comes out: sampling (``uniform`` / ``weighted`` / ``topk``) x
partitioner (``hash`` / ``planned``) x task (node classification, link
prediction whose endpoints include hubs) must reproduce these sha256 digests
byte for byte.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.graphflat import GraphFlatConfig, graph_flat
from repro.core.infer import GraphInferConfig, graph_infer
from repro.datasets import uug_like
from repro.mapreduce import DistFileSystem
from repro.nn.gnn import GraphSAGEModel
from repro.tasks import make_task

from .helpers import dataset_digest

SAMPLINGS = ("uniform", "weighted", "topk")
PARTITIONERS = ("hash", "planned")
TASKS = ("node_classification", "link_prediction")

GOLDEN = {
    # (pipeline, sampling, task): (sha256, records) -- the same under either
    # partitioner, which the parent commit's recording confirmed.
    ("graph_flat", "uniform", "node_classification"): (
        "c984f6fcab74cb5cd65266618092d01cdab8878449409675d0f6dfeb7457f56b", 100),
    ("graph_flat", "uniform", "link_prediction"): (
        "4ab753a8bac9aebd911c364ee8fd964e752e54729cf103308b2ce693a38447e5", 160),
    ("graph_flat", "weighted", "node_classification"): (
        "cf548fdbc0e5cae575bae2d34020f616d01d73950fb8666e1bcf604d805ad8ae", 100),
    ("graph_flat", "weighted", "link_prediction"): (
        "846d9401c6dcd7e7b72646fddfd54db05c4aae570e8ee79aa496183a786c6352", 160),
    ("graph_flat", "topk", "node_classification"): (
        "b38af0946b5a216850b0a566e7846b739ec92878f1bd51156a7fe8a1e5602e58", 100),
    ("graph_flat", "topk", "link_prediction"): (
        "d12da0150953cf68e5a9df9f18fc6790c949b9d6650f265c21ed646dd5ec458c", 160),
    ("graph_infer", "uniform", "node_classification"): (
        "7590d1e5e1874e1aab7b471b340c1e7a74c672a12704e960bb31af6f0a0d3ab1", 400),
    ("graph_infer", "uniform", "link_prediction"): (
        "53e66fc04767a80c99e199b5da2f163e86687b9a7dc8a5f7a324f229648d03df", 60),
    ("graph_infer", "weighted", "node_classification"): (
        "a708a115fced32684ce4b2b59496e25d4b05efafa209958a614698fe0679b30b", 400),
    ("graph_infer", "weighted", "link_prediction"): (
        "ee50f52db05a29da73c01bc3e4b05b32422c9a0ff1908d73e2e8e183a86722cd", 60),
    ("graph_infer", "topk", "node_classification"): (
        "296a64cf0af7415471f34faafff440caf97172d2cf5330232095b621f3f0f381", 400),
    ("graph_infer", "topk", "link_prediction"): (
        "746808f2d5bf415a24472e564ff63b254cdcd0c4c889bc8402899d36bd96a3e5", 60),
}


@pytest.fixture(scope="module")
def fixture():
    """The hub fixture of ``tests/test_demand_driven.py``'s budgets: three
    hubs of in-degree ~60 against a threshold of 40."""
    ds = uug_like(
        seed=11, num_nodes=400, avg_degree=6, feature_dim=16, num_hubs=3, hub_degree=60
    )
    return ds, GraphSAGEModel(16, 16, 2, num_layers=2, seed=0)


def run(fixture, tmp_path, pipeline, sampling, partitioner, task) -> tuple[str, int]:
    ds, model = fixture
    fs = DistFileSystem(tmp_path)
    knobs = dict(
        sampling=sampling, partitioner=partitioner, task=task, max_neighbors=8,
        hub_threshold=40, num_reducers=4, seed=0,
    )
    edges = ds.edges.coalesce()
    into_hubs = np.flatnonzero(np.isin(edges.dst, ds.hub_ids))
    assert len(into_hubs) >= 100
    if pipeline == "graph_flat":
        config = GraphFlatConfig(hops=2, edge_targets=80, **knobs)
        targets = None
        if task == "node_classification":
            targets = np.sort(ds.nodes.ids)[::4]
        else:
            table = make_task(task).build_edge_targets(
                ds.nodes, edges, seed=0, max_targets=80, negative_ratio=1
            )
            assert set(table.endpoint_ids.tolist()) & set(ds.hub_ids.tolist())
        result = graph_flat(ds.nodes, ds.edges, targets, config, fs=fs, dataset_name="out")
        assert set(result.hub_nodes) >= set(ds.hub_ids.tolist())
    else:
        candidates = None
        if task == "link_prediction":
            rows = np.concatenate([np.arange(40), into_hubs[:20]])
            candidates = np.stack([edges.src[rows], edges.dst[rows]], axis=1)
        graph_infer(
            model, ds.nodes, ds.edges, GraphInferConfig(**knobs), fs=fs,
            dataset_name="out", candidates=candidates,
        )
    return dataset_digest(fs, "out")


@pytest.mark.parametrize("task", TASKS)
@pytest.mark.parametrize("partitioner", PARTITIONERS)
@pytest.mark.parametrize("sampling", SAMPLINGS)
@pytest.mark.parametrize("pipeline", ["graph_flat", "graph_infer"])
def test_output_matches_the_digest_recorded_before_the_reroute(
    fixture, tmp_path, pipeline, sampling, partitioner, task
):
    digest = run(fixture, tmp_path, pipeline, sampling, partitioner, task)
    assert digest == GOLDEN[(pipeline, sampling, task)]
