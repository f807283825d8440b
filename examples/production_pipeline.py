"""The production wiring: TSV tables -> DFS -> training -> scored output,
with worker failures injected along the way.

This mirrors how AGL runs at Ant (Figure 1): upstream jobs drop node/edge
tables on the distributed file system; GraphFlat materialises sharded
GraphFeature datasets; training workers stream their shard from the DFS;
GraphInfer writes a predictions dataset for downstream consumers.  The
MapReduce runtime here re-executes failed tasks — the output is identical
with failures injected, which is the fault-tolerance property the paper
gets from building on mature infrastructure.

Run:  python examples/production_pipeline.py
"""

import tempfile
from pathlib import Path

from repro.core.graphflat import GraphFlatConfig, graph_flat
from repro.core.infer import GraphInferConfig, graph_infer
from repro.proto.codec import decode_prediction
from repro.core.trainer import GraphTrainer, TrainerConfig, open_sample_source
from repro.datasets import cora_like, read_edge_table, read_node_table, write_edge_table, write_node_table
from repro.mapreduce import DistFileSystem, FaultPlan, LocalRuntime
from repro.nn.gnn import GCNModel


def main():
    workdir = Path(tempfile.mkdtemp(prefix="agl-"))
    print(f"workspace: {workdir}")

    # --- upstream: raw tables land as TSV files ---------------------------
    dataset = cora_like(seed=0, num_nodes=600, num_edges=1800)
    write_node_table(workdir / "nodes.tsv", dataset.nodes)
    write_edge_table(workdir / "edges.tsv", dataset.edges)
    nodes = read_node_table(workdir / "nodes.tsv")
    edges = read_edge_table(workdir / "edges.tsv")
    print(f"ingested {len(nodes)} nodes / {len(edges)} edges from TSV")

    # --- GraphFlat on a fault-injected runtime, output sharded on the DFS -
    fs = DistFileSystem(workdir / "dfs")
    runtime = LocalRuntime(
        backend="threads",
        max_attempts=8,
        fault_plan=FaultPlan({"crash": 0.1}, seed=43),
    )
    flat_config = GraphFlatConfig(hops=2, max_neighbors=20)
    graph_flat(nodes, edges, dataset.train_ids, flat_config, runtime, fs, "flat/train")
    graph_flat(nodes, edges, dataset.test_ids, flat_config, runtime, fs, "flat/test")
    print(
        f"GraphFlat: {fs.count_records('flat/train')} train records in "
        f"{fs.num_shards('flat/train')} {fs.layout('flat/train')} shards "
        f"({fs.size_bytes('flat/train') / 2**10:.0f} KiB); "
        f"{runtime.fault_plan.injected} worker failures were injected and retried"
    )

    # --- training runs off the DFS shards through the layout-aware source
    # (mmap'd batch slicing for columnar shards, per-record decoding for
    # row shards — same samples either way) --------------------------------
    model = GCNModel(
        in_dim=nodes.feature_dim, hidden_dim=16,
        num_classes=dataset.num_classes, num_layers=2, seed=0,
    )
    trainer = GraphTrainer(
        model, TrainerConfig(batch_size=32, epochs=30, lr=0.02, task="multiclass")
    )
    trainer.fit(open_sample_source(fs, "flat/train"))
    accuracy = trainer.evaluate(open_sample_source(fs, "flat/test"))
    print(f"test accuracy: {accuracy:.3f}")

    # --- GraphInfer writes the scored dataset for downstream jobs ---------
    graph_infer(
        model, nodes, edges,
        GraphInferConfig(max_neighbors=20),
        runtime, fs, "scores/latest",
    )
    first = next(iter(fs.read_dataset("scores/latest")))
    node_id, scores = decode_prediction(first)
    print(
        f"GraphInfer: {fs.count_records('scores/latest')} scored nodes on the DFS; "
        f"e.g. node {node_id} -> class {int(scores.argmax())}"
    )
    print(f"datasets on the DFS: {fs.list_datasets()}")


if __name__ == "__main__":
    main()
