"""Replay probes: push a workload's own data through one layer's public
functions and time just that layer.

The functions MapReduce jobs ship to pool workers are module-level here
(never in ``__main__``) so forkserver workers can import them by path.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.graphflat.sampling import sample_negative_edges
from repro.core.trainer import partitioned_backend_factory, vectorize_batch
from repro.mapreduce import LocalRuntime, MapReduceJob, SpillLayout, SumCombiner
from repro.nn import Adam, ops, softmax_cross_entropy
from repro.proto.codec import decode_sample, encode_sample
from repro.proto.columnar import ColumnarShard
from repro.proto.framing import decode_value, encode_value

_MIB = float(1 << 20)


def timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


# --------------------------------------------------------------- mapreduce
def spill_and_framing(spill_root: str, record_bytes: float, total_bytes: int) -> dict:
    """Spill write/merge and value encode/decode rates on synthetic records
    shaped like the workload's shuffle traffic: ``record_bytes`` is its
    mean spilled bytes per record, so fat-subgraph and thin-embedding
    workloads probe the same code at their own record size."""
    width = max(1, int(record_bytes - 16) // 4)
    count = max(64, int(total_bytes // max(record_bytes, 1.0)))
    num_keys = max(1, count // 8)  # ~8 values per reduce group, like avg_degree
    rng = np.random.default_rng(0)
    payload = rng.standard_normal((count, width)).astype(np.float32)
    keys = (np.arange(count, dtype=np.int64) * 2654435761) % num_keys
    values = [(int(k), 1.0, payload[i]) for i, k in enumerate(keys)]

    blobs, encode_s = timed(lambda: [encode_value(v) for v in values])
    _, decode_s = timed(lambda: [decode_value(b) for b in blobs])
    framed_mib = sum(len(b) for b in blobs) / _MIB

    layout = SpillLayout(spill_root, "bench-probe", 4, codec="binary")
    try:
        def write():
            writer = layout.run_writer(0, run_bytes=max(1 << 16, total_bytes // 8))
            for key, value in zip(keys.tolist(), values):
                writer.append(key % 4, key, value)
            return writer.finish()

        written, write_s = timed(write)
        merged, merge_s = timed(
            lambda: sum(
                len(group) for p in range(4) for _, group in layout.iter_groups(p, 1)
            )
        )
    finally:
        layout.cleanup(1)
    if merged != count:
        raise RuntimeError(f"spill probe merged {merged} of {count} records")
    spilled_mib = written.bytes_written / _MIB
    return {
        "proto.framing_encode_mb_per_s": framed_mib / encode_s,
        "proto.framing_decode_mb_per_s": framed_mib / decode_s,
        "mapreduce.spill_write_mb_per_s": spilled_mib / write_s,
        "mapreduce.spill_merge_mb_per_s": spilled_mib / merge_s,
    }


def edge_rows(edges) -> list[tuple]:
    """The edge table as MapReduce input pairs (GraphFlat's own shape)."""
    return [
        (int(s), (int(s), int(d), float(w), f)) for s, d, f, w in edges.rows()
    ]


def degree_mapper(key, value):
    yield value[1], 1


def sum_reducer(key, values):
    yield key, sum(values)


def runtime_records_per_s(rows, backend: str, workers, spill_dir) -> dict:
    """One map + combine + shuffle + reduce round (in-degree count) at the
    workload's backend — the runtime's per-record cost with trivial user
    code, pool start included as in every pipeline call."""
    job = MapReduceJob(
        "bench-degree", sum_reducer, mapper=degree_mapper,
        combiner=SumCombiner(), num_reducers=4,
    )

    def run():
        with LocalRuntime(
            backend=backend, max_workers=workers, shuffle_codec="binary",
            spill_dir=spill_dir,
        ) as runtime:
            return runtime.run(job, rows)

    out, seconds = timed(run)
    if sum(count for _, count in out) != len(rows):
        raise RuntimeError("runtime probe lost records")
    return {"mapreduce.runtime_records_per_s": len(rows) / seconds}


# ------------------------------------------------------------------- proto
def sample_codec(fs, name: str) -> dict:
    """Row codec and columnar shard rates over a sample dataset."""
    records = list(fs.read_dataset(name))
    decoded, decode_s = timed(lambda: [decode_sample(r) for r in records])
    _, encode_s = timed(lambda: [encode_sample(*d) for d in decoded])
    paths = fs.shards(name)
    shards, open_s = timed(lambda: [ColumnarShard(p) for p in paths])
    wire_bytes, wire_s = timed(
        lambda: sum(len(r) for shard in shards for r in shard.iter_wire())
    )
    return {
        "proto.codec_decode_samples_per_s": len(records) / decode_s,
        "proto.codec_encode_samples_per_s": len(records) / encode_s,
        "proto.columnar_open_ms": 1e3 * open_s / len(paths),
        "proto.columnar_wire_mb_per_s": wire_bytes / _MIB / wire_s,
    }


# ----------------------------------------------------------- trainer + nn
def trainer_and_nn(source, model, batch_size: int, task_plugin=None) -> dict:
    """One epoch's worth of batches through each trainer stage separately:
    shard slicing, vectorization, then forward / backward / optimizer on
    the prepared tensors.  With a task plugin (link prediction) the pair
    readout and loss are timed on their own as the ``tasks`` layer."""
    order = np.arange(len(source))
    chunks = [order[lo : lo + batch_size] for lo in range(0, len(order), batch_size)]
    loaded, load_s = timed(
        lambda: [source.batch(idx).load_samples() for idx in chunks]
    )
    factory = partitioned_backend_factory(4, 1)  # TrainerConfig defaults
    prepared, vectorize_s = timed(
        lambda: [
            vectorize_batch(
                samples, model.num_layers, pruning=True,
                aggregator_factory=factory, edge_level=task_plugin is not None,
            )
            for samples in loaded
        ]
    )
    optimizer = Adam(model.parameters(), lr=0.001)
    model.train()
    fwd_s = bwd_s = opt_s = head_s = 0.0
    for batch, labels in prepared:
        model.zero_grad()
        if task_plugin is None:
            loss, seconds = timed(
                lambda: softmax_cross_entropy(model(batch), labels)
            )
            fwd_s += seconds
        else:
            h, seconds = timed(lambda: model.embed(batch))
            fwd_s += seconds
            loss, seconds = timed(
                lambda: task_plugin.loss(
                    task_plugin.readout(
                        ops.gather_rows(h, batch.target_index),
                        batch.pair_index, model.head,
                    ),
                    labels,
                )
            )
            head_s += seconds
        _, seconds = timed(loss.backward)
        bwd_s += seconds
        _, seconds = timed(optimizer.step)
        opt_s += seconds
    return {
        "core.trainer.load_samples_per_s": len(source) / load_s,
        "core.trainer.vectorize_samples_per_s": len(source) / vectorize_s,
        "core.trainer.batch_nodes_mean": float(
            np.mean([b.num_nodes for b, _ in prepared])
        ),
        "core.trainer.batch_edges_mean": float(
            np.mean([b.block_for_layer(0).num_edges for b, _ in prepared])
        ),
        "nn.fwd_s": fwd_s,
        "nn.bwd_s": bwd_s,
        "nn.opt_s": opt_s,
        "tasks.readout_loss_s": head_s,
    }


# --------------------------------------------------------------- graphflat
def negative_sampling(nodes, edges, num_samples: int, seed: int) -> dict:
    """Link prediction's seeded corrupt-destination draw, on its own."""
    edges = edges.coalesce()
    src = np.asarray(edges.src, dtype=np.int64)
    dst = np.asarray(edges.dst, dtype=np.int64)
    _, seconds = timed(
        lambda: sample_negative_edges(
            src[:num_samples], dst[:num_samples], nodes.ids, num_samples, seed,
            forbid_src=src, forbid_dst=dst,
        )
    )
    return {"core.graphflat.negative_sampling_s": seconds}
