"""Metric catalogue: every name the benchmark prints, with its unit and
direction.  ``BENCHMARK.json`` lists the same names (the smoke test holds
the two together); what ``BENCHMARK.json`` has no key for lives here — which
counts repeat exactly at a fixed seed, and which end-to-end metric on which
workload each layer metric is predicted to move.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["END_TO_END", "EXACT", "INTERACTIONS", "PER_LAYER", "Metric"]

FLAT, TRAIN, LP, INFER = (
    "flat_powerlaw_spill", "train_nc_columnar", "lp_pipeline", "infer_fullgraph",
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    exact: bool = False
    """The count repeats exactly at a fixed seed (read from a public
    result object); ``bench.compare`` demands equality."""
    moves: str = ""
    """Prediction: the end-to-end metric @ workload this should move."""


END_TO_END = (
    Metric("setup_s", "s", "lower"),
    Metric("rep_wall_s", "s", "lower"),
    Metric("items_per_s", "1/s", "higher"),
    Metric("cpu_s", "s", "lower"),
    Metric("peak_rss_mb", "MiB", "lower"),
)
"""Reported on every workload.  One repetition is one ``graph_flat`` job,
one training epoch, one tables-to-scores pipeline or one ``graph_infer``
job; its items are the samples written, the samples trained on, or the
scores written."""

_SPILLED = f"items_per_s@{FLAT}, items_per_s@{INFER}"
_TRAINED = f"items_per_s@{TRAIN}, rep_wall_s@{LP}"
_FLATTENED = f"items_per_s@{FLAT}, rep_wall_s@{LP}"
_INFERRED = f"items_per_s@{INFER}, rep_wall_s@{LP}"

PER_LAYER = (
    # datasets
    Metric("datasets.gen_s", "s", "lower", moves="setup_s@all"),
    Metric("datasets.tsv_read_s", "s", "lower", moves=f"rep_wall_s@{LP}"),
    # core.graphflat
    Metric("core.graphflat.busy_s", "s", "lower", moves=_FLATTENED),
    Metric("core.graphflat.self_s", "s", "lower", moves=_FLATTENED),
    Metric("core.graphflat.negative_sampling_s", "s", "lower", moves=f"rep_wall_s@{LP}"),
    Metric("core.graphflat.samples", "count", "higher", exact=True),
    Metric("core.graphflat.mean_neighborhood_nodes", "count", "lower", exact=True),
    Metric("core.graphflat.hubs", "count", "higher", exact=True),
    # mapreduce
    Metric("mapreduce.busy_s", "s", "lower", moves=_SPILLED + f", rep_wall_s@{LP}"),
    Metric("mapreduce.rounds", "count", "lower", exact=True),
    Metric("mapreduce.shuffled_records", "count", "lower", exact=True, moves=_SPILLED),
    Metric("mapreduce.combined_records", "count", "higher", exact=True),
    Metric("mapreduce.shuffle_bytes_written", "bytes", "lower", exact=True, moves=_SPILLED),
    Metric("mapreduce.task_attempts", "count", "lower", exact=True),
    Metric("mapreduce.failed_attempts", "count", "lower"),
    Metric("mapreduce.records_skew_max", "ratio", "lower", exact=True, moves=_SPILLED),
    Metric("mapreduce.bytes_skew_max", "ratio", "lower", exact=True, moves=_SPILLED),
    Metric("mapreduce.peak_reducer_buffer_bytes", "bytes", "lower", exact=True,
           moves=f"peak_rss_mb@{FLAT}"),
    Metric("mapreduce.max_group_values", "count", "lower", exact=True),
    Metric("mapreduce.fs_write_s", "s", "lower"),
    Metric("mapreduce.fs_bytes_per_record", "bytes", "lower", exact=True),
    Metric("mapreduce.spill_write_mb_per_s", "MiB/s", "higher", moves=_SPILLED),
    Metric("mapreduce.spill_merge_mb_per_s", "MiB/s", "higher", moves=_SPILLED),
    Metric("mapreduce.runtime_records_per_s", "1/s", "higher", moves=_SPILLED),
    # proto
    Metric("proto.framing_encode_mb_per_s", "MiB/s", "higher", moves=_SPILLED),
    Metric("proto.framing_decode_mb_per_s", "MiB/s", "higher", moves=_SPILLED),
    Metric("proto.codec_decode_samples_per_s", "1/s", "higher", moves=_TRAINED),
    Metric("proto.codec_encode_samples_per_s", "1/s", "higher", moves=_TRAINED),
    Metric("proto.columnar_open_ms", "ms", "lower", moves=_TRAINED),
    Metric("proto.columnar_wire_mb_per_s", "MiB/s", "higher", moves=_TRAINED),
    # core.trainer
    Metric("core.trainer.open_source_s", "s", "lower", moves=f"rep_wall_s@{LP}"),
    Metric("core.trainer.epoch_s_p50", "s", "lower", moves=_TRAINED),
    Metric("core.trainer.preprocess_s", "s", "lower", moves=_TRAINED),
    Metric("core.trainer.compute_s", "s", "lower", moves=_TRAINED),
    Metric("core.trainer.data_wait_s", "s", "lower", moves=_TRAINED),
    Metric("core.trainer.evaluate_s", "s", "lower", moves=f"rep_wall_s@{LP}"),
    Metric("core.trainer.quality", "ratio", "higher", exact=True),
    Metric("core.trainer.load_samples_per_s", "1/s", "higher", moves=_TRAINED),
    Metric("core.trainer.vectorize_samples_per_s", "1/s", "higher", moves=_TRAINED),
    Metric("core.trainer.batch_nodes_mean", "count", "lower", exact=True),
    Metric("core.trainer.batch_edges_mean", "count", "lower", exact=True),
    # nn
    Metric("nn.fwd_s", "s", "lower", moves=_TRAINED + " once data_wait_s is ~0"),
    Metric("nn.bwd_s", "s", "lower", moves=_TRAINED + " once data_wait_s is ~0"),
    Metric("nn.opt_s", "s", "lower", moves=_TRAINED + " once data_wait_s is ~0"),
    Metric("nn.params", "count", "lower", exact=True),
    # tasks
    Metric("tasks.readout_loss_s", "s", "lower", moves=f"rep_wall_s@{LP}"),
    # core.infer
    Metric("core.infer.busy_s", "s", "lower", moves=_INFERRED),
    Metric("core.infer.self_s", "s", "lower", moves=_INFERRED),
    Metric("core.infer.embedding_computations", "count", "lower", exact=True),
    Metric("core.infer.scores", "count", "higher", exact=True),
    # bench
    Metric("bench.trace_overhead_share", "ratio", "lower"),
    Metric("bench.rep_spread", "ratio", "lower"),
    Metric("bench.raw_rep_wall_s", "s", "lower"),
    Metric("bench.machine_speed", "ratio", "higher"),
)
"""Reported on every workload by the traced run; a layer that does no work
on a workload reports 0 there (that *is* the isolation claim — e.g. every
``mapreduce.*`` is 0 on ``train_nc_columnar``)."""

EXACT = frozenset(m.name for m in PER_LAYER if m.exact)

INTERACTIONS = (
    "flat_powerlaw_spill: the serial in-memory backend takes about a quarter "
    "of the wall of processes x 2, because every shuffled byte sits on the "
    "blocking encode -> write -> merge -> decode path; "
    "mapreduce.shuffle_bytes_written and the proto.framing_* rates bound "
    "items_per_s there, not reducer compute.",
    "Two workers on two cores plus the parent: cpu_s can fall while "
    "rep_wall_s does not, so both are end-to-end metrics.",
    "A reduce round ends with its slowest partition, so "
    "mapreduce.records_skew_max moves wall only on the two processes "
    "workloads; lp_pipeline's threads share one interpreter lock.",
    "train_nc_columnar is input-bound (preprocess_s > compute_s): a faster "
    "nn raises core.trainer.data_wait_s and leaves items_per_s flat until "
    "the decode -> batch path is fused.",
    "Spill-only changes predict no change on lp_pipeline (in-memory "
    "shuffle) and none on train_nc_columnar (no MapReduce).",
)
