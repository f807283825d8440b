"""Command-line entry points mirroring the paper's Figure 6 demo:

    GraphFlat    -n node_table -e edge_table -h hops -s sampling_strategy;
    GraphTrainer -m model_name -i input -t train_strategy -c dist_configs;
    GraphInfer   -m model -i input -c infer_configs;

Here as ``python -m repro.cli <graphflat|graphtrainer|graphinfer> ...`` over
TSV node/edge tables and a directory-backed DFS.  Trained models are stored
as pickled ``(model_name, config, state_dict)`` triples next to the DFS so
GraphInfer can reload them without retraining.
"""

from __future__ import annotations

import argparse
import itertools
import pickle
import sys
from pathlib import Path

import numpy as np

from repro.core.graphflat import SAMPLING_REGISTRY, GraphFlatConfig, graph_flat
from repro.core.infer import GraphInferConfig, graph_infer
from repro.core.trainer import (
    GraphTrainer,
    TrainerConfig,
    decode_samples,
    open_sample_source,
)
from repro.datasets.io import read_edge_table, read_node_table
from repro.mapreduce import BACKEND_REGISTRY, DistFileSystem
from repro.nn.gnn import MODEL_REGISTRY, build_model
from repro.proto.codec import CodecError, decode_prediction
from repro.tasks import EDGE_TASKS, TASK_REGISTRY
from repro.transport import SHUFFLE_TRANSPORTS

__all__ = ["main", "save_model", "load_model"]


def save_model(path: str | Path, model, model_name: str) -> None:
    """Persist ``(name, config, state)`` — enough to rebuild anywhere."""
    payload = {
        "model_name": model_name,
        "config": model.config,
        "state": model.state_dict(),
    }
    with open(path, "wb") as fh:
        pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)


def load_model(path: str | Path):
    with open(path, "rb") as fh:
        payload = pickle.load(fh)
    model = build_model(payload["model_name"], **payload["config"])
    model.load_state_dict(payload["state"])
    return model


def _add_common(parser: argparse.ArgumentParser) -> None:
    """What every command that opens the DFS reads."""
    parser.add_argument("--dfs", required=True, help="root directory of the local DFS")
    parser.add_argument(
        "--hosts", default=None,
        help="cluster roster as comma-separated host:port entries; the "
        "first entry is the coordinator (its base port seeds the "
        "control/PS/shuffle/broadcast port plan, 0 = ephemeral). "
        "Unset = single-host loopback",
    )
    parser.add_argument("--seed", type=int, default=0)


def _add_shuffle_transport(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--shuffle-transport", choices=SHUFFLE_TRANSPORTS, default="local",
        help="how map-side runs reach reducers: 'local' (same-host spill "
        "files), 'tcp' (length-prefixed frames from a shuffle peer server; "
        "CRC trailers verified end-to-end), or 'shared-dir' (map tasks push "
        "runs into per-partition subdirectories of --spill-dir, e.g. a DFS "
        "mount); output is byte-identical across all three",
    )


def _add_runtime(parser: argparse.ArgumentParser) -> None:
    """The MapReduce runtime knobs — read by the commands that run one."""
    parser.add_argument(
        "--backend",
        choices=["auto", *sorted(BACKEND_REGISTRY)],
        default="auto",
        help="MapReduce backend; 'auto' picks threads when --num-workers > 1, "
        "'processes' gives true multi-core scaling",
    )
    parser.add_argument(
        "--num-workers", "--workers", dest="num_workers", type=int, default=2,
        help="map/reduce worker count for the pooled backends",
    )
    parser.add_argument(
        "--spill-dir", default=None,
        help="shuffle spill directory (out-of-core); processes backend spills "
        "to a private temp dir by default",
    )
    _add_shuffle_transport(parser)
    parser.add_argument(
        "--max-attempts", type=int, default=3,
        help="attempt budget per map/reduce task before the job fails",
    )
    parser.add_argument(
        "--task-timeout", dest="task_timeout_s", type=float, default=None,
        metavar="SECONDS",
        help="per-attempt deadline: an attempt running longer is discarded "
        "(worker pool killed under the processes backend) and retried",
    )
    parser.add_argument(
        "--speculation-factor", type=float, default=None, metavar="FACTOR",
        help="straggler speculation (processes backend): a task running "
        "longer than FACTOR x the phase's median completed duration races "
        "a duplicate attempt; first completion wins",
    )


def _add_dataflow(parser: argparse.ArgumentParser, config_cls, *, output: str,
                  targets_help: str, task_help: str) -> None:
    """The flags GraphFlat and GraphInfer share — one per
    :class:`~repro.core.propagation.DataflowConfig` field the CLI exposes,
    defaults read off the pipeline's own config class."""
    defaults = config_cls()
    parser.add_argument("-n", "--node-table", required=True)
    parser.add_argument("-e", "--edge-table", required=True)
    parser.add_argument(
        "-s", "--sampling", choices=sorted(SAMPLING_REGISTRY), default=defaults.sampling
    )
    parser.add_argument("--max-neighbors", type=int, default=defaults.max_neighbors)
    parser.add_argument("--hub-threshold", type=int, default=defaults.hub_threshold)
    parser.add_argument("--targets", help=targets_help)
    parser.add_argument(
        "--task", choices=sorted(TASK_REGISTRY), default=defaults.task, help=task_help
    )
    parser.add_argument("--output", default=output)
    _add_common(parser)
    _add_runtime(parser)


def _dataflow_kwargs(args) -> dict:
    """``DataflowConfig`` fields from the flags :func:`_add_dataflow` adds."""
    return dict(
        sampling=args.sampling,
        max_neighbors=args.max_neighbors,
        hub_threshold=args.hub_threshold,
        seed=args.seed,
        task=args.task,
        backend=_backend_name(args),
        num_workers=args.num_workers,
        spill_dir=args.spill_dir,
        shuffle_transport=args.shuffle_transport,
        hosts=args.hosts,
        max_attempts=args.max_attempts,
        task_timeout_s=args.task_timeout_s,
        speculation_factor=args.speculation_factor,
    )


def _load_targets(args):
    if not args.targets:
        return None
    return np.loadtxt(args.targets, dtype=np.int64, ndmin=1)


def _add_dist(parser: argparse.ArgumentParser) -> None:
    """Distributed-training knobs (§3.3's GraphTrainer ``dist_configs``)."""
    parser.add_argument(
        "--dist-workers", type=int, default=0,
        help="data-parallel training workers; 0 trains single-process, "
        ">= 1 trains against a parameter-server group",
    )
    parser.add_argument(
        "--dist-mode", choices=["async", "bsp", "ssp"], default="async",
        help="PS consistency: apply-on-arrival, barrier-averaged, or "
        "bounded staleness",
    )
    parser.add_argument(
        "--dist-backend", choices=["threads", "processes"], default="processes",
        help="worker execution: threads of this process, or real OS "
        "processes (true multi-core gradient computation)",
    )
    parser.add_argument(
        "--dist-transport", choices=["auto", "local", "shm", "tcp"],
        default="auto",
        help="PS transport: in-process lock-based state, shared-memory "
        "slabs (zero-copy version-keyed pulls), or a TCP parameter server "
        "(same version-keyed pull/push protocol over sockets; required "
        "for --dist-remote-workers)",
    )
    parser.add_argument(
        "--dist-remote-workers", type=int, default=0,
        help="train with workers that join over the network instead of "
        "spawning locally: opens a worker hub and blocks until this many "
        "worker ids are claimed by `repro.cli worker --join` processes "
        "(requires --dist-transport tcp and must equal --dist-workers)",
    )
    parser.add_argument(
        "--hub-port", type=int, default=0,
        help="worker-hub control port for --dist-remote-workers "
        "(0 = ephemeral; the chosen endpoint is printed before training)",
    )
    parser.add_argument(
        "--dist-servers", type=int, default=2,
        help="parameter-server shard count",
    )
    parser.add_argument(
        "--staleness", type=int, default=2,
        help="SSP staleness bound (steps the fastest worker may run ahead)",
    )


def _dist_config(args):
    """DistributedConfig from CLI knobs; invalid combinations exit with a
    usage-style message instead of a traceback."""
    from repro.ps import DistributedConfig

    tcp_host = "127.0.0.1"
    if getattr(args, "hosts", None):
        from repro.transport import ClusterSpec

        tcp_host = ClusterSpec.parse(args.hosts).coordinator.host
    try:
        return DistributedConfig(
            num_workers=max(args.dist_workers, 1),
            num_servers=args.dist_servers,
            mode=args.dist_mode,
            staleness=args.staleness,
            seed=args.seed,
            worker_backend=args.dist_backend,
            transport=None if args.dist_transport == "auto" else args.dist_transport,
            remote_workers=args.dist_remote_workers,
            tcp_host=tcp_host,
            hub_port=args.hub_port,
        )
    except ValueError as exc:
        raise SystemExit(f"error: invalid --dist configuration: {exc}")


def _topology_line(dist) -> str:
    remote = f" remote={dist.remote_workers}" if dist.remote_workers else ""
    return (
        f"ps topology: servers={dist.num_servers} workers={dist.num_workers} "
        f"mode={dist.mode} transport={dist.transport} "
        f"backend={dist.worker_backend} staleness={dist.staleness}{remote}"
    )


def _backend_name(args) -> str:
    if args.backend != "auto":
        return args.backend
    return "threads" if args.num_workers > 1 else "serial"


def _print_shuffle_summary(round_stats, transport: str = "local") -> None:
    """One line of shuffle accounting, so what a run shuffled and spilled is
    visible without running the benchmark suite."""
    records = sum(rs.shuffled_records for rs in round_stats)
    spilled = sum(rs.shuffle_bytes_written for rs in round_stats)
    combined = sum(rs.combined_records for rs in round_stats)
    peak = max((rs.peak_reducer_buffer_bytes for rs in round_stats), default=0)
    detail = f", {combined} map-combined" if combined else ""
    if spilled:
        print(
            f"shuffle: {records} records, {spilled / 2**20:.2f} MiB spilled "
            f"({len(round_stats)} rounds{detail}, "
            f"peak reducer buffer {peak / 2**20:.2f} MiB)"
        )
    else:
        print(
            f"shuffle: {records} records (in-memory, {len(round_stats)} "
            f"rounds{detail})"
        )
    _print_transport_summary(round_stats, transport)
    _print_skew_summary(round_stats)


def _print_transport_summary(round_stats, transport: str) -> None:
    """One line of transport accounting: which shuffle transport carried
    the runs and how many bytes actually crossed it.  The local transport
    moves nothing (reducers read the spill files in place), so it only
    reports the name."""
    sent = sum(rs.transport_bytes_sent for rs in round_stats)
    received = sum(rs.transport_bytes_received for rs in round_stats)
    if sent or received:
        print(
            f"transport: {transport} ({sent / 2**20:.2f} MiB sent, "
            f"{received / 2**20:.2f} MiB received)"
        )
    else:
        print(f"transport: {transport} (in-place, 0 bytes moved)")


def _print_skew_summary(round_stats) -> None:
    """Reducer balance: skew factor = max partition load / mean partition
    load, so 1.0 is perfectly balanced and N means one reducer carried the
    whole round.  Reported per worst round — a single hot reducer gates the
    round's wall clock no matter how idle the rest are."""
    rec_skews = [rs.records_skew() for rs in round_stats]
    if not any(rec_skews):
        return  # single-partition rounds only: skew is not meaningful
    byte_skews = [rs.bytes_skew() for rs in round_stats]
    worst = max(range(len(rec_skews)), key=lambda i: rec_skews[i])
    populated = [s for s in rec_skews if s]
    mean_rec = sum(populated) / len(populated)
    byte_part = ""
    if any(byte_skews):
        byte_part = f", bytes x{byte_skews[worst]:.2f} in worst round"
    print(
        f"partition skew: records x{rec_skews[worst]:.2f} worst round "
        f"(round {worst}), x{mean_rec:.2f} mean{byte_part}"
    )


def _print_fault_summary(round_stats) -> None:
    """One line of fault-tolerance accounting: how many attempts the run
    actually took, and what the chaos plane (deadlines, speculation,
    backoff) did about the slow and broken ones."""
    attempts = sum(rs.map_attempts + rs.reduce_attempts for rs in round_stats)
    injected = sum(rs.injected_failures for rs in round_stats)
    timeouts = sum(rs.timeouts for rs in round_stats)
    launched = sum(rs.speculative_launched for rs in round_stats)
    won = sum(rs.speculative_won for rs in round_stats)
    backoff = sum(rs.backoff_total_s for rs in round_stats)
    extras = []
    if injected:
        extras.append(f"{injected} injected failures")
    if timeouts:
        extras.append(f"{timeouts} timeouts")
    if launched:
        extras.append(f"speculative duplicates {won}/{launched} won")
    if backoff:
        extras.append(f"{backoff:.2f}s retry backoff")
    detail = ", ".join(extras) if extras else "no faults"
    print(f"fault tolerance: {attempts} task attempts ({detail})")


def _cmd_graphflat(args) -> int:
    nodes = read_node_table(args.node_table)
    edges = read_edge_table(args.edge_table)
    config = GraphFlatConfig(
        hops=args.hops,
        edge_targets=args.edge_targets,
        negative_ratio=args.negative_ratio,
        **_dataflow_kwargs(args),
    )
    fs = DistFileSystem(args.dfs)
    # The config owns the runtime (graph_flat builds and closes it).
    result = graph_flat(
        nodes, edges, _load_targets(args), config, fs=fs, dataset_name=args.output
    )
    unit = "edge samples" if args.task in EDGE_TASKS else "GraphFeatures"
    print(
        f"GraphFlat: wrote {result.num_targets} {unit} to "
        f"{args.dfs}/{args.output} ({fs.num_shards(args.output)} columnar shards, "
        f"task {result.task}, "
        f"{len(result.hub_nodes)} hub nodes re-indexed, "
        f"mean neighborhood {result.neighborhood_nodes.mean():.1f} nodes)"
    )
    _print_shuffle_summary(result.round_stats, args.shuffle_transport)
    print(
        "receptive field: {} of {} nodes, {} of {} propagations".format(
            *result.receptive_nodes, *result.propagations
        )
    )
    _print_fault_summary(result.round_stats)
    return 0


def _cmd_graphtrainer(args) -> int:
    fs = DistFileSystem(args.dfs)
    # Training runs off the mmap'd columnar shards.  A dataset that is absent
    # (never committed) or not training data (e.g. GraphInfer scores) is a
    # usage error; a corrupt one (a shard that is not an AGLC frame
    # included) keeps its traceback.
    try:
        source = open_sample_source(fs, args.input)
    except CodecError:
        raise
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not len(source):
        print("no training samples found", file=sys.stderr)
        return 1
    probe = source.sample(0).graph_feature
    if source.label_kind == "none":
        print("training data is unlabeled", file=sys.stderr)
        return 1
    # The dataset records its task kind (edge-level tasks only; node
    # classification and legacy datasets record nothing), so `--task auto`
    # trains link-prediction output as link prediction without being told.
    recorded = fs.task(args.input)
    task = args.task
    if task == "auto" and recorded in EDGE_TASKS:
        task = recorded
    if recorded in EDGE_TASKS and task != recorded:
        print(
            f"dataset {args.input!r} holds {recorded} samples (two targets "
            f"per record); --task {task} cannot train on them",
            file=sys.stderr,
        )
        return 1
    if task in EDGE_TASKS:
        if task == "edge_classification":
            if source.label_kind != "int":
                print("edge classification needs int edge labels", file=sys.stderr)
                return 1
            num_classes = source.max_int_label() + 1
        else:
            # Link prediction scores pairs by embedding dot product — the
            # dense head is bypassed, so its width is nominal.
            num_classes = 2
    elif source.label_kind == "int":
        num_classes = source.max_int_label() + 1
        if task == "auto":
            task = "binary" if num_classes == 2 else "multiclass"
    else:
        num_classes = source.label_dim
        if task == "auto":
            task = "multilabel"

    kwargs = dict(
        in_dim=probe.feature_dim, hidden_dim=args.hidden,
        num_classes=num_classes, num_layers=args.layers, seed=args.seed,
    )
    if args.model == "gat":
        kwargs["num_heads"] = args.heads
    trainer_config = TrainerConfig(
        batch_size=args.batch_size, epochs=args.epochs, lr=args.lr,
        task=task, seed=args.seed,
        pipeline=args.prefetch_backend != "serial",
        prefetch_backend=args.prefetch_backend,
        prefetch_workers=args.prefetch_workers,
    )
    if args.dist_workers >= 1:
        import functools

        from repro.ps import DistributedTrainer

        dist = _dist_config(args)
        factory = functools.partial(build_model, args.model, **kwargs)
        with DistributedTrainer(factory, trainer_config, dist) as trainer:
            if trainer.hub_endpoint is not None:
                hub_host, hub_port = trainer.hub_endpoint
                print(
                    f"worker hub: {hub_host}:{hub_port} (waiting for "
                    f"{dist.remote_workers} remote workers; join with "
                    f"`python -m repro.cli worker --join {hub_host}:{hub_port}`)",
                    flush=True,
                )
            history = trainer.fit(source)
            model = trainer.server_model()
            pulls = trainer.pull_stats()
        save_model(args.model_out, model, args.model)
        print(_topology_line(dist))
        print(
            f"GraphTrainer: {args.model} x{args.layers} on {len(source)} samples "
            f"(columnar shards, {dist.num_workers} "
            f"{dist.worker_backend} workers, {dist.transport} transport), "
            f"loss {history[0]['loss']:.4f} -> {history[-1]['loss']:.4f}, "
            f"{pulls['refreshes']}/{pulls['pulls']} pulls refreshed "
            f"({pulls['pull_bytes']} transport bytes), "
            f"model saved to {args.model_out}"
        )
        return 0
    model = build_model(args.model, **kwargs)
    trainer = GraphTrainer(model, trainer_config)
    history = trainer.fit(source)
    save_model(args.model_out, model, args.model)
    prefetch = "inline preprocessing"
    if trainer_config.pipeline:
        prefetch = f"{args.prefetch_backend} x{args.prefetch_workers} prefetch"
    print(
        f"GraphTrainer: {args.model} x{args.layers} on {len(source)} samples "
        f"(columnar shards, {prefetch}), "
        f"loss {history[0]['loss']:.4f} -> {history[-1]['loss']:.4f}, "
        f"model saved to {args.model_out}"
    )
    return 0


def _cmd_describe(args) -> int:
    """Operational tooling: inspect a DFS dataset (GraphFeature samples or
    prediction records) without loading a model."""
    fs = DistFileSystem(args.dfs)
    if not fs.exists(args.dataset):
        print(f"dataset {args.dataset!r} not found; available: {fs.list_datasets()}",
              file=sys.stderr)
        return 1
    # Only the inspected sample is materialized; the count comes from the
    # shard headers (O(num_shards)) instead of a full dataset scan.
    records = list(itertools.islice(fs.read_dataset(args.dataset), args.sample))
    print(f"dataset:  {args.dataset}")
    # Only non-default tasks are recorded, so both legacy datasets and
    # node-classification output render as the default with a marker.
    recorded_task = fs.task(args.dataset)
    print(f"task:     {recorded_task or 'node_classification (default/legacy)'}")
    print(f"shards:   {fs.num_shards(args.dataset)}")
    print(f"records:  {fs.count_records(args.dataset)}")
    print(f"bytes:    {fs.size_bytes(args.dataset)}")
    # The PS topology a `graphtrainer` run over this dataset would use with
    # the same --dist-* flags (validates the combination up front).  With no
    # --dist-workers, training is single-process and uses no PS at all.
    if args.dist_workers >= 1:
        print(_topology_line(_dist_config(args)))
    else:
        print("ps topology: none (single-process; pass --dist-workers N "
              "for a parameter-server run)")
    # The shuffle transport a pipeline run over this DFS would use with the
    # same --shuffle-transport/--hosts flags.
    hosts = args.hosts if args.hosts else "(single host)"
    print(f"transport: shuffle={args.shuffle_transport} hosts={hosts}")
    if not records:
        return 0
    # Dispatch on the recorded kind — decode errors below are real
    # corruption and propagate, never a reason to reclassify the dataset.
    if fs.kind(args.dataset) == "predictions":
        scores = [decode_prediction(r)[1] for r in records]
        dims = {len(s) for s in scores}
        print(f"kind:     predictions (score dims {sorted(dims)})")
        return 0
    samples = decode_samples(records)
    nodes = np.array([s.graph_feature.num_nodes for s in samples])
    edges = np.array([s.graph_feature.num_edges for s in samples])
    print("kind:     GraphFeature samples")
    print(f"neighborhood nodes: mean {nodes.mean():.1f}, max {int(nodes.max())}")
    print(f"neighborhood edges: mean {edges.mean():.1f}, max {int(edges.max())}")
    labels = [s.label for s in samples if s.label is not None]
    if labels and np.ndim(labels[0]) == 0:
        unique, counts = np.unique(np.asarray(labels), return_counts=True)
        dist = ", ".join(f"{int(u)}: {c}" for u, c in zip(unique, counts))
        print(f"label distribution (first {len(labels)}): {dist}")
    elif labels:
        positives = float(np.mean([np.mean(label) for label in labels]))
        print(f"multilabel positive rate: {positives:.3f}")
    else:
        print("labels:   none (inference data)")
    return 0


def _cmd_worker(args) -> int:
    """Join a coordinator's worker hub and train the assigned shards
    (the remote half of ``graphtrainer --dist-remote-workers``)."""
    from repro.transport.worker import run_worker

    host, _, port = args.join.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"error: --join expects HOST:PORT, got {args.join!r}")
    stats = run_worker(
        host, int(port), capacity=args.capacity,
        join_timeout_s=args.join_timeout_s,
    )
    if not stats:
        print("worker: hub already fully subscribed, nothing to do")
        return 0
    for w in sorted(stats):
        s = stats[w]
        print(
            f"worker {w}: {s['refreshes']}/{s['pulls']} pulls refreshed "
            f"({s['pull_bytes']} transport bytes)"
        )
    return 0


def _cmd_graphinfer(args) -> int:
    model = load_model(args.model)
    nodes = read_node_table(args.node_table)
    edges = read_edge_table(args.edge_table)
    config = GraphInferConfig(**_dataflow_kwargs(args))
    candidates = None
    if args.candidates:
        candidates = np.loadtxt(args.candidates, dtype=np.int64, ndmin=2)
    fs = DistFileSystem(args.dfs)
    result = graph_infer(
        model, nodes, edges, config, fs=fs, dataset_name=args.output,
        targets=_load_targets(args), candidates=candidates,
    )
    unit = "candidate edges" if args.task in EDGE_TASKS else "nodes"
    print(
        f"GraphInfer: scored {result.num_nodes} {unit} "
        f"({result.embedding_computations} embedding computations) -> "
        f"{args.dfs}/{args.output}"
    )
    _print_shuffle_summary(result.round_stats, args.shuffle_transport)
    _print_fault_summary(result.round_stats)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli", description="AGL pipelines over TSV tables + local DFS"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    flat = sub.add_parser("graphflat", help="generate k-hop GraphFeatures")
    _add_dataflow(
        flat, GraphFlatConfig, output="graphflat/output",
        targets_help="file with one target node id per line",
        task_help="what a sample targets: a labeled node (default), or a "
        "target edge (link_prediction draws seeded negatives; "
        "edge_classification uses label= columns of the edge table)",
    )
    flat.add_argument("--hops", type=int, default=2)
    flat.add_argument(
        "--edge-targets", type=int, default=None, metavar="N",
        help="edge tasks: cap the number of positive target edges "
        "(deterministic seeded subsample); default keeps all of them",
    )
    flat.add_argument(
        "--negative-ratio", type=int, default=1, metavar="R",
        help="link prediction: negative edges drawn per positive edge",
    )
    flat.set_defaults(func=_cmd_graphflat)

    train = sub.add_parser("graphtrainer", help="train a GNN from GraphFeatures")
    train.add_argument("-m", "--model", choices=sorted(MODEL_REGISTRY), required=True)
    train.add_argument("-i", "--input", required=True, help="DFS dataset of samples")
    train.add_argument("--model-out", required=True, help="file for the trained model")
    train.add_argument("--layers", type=int, default=2)
    train.add_argument("--hidden", type=int, default=16)
    train.add_argument("--heads", type=int, default=4)
    train.add_argument("--epochs", type=int, default=10)
    train.add_argument("--batch-size", type=int, default=32)
    train.add_argument("--lr", type=float, default=0.01)
    train.add_argument(
        "--task",
        choices=["auto", "multiclass", "multilabel", "binary", *EDGE_TASKS],
        default="auto",
        help="training objective; 'auto' reads the task the dataset was "
        "flattened with (edge-level tasks are recorded in its metadata) "
        "and falls back to the label shape for node-level data",
    )
    train.add_argument(
        "--prefetch-workers", type=int, default=1,
        help="minibatch-preprocessing pool size (decode + vectorize)",
    )
    train.add_argument(
        "--prefetch-backend", choices=sorted(BACKEND_REGISTRY), default="serial",
        help="preprocessing pool backend; 'serial' prepares batches inline, "
        "any other overlaps preprocessing with training ('processes' across "
        "cores, batches back through shared-memory slabs)",
    )
    _add_common(train)
    _add_dist(train)
    train.set_defaults(func=_cmd_graphtrainer)

    infer = sub.add_parser("graphinfer", help="segmented-model inference")
    infer.add_argument("-m", "--model", required=True, help="trained model file")
    _add_dataflow(
        infer, GraphInferConfig, output="graphinfer/output",
        targets_help="file of node ids: score only these (pruned pipeline)",
        task_help="node_classification scores every node; edge-level tasks "
        "score candidate edges (--candidates, defaulting to the graph's edges)",
    )
    infer.add_argument(
        "--candidates",
        help="edge tasks: file of candidate edges to score, one "
        "'src<TAB>dst' (or 'src dst') pair per line; default scores the "
        "graph's own edges",
    )
    infer.set_defaults(func=_cmd_graphinfer)

    worker = sub.add_parser(
        "worker", help="join a coordinator's worker hub (remote training)"
    )
    worker.add_argument(
        "--join", required=True, metavar="HOST:PORT",
        help="worker-hub control endpoint printed by the coordinator's "
        "`graphtrainer --dist-remote-workers` run",
    )
    worker.add_argument(
        "--capacity", type=int, default=1,
        help="worker ids to claim from the hub (one trainer thread each)",
    )
    worker.add_argument(
        "--join-timeout", dest="join_timeout_s", type=float, default=60.0,
        metavar="SECONDS",
        help="how long to keep retrying the hub endpoint before giving up",
    )
    worker.set_defaults(func=_cmd_worker)

    describe = sub.add_parser("describe", help="inspect a DFS dataset")
    describe.add_argument("dataset", help="dataset name under the DFS root")
    describe.add_argument("--sample", type=int, default=256,
                          help="records to decode for statistics")
    _add_common(describe)
    _add_shuffle_transport(describe)
    _add_dist(describe)
    describe.set_defaults(func=_cmd_describe)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
