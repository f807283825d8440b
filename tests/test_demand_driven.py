"""Demand-driven GraphFlat: receptive-field-pruned propagation and
``SubgraphInfo`` records as ragged columns.

The oracle is knob-free: ``graph_flat(..., targets=None)`` never prunes (its
``ReceptiveField`` has no distances), so a *targeted* run's sample for target
``t`` must be byte-identical to the same ``t`` cut out of the untargeted run —
whatever the hop count, hub re-indexing, sampler, backend, spill or task.  The shuffle counters then show the point of the exercise: fewer
records and bytes for sparse targets, exactly the ungated counts without
targets, and a pinned budget so a regression fails as loudly as a
byte-identity break does.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.graphflat import GraphFlatConfig, graph_flat
from repro.core.graphflat import records
from repro.core.graphflat.pipeline import MergeReducer
from repro.core.graphflat.records import InEdgeInfo, SubgraphInfo
from repro.core.graphflat.sampling import make_sampler
from repro.core.infer import GraphInferConfig, graph_infer
from repro.core.infer.pipeline import _InEmb
from repro.core.propagation import (
    MessagePassingReducer,
    OutEdges,
    PartialReducer,
    ReceptiveField,
    Routing,
    distance_to_targets,
)
from repro.datasets import uug_like, write_edge_table, write_node_table
from repro.graph.subgraph import GraphFeature
from repro.graph.tables import EdgeTable, NodeTable
from repro.mapreduce import LocalRuntime
from repro.mapreduce.partition import Inline
from repro.mapreduce.shuffle import Segment
from repro.nn.gnn import GraphSAGEModel
from repro.proto.codec import decode_sample, encode_sample
from repro.proto.framing import (
    _RECORDS_BY_CLS,
    FrameCorruptionError,
    RaggedColumn,
    columnize,
    decode_columns,
    decode_value,
    encode_block,
    encode_value,
)
from repro.tasks import make_task

from .helpers import column_segment, segment_of
from .oracle import DictSubgraph, assert_same_subgraph, oracle_merge, random_subgraph

HUB_THRESHOLD = {"reindex": 8, "plain": 10**9}
NO_OUT_EDGES = Inline(OutEdges.of(EdgeTable(np.zeros(0, np.int64), np.zeros(0, np.int64))))


@pytest.fixture(scope="module")
def graph():
    """~120-node power-law graph with two hubs (in-degree 30), plus three
    nodes no edge touches — targets that nothing can reach and that reach
    nothing must still come out as their 0-hop sample."""
    ds = uug_like(
        seed=5, num_nodes=120, avg_degree=4, feature_dim=6, num_hubs=2, hub_degree=30
    )
    isolated = np.arange(3) + int(ds.nodes.ids.max()) + 1
    nodes = NodeTable(
        np.concatenate([ds.nodes.ids, isolated]),
        np.concatenate([ds.nodes.features, np.ones((3, 6), np.float32)]),
        np.concatenate([ds.nodes.labels, np.zeros(3, ds.nodes.labels.dtype)]),
    )
    edges = ds.edges.coalesce()
    no_in_edges = sorted(set(ds.nodes.ids.tolist()) - set(edges.dst.tolist()))
    assert no_in_edges, "fixture needs sources that are nobody's destination"
    targets = np.concatenate([ds.train_ids[:20], isolated[:2], no_in_edges[:2]])
    return nodes, edges, targets.astype(np.int64)


def flat_config(mode="reindex", **overrides):
    base = dict(
        hops=2, max_neighbors=4, hub_threshold=HUB_THRESHOLD[mode],
        num_reducers=4, seed=0,
    )
    base.update(overrides)
    return GraphFlatConfig(**base)


def sample_id(record: bytes) -> int:
    return decode_sample(record)[0]


_UNTARGETED: dict[tuple, list[bytes]] = {}


def untargeted(graph, mode, **overrides) -> list[bytes]:
    """The oracle run (serial, in memory), once per configuration."""
    key = (mode, *sorted(overrides.items()))
    if key not in _UNTARGETED:
        nodes, edges, _ = graph
        _UNTARGETED[key] = graph_flat(
            nodes, edges, None, flat_config(mode, **overrides)
        ).samples
    return _UNTARGETED[key]


def cut_out(samples: list[bytes], targets) -> list[bytes]:
    wanted = {int(t) for t in targets}
    return [record for record in samples if sample_id(record) in wanted]


class TestTargetedEqualsUntargetedCut:
    @pytest.mark.parametrize("sampling", ["uniform", "weighted", "topk"])
    @pytest.mark.parametrize("mode", ["reindex", "plain"])
    @pytest.mark.parametrize("hops", [1, 2, 3])
    def test_node_samples(self, graph, hops, mode, sampling):
        nodes, edges, targets = graph
        knobs = dict(hops=hops, sampling=sampling)
        result = graph_flat(nodes, edges, targets, flat_config(mode, **knobs))
        assert bool(result.hub_nodes) == (mode == "reindex")
        assert len(result.samples) == len(targets)
        # order included: both runs are partition-major under the same hash
        assert result.samples == cut_out(untargeted(graph, mode, **knobs), targets)

    @pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
    @pytest.mark.parametrize("hops", [2, 3])
    def test_node_samples_through_the_spill(self, graph, tmp_path, hops, backend):
        nodes, edges, targets = graph
        with LocalRuntime(
            backend=backend, max_workers=2, spill_dir=tmp_path,
            # tiny runs: every writer flushes several, so the k-way merge
            # re-assembles groups from runs whose boundaries pruning moved
            spill_run_records=16,
        ) as runtime:
            result = graph_flat(
                nodes, edges, targets, flat_config(hops=hops), runtime
            )
        assert result.samples == cut_out(untargeted(graph, "reindex", hops=hops), targets)

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    @pytest.mark.parametrize("mode", ["reindex", "plain"])
    @pytest.mark.parametrize("hops", [1, 2])
    def test_link_prediction_samples(self, graph, tmp_path, hops, mode, backend):
        """Edge tasks have no untargeted form (their endpoints *are* the
        targets), so the oracle is rebuilt from the untargeted node run:
        sample ``i`` joins the two endpoint neighborhoods exactly as the
        pairing round does."""
        nodes, edges, _ = graph
        knobs = dict(task="link_prediction", edge_targets=15, hops=hops)
        spill = {} if backend == "serial" else dict(spill_dir=tmp_path)
        with LocalRuntime(backend=backend, max_workers=2, **spill) as runtime:
            result = graph_flat(
                nodes, edges, config=flat_config(mode, **knobs), runtime=runtime
            )
        table = make_task("link_prediction").build_edge_targets(
            nodes, edges, seed=0, max_targets=15, negative_ratio=1
        )
        neighborhood = {
            sample_id(r): decode_sample(r)[2]
            for r in untargeted(graph, mode, hops=hops)
        }
        expected = {}
        for i, (s, d) in enumerate(zip(table.src.tolist(), table.dst.tolist())):
            joined = oracle_merge([neighborhood[s], neighborhood[d]])
            pair = GraphFeature(
                np.asarray([s, d], dtype=np.int64), joined.node_ids, joined.x,
                joined.hops, joined.edge_src, joined.edge_dst, joined.edge_feat,
                joined.edge_weight,
            )
            expected[i] = encode_sample(i, int(table.labels[i]), pair)
        assert {sample_id(r): r for r in result.samples} == expected

    def test_isolated_and_sourceless_targets_emit_their_zero_hop_sample(self, graph):
        nodes, edges, targets = graph
        result = graph_flat(nodes, edges, targets[-4:], flat_config())
        decoded = {sample_id(r): decode_sample(r)[2] for r in result.samples}
        assert sorted(decoded) == sorted(targets[-4:].tolist())
        for node_id, gf in decoded.items():
            assert gf.node_ids.tolist() == [node_id] and gf.num_edges == 0


# ------------------------------------------------------------------ counters
def shuffle_totals(result) -> tuple[int, int]:
    return (
        sum(s.shuffled_records for s in result.round_stats),
        sum(s.shuffle_bytes_written for s in result.round_stats),
    )


class TestShuffleVolume:
    def test_sparse_targets_shuffle_strictly_less(self, graph, tmp_path):
        nodes, edges, targets = graph
        with LocalRuntime(spill_dir=tmp_path) as runtime:
            full = graph_flat(nodes, edges, None, flat_config(), runtime)
            sparse = graph_flat(nodes, edges, targets[:5], flat_config(), runtime)
        full_records, full_bytes = shuffle_totals(full)
        records, nbytes = shuffle_totals(sparse)
        assert 0 < records < full_records and 0 < nbytes < full_bytes
        # same job structure: pruning empties groups, never rounds or tasks
        assert [s.job for s in sparse.round_stats] == [s.job for s in full.round_stats]

    @pytest.mark.parametrize("hops", [1, 2, 3])
    def test_without_targets_the_gate_is_a_no_op(self, graph, hops):
        """Ungated record count, from first principles: the Map input is
        one row per node (the out-edges are a side input, never shuffled);
        every round then carries one self record per node and one in-record
        per edge (hub re-indexing off: no extra rounds).  With out-edges
        shipped as records this was ``(n + e) + hops * (n + senders + e)``."""
        nodes, edges, _ = graph
        result = graph_flat(nodes, edges, None, flat_config("plain", hops=hops))
        n, e = len(nodes), len(edges.src)
        records, _ = shuffle_totals(result)
        assert records == n + hops * (n + e)
        assert result.receptive_nodes == (n, n)
        assert result.propagations == (hops * e, hops * e)

    def test_result_counts_match_a_brute_force_walk(self, graph):
        nodes, edges, targets = graph
        hops = 3
        result = graph_flat(nodes, edges, targets[:6], flat_config(hops=hops))
        dist = distance_to_targets(edges, {int(t) for t in targets[:6]}, hops)
        sent = sum(
            1
            for k in range(1, hops + 1)
            for w in edges.dst.tolist()
            if dist.get(w, hops + 1) <= hops - k
        )
        assert result.receptive_nodes == (len(dist), len(nodes))
        assert result.propagations == (sent, hops * len(edges.dst))
        assert 0 < sent < hops * len(edges.dst)

    def test_shuffle_budget(self, tmp_path):
        """The deterministic perf budget: counts, not timings, so it cannot
        flake.  uug_like(seed=11) with 25 % of the nodes as targets, two
        hops, re-indexed hubs, binary spill: without the receptive-field
        gate this shuffled 16 966 records / 5 543 138 bytes; with it,
        11 413 / 2 012 373 while every record still took the re-index
        rounds, 8 235 / 1 263 305 once only hub slices did, 7 093 /
        1 240 338 without the in-degree MapReduce job, and 4 142 /
        1 158 318 once out-edges stopped crossing the shuffle."""
        ds = uug_like(
            seed=11, num_nodes=400, avg_degree=6, feature_dim=16, num_hubs=3,
            hub_degree=60,
        )
        targets = np.sort(ds.nodes.ids)[::4]
        with LocalRuntime(spill_dir=tmp_path) as runtime:
            result = graph_flat(
                ds.nodes, ds.edges, targets,
                GraphFlatConfig(
                    hops=2, max_neighbors=8, hub_threshold=40, num_reducers=4, seed=0
                ),
                runtime,
            )
        assert result.hub_nodes and result.num_targets == 100
        records = sum(s.shuffled_records for s in result.round_stats)
        nbytes = sum(s.shuffle_bytes_written for s in result.round_stats)
        assert records <= 4_150, records
        assert nbytes <= 1_160_000, nbytes


class TestBatchedMerge:
    """The merge rounds' mechanism, pinned on the budget fixture above: a
    reduce task merges its nodes a batch at a time in one kernel call and
    still writes exactly the rows a node-at-a-time merge wrote.  The volumes
    are the ones recorded before the kernel (on the commit whose merge built
    per-node dicts; its in-degree MapReduce round is gone and not listed),
    less the out-edge records, which stopped crossing the shuffle: the Map
    input went from 3 038 rows (400 nodes + 2 638 edges) to the 400 node
    rows, ``reduce1``'s input lost the 313 out-lists the Map round sent it,
    and the Map round's writes shrank by those out-lists' bytes.  The
    rounds after ``reduce1`` never received out-lists on this fixture (its
    targets' receptive field trimmed them), so they are unchanged.

    The spilled bytes were re-recorded when chunks grew from 16 to 128 KiB
    (``spill._CHUNK_BYTES``): the 23 run files larger than 16 KiB became one
    frame each, so they carry fewer frame headers and key tables —
    ``graphflat-map`` 405 239 / 86 311, ``reduce1`` 562 265 / 127 798 and
    ``reduce2-reindex`` 124 640 / 33 635 before.  No record moved.

    They were re-recorded again when neighborhoods became ragged columns
    (run files of version 4): a chunk's neighborhoods are one block, ints
    narrowed once per chunk, with no per-record header, width code, row
    block header or byte length.  Before: ``graphflat-map`` 404 430 /
    86 081, ``reduce1-reindex`` 66 174 / 16 856, ``reduce1`` 561 371 /
    127 537 and ``reduce2-reindex`` 124 550 / 33 590.  No record moved."""

    ROUNDS = {  # job: (shuffled_records, shuffle_bytes_written, peak_reducer_buffer_bytes)
        "graphflat-map": (400, 304_401, 62_649),
        "graphflat-reduce1-reindex": (555, 48_406, 12_329),
        "graphflat-reduce1": (2_320, 518_627, 118_008),
        "graphflat-reduce2-reindex": (210, 114_785, 30_846),
        "graphflat-reduce2": (657, 0, 0),
    }

    @staticmethod
    def run(runtime):
        ds = uug_like(
            seed=11, num_nodes=400, avg_degree=6, feature_dim=16, num_hubs=3,
            hub_degree=60,
        )
        config = GraphFlatConfig(
            hops=2, max_neighbors=8, hub_threshold=40, num_reducers=4, seed=0
        )
        return graph_flat(ds.nodes, ds.edges, np.sort(ds.nodes.ids)[::4], config, runtime)

    def test_every_round_moves_what_the_per_node_merge_moved(self, tmp_path):
        with LocalRuntime(spill_dir=tmp_path) as runtime:
            result = self.run(runtime)
        volumes = {
            s.job: (s.shuffled_records, s.shuffle_bytes_written, s.peak_reducer_buffer_bytes)
            for s in result.round_stats
        }
        assert volumes == self.ROUNDS

    def test_chunk_frames_and_crcs_are_one_per_run_file(self, tmp_path, monkeypatch):
        """The spill's frame budget on this fixture, so the chunk cannot
        silently shrink back.  Its five shuffles write 4 + 16 + 32 + 16 + 28
        = 96 run files, the largest 44 020 bytes: each fits one
        ``_CHUNK_BYTES`` (128 KiB) chunk, so each is one frame.  The merge
        reads each frame once and each file to its end once, and every frame
        costs 2 ``zlib.crc32`` calls written (key table, then block) and 2
        read: 96 frames written, 96 read, 96 end-of-file reads and
        4 x 96 = 384 CRC calls.  At 16 KiB the 23 files larger than a chunk
        took 136 frames (544 CRC calls)."""
        import types

        from repro.mapreduce import spill
        from repro.proto import framing

        counts = {"written": 0, "read": 0, "ends": 0, "crc32": 0}
        write_frame, read_frame, crc32 = spill.write_frame, framing.read_frame, framing.zlib.crc32

        def counted_write(fh, key, payload):
            counts["written"] += 1
            return write_frame(fh, key, payload)

        def counted_read(fh):
            frame = read_frame(fh)
            counts["read" if frame is not None else "ends"] += 1
            return frame

        def counted_crc32(*args):
            counts["crc32"] += 1
            return crc32(*args)

        monkeypatch.setattr(spill, "write_frame", counted_write)
        monkeypatch.setattr(framing, "read_frame", counted_read)
        monkeypatch.setattr(framing, "zlib", types.SimpleNamespace(crc32=counted_crc32))
        with LocalRuntime(spill_dir=tmp_path) as runtime:
            self.run(runtime)
        assert counts == {"written": 96, "read": 96, "ends": 96, "crc32": 384}

    def test_runs_over_several_chunks_merge_to_the_same_samples(self, tmp_path, monkeypatch):
        """The engine's merge across chunk boundaries, which the shipped
        chunk no longer reaches on this fixture: cut at 16 KiB, the run
        files larger than that take 145 frames for 96 files, and the
        samples are the same bytes as from one frame a file.  (136 when a
        neighborhood was sized by its encoded blob: the writer now sizes it
        by its columns in memory, int64 ids and hops included, so 16 KiB
        chunks are cut a little sooner.)"""
        from repro.mapreduce import spill

        with LocalRuntime(spill_dir=tmp_path / "shipped") as runtime:
            shipped = self.run(runtime)
        frames, write_frame = [0], spill.write_frame

        def counted_write(fh, key, payload):
            frames[0] += 1
            return write_frame(fh, key, payload)

        monkeypatch.setattr(spill, "_CHUNK_BYTES", 1 << 14)
        monkeypatch.setattr(spill, "write_frame", counted_write)
        with LocalRuntime(spill_dir=tmp_path / "small") as runtime:
            small = self.run(runtime)
        assert len(shipped.samples) == 100
        assert small.samples == shipped.samples
        assert frames[0] == 145
        assert [s.shuffled_records for s in small.round_stats] == [
            records for records, _, _ in self.ROUNDS.values()
        ]

    def test_keys_are_read_as_arrays_and_no_group_is_built(self, tmp_path, monkeypatch):
        """The reduce side's mechanism on this fixture.  The per-group
        reader before segments built a ``Group`` per reduce group (949 on
        this run), decoded every key on its own (949 ``decode_key`` calls,
        112 of them hub slices) and handed each node to a
        ``_Gathering.add`` call (549): that reader fails this test.  Now the
        twenty reduce tasks read their partitions in 40 segments, the plain
        int keys come from the key tables in array passes, and only the hub
        slices' tuple keys are decoded one at a time."""
        from repro.mapreduce import shuffle, spill

        calls = {"int": 0, "other": 0}
        decode = shuffle.decode_key

        def counted(data):
            calls["int" if data[:1] == b"i" else "other"] += 1
            return decode(data)

        windows, segment = [0], spill._Window.segment

        def counted_segment(self, count):
            windows[0] += 1
            return segment(self, count)

        monkeypatch.setattr(shuffle, "decode_key", counted)
        monkeypatch.setattr(spill, "decode_key", counted)
        monkeypatch.setattr(spill._Window, "segment", counted_segment)
        with LocalRuntime(spill_dir=tmp_path) as runtime:
            result = self.run(runtime)
        assert not hasattr(shuffle, "Group")
        assert calls["int"] == 0 and calls["other"] <= 112, calls
        assert windows[0] == 40, windows  # one segment per merge window, 949 groups
        volumes = {
            s.job: (s.shuffled_records, s.shuffle_bytes_written, s.peak_reducer_buffer_bytes)
            for s in result.round_stats
        }
        assert volumes == self.ROUNDS

    @pytest.mark.parametrize("spill", [False, True], ids=["memory", "spilled"])
    def test_one_kernel_call_per_reduce_task(self, tmp_path, monkeypatch, spill):
        """At this size a merge task's whole partition fits one batch: one
        kernel call per (round, task), never one per node."""
        from repro.mapreduce import runtime as runtime_module

        calls, task = {}, [None]
        run_task, merge_batch = runtime_module._run_task, MergeReducer.merge_batch

        def watched_task(fn, source, sink, task_index):
            task[0] = (getattr(fn, "round_index", None), task_index)
            return run_task(fn, source, sink, task_index)

        def counted_merge(self, batch):
            calls.setdefault(task[0], []).append(len(batch))
            return merge_batch(self, batch)

        monkeypatch.setattr(runtime_module, "_run_task", watched_task)
        monkeypatch.setattr(MergeReducer, "merge_batch", counted_merge)
        spill_dir = tmp_path if spill else None
        with LocalRuntime(spill_dir=spill_dir) as runtime:
            self.run(runtime)
        assert calls == {
            (1, 0): [78], (1, 1): [88], (1, 2): [91], (1, 3): [80],
            (2, 0): [24], (2, 1): [24], (2, 2): [21], (2, 3): [31],
        }

    def test_an_in_memory_run_encodes_no_neighborhood(self, monkeypatch):
        """Serial and in memory nothing is spilled, so no neighborhood
        block is ever encoded — not even to size one.  (When each
        neighborhood had a wire blob, this run built 492 of them, only for
        the sizes a spill writer would have budgeted with.)"""
        calls = [0]
        encode = RaggedColumn._encode

        def counted(self, out):
            calls[0] += 1
            return encode(self, out)

        monkeypatch.setattr(RaggedColumn, "_encode", counted)
        with LocalRuntime() as runtime:
            result = self.run(runtime)
        assert len(result.samples) == 100
        assert calls[0] == 0

    EVENTS_PER_UNIT = 90
    """``call`` events in the codec and the merge kernel per unit of
    batches and frames (see below): 69 on this fixture when it was set."""

    def test_codec_and_merge_calls_grow_with_batches_and_frames(self, tmp_path):
        """The spilled run's Python-level work in ``core/graphflat/records.py``
        and ``proto/framing.py`` — the interpreter's ``call`` events there —
        is bounded by :data:`EVENTS_PER_UNIT` times the batches the
        reducers emit plus the frames written and read (a ``read_frame``
        per frame and per file end): a few calls per column of a batch or
        chunk, none per record.  Here: 20 batches, 96 frames written, 192
        reads, 21 307 events.  When each neighborhood crossed the shuffle
        as its own wire blob, the same run made 35 082 (114 a unit): a
        ``from_wire``, ``_layout`` and ``_RowTemplate.raw`` per decoded
        neighborhood, a ``_build_wire`` and ``info_nbytes`` per encoded one
        and a ``seed`` per node."""
        import sys

        counts = {"events": 0, "batches": 0, "frames": 0}

        def profile(frame, event, arg):
            if event != "call":
                return
            code = frame.f_code
            if code.co_filename.endswith(("graphflat/records.py", "proto/framing.py")):
                counts["events"] += 1
                counts["frames"] += code.co_name in ("write_frame", "read_frame")
            elif code.co_name == "_emit" and code.co_filename.endswith("core/propagation.py"):
                counts["batches"] += 1

        with LocalRuntime(spill_dir=tmp_path) as runtime:
            sys.setprofile(profile)
            try:
                result = self.run(runtime)
            finally:
                sys.setprofile(None)
        assert len(result.samples) == 100
        assert counts["frames"] == 96 + 192 and counts["batches"] > 10
        units = counts["batches"] + counts["frames"]
        assert counts["events"] <= self.EVENTS_PER_UNIT * units, counts

    def test_a_reduce_task_holds_one_batch_not_its_partition(self):
        """Batches are cut at ``MERGE_BATCH_BYTES`` of input and emitted
        before the next is read: a task over 8x the groups makes about 8x
        the kernel calls and holds about the same memory."""
        import tracemalloc

        from repro.mapreduce.runtime import _run_task
        from repro.mapreduce.spill import MERGE_BATCH_BYTES

        rng = np.random.default_rng(0)
        neighbors = decode_columns(encode_block([  # rows of a spilled chunk
            make_subgraph(rng, num_nodes=20, num_edges=30, dim=64, edge_feat="none")
            for _ in range(16)
        ])).rows()
        # at most: every group holds a seed and 4 of these, sized by columns
        group_bytes = 4 * min(info.nbytes for info in neighbors)

        class Groups:
            def __init__(self, count):
                self.count = count

            def segments(self):
                for node_id in range(self.count):
                    own = SubgraphInfo.seed(10_000 + node_id, np.zeros(64, np.float32))
                    picks = rng.choice(len(neighbors), size=4, replace=False).tolist()
                    yield segment_of([(node_id, [("self", own)] + [
                        ("in", InEdgeInfo(neighbors[i].root, 1.0, None, neighbors[i]))
                        for i in picks
                    ])])

        class Discard:
            def store(self, task_index, batches):
                return sum(len(batch) for batch in batches)

        routing = Routing(frozenset(), 4, ReceptiveField(None, 2), InEdgeInfo, NO_OUT_EDGES)
        reducer = MergeReducer(make_sampler("uniform", 8, seed=0), 2, 2, routing)
        batches_of = -(-MERGE_BATCH_BYTES // group_bytes)  # groups per batch, about
        peaks, calls = {}, {}
        merge_batch = MergeReducer.merge_batch
        for count in (2 * batches_of, 16 * batches_of):
            calls[count] = 0

            def counted(self, batch, count=count):
                calls[count] += 1
                return merge_batch(self, batch)

            MergeReducer.merge_batch = counted
            try:
                tracemalloc.start()
                stored, produced, groups, _ = _run_task(reducer, Groups(count), Discard(), 0)
                peaks[count] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                MergeReducer.merge_batch = merge_batch
            assert stored == produced == groups == count
        small, large = sorted(peaks)
        assert calls[large] > 4 * calls[small] > 8, calls
        assert peaks[large] < 1.5 * peaks[small], peaks
        assert peaks[small] > MERGE_BATCH_BYTES  # a batch really is held


class TestWindowInvariance:
    """The merged reader cuts a partition into windows wherever its runs'
    chunks end, so where it cuts must not show: with chunks of a few
    hundred bytes each partition is read in many windows, and GraphFlat's
    samples and GraphInfer's scores are still the bytes of the serial
    in-memory run — re-indexed hubs included — under every sampler.  Under
    ``processes`` the patched chunk size reaches the parent only (it spills
    the Map input; pool workers write with the shipped one), so the
    workers' output is cut into runs of a few records as well."""

    CHUNK_BYTES = 300

    def small_chunks(self, monkeypatch) -> list[int]:
        """Shrink the chunks; returns the count of segments read
        in-process, as it grows."""
        from repro.mapreduce import spill

        monkeypatch.setattr(spill, "_CHUNK_BYTES", self.CHUNK_BYTES)
        windows, segment = [0], spill._Window.segment

        def counted(self, count):
            windows[0] += 1
            return segment(self, count)

        monkeypatch.setattr(spill._Window, "segment", counted)
        return windows

    @staticmethod
    def runtime(backend: str, tmp_path) -> LocalRuntime:
        if backend == "serial":
            return LocalRuntime(spill_dir=tmp_path)
        return LocalRuntime(
            backend="processes", max_workers=2, spill_dir=tmp_path, spill_run_records=16
        )

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    @pytest.mark.parametrize("sampling", ["uniform", "weighted", "topk"])
    def test_graph_flat(self, graph, tmp_path, monkeypatch, sampling, backend):
        nodes, edges, targets = graph
        config = flat_config(sampling=sampling)
        expected = graph_flat(nodes, edges, targets, config).samples
        windows = self.small_chunks(monkeypatch)
        with self.runtime(backend, tmp_path) as runtime:
            result = graph_flat(nodes, edges, targets, config, runtime)
        assert result.hub_nodes and result.samples == expected
        if backend == "serial":  # 20 reduce tasks, each over many windows
            assert windows[0] > 10 * 20, windows

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    @pytest.mark.parametrize("sampling", ["uniform", "weighted", "topk"])
    def test_graph_infer(self, graph, tmp_path, monkeypatch, sampling, backend):
        nodes, edges, _ = graph
        model = GraphSAGEModel(6, 8, 2, num_layers=2, seed=0)
        config = GraphInferConfig(
            sampling=sampling, max_neighbors=4, hub_threshold=HUB_THRESHOLD["reindex"],
            num_reducers=4, seed=0,
        )
        expected = graph_infer(model, nodes, edges, config).scores
        windows = self.small_chunks(monkeypatch)
        with self.runtime(backend, tmp_path) as runtime:
            scores = graph_infer(model, nodes, edges, config, runtime).scores
        assert {k: v.tobytes() for k, v in scores.items()} == {
            k: v.tobytes() for k, v in expected.items()
        }
        if backend == "serial":
            assert windows[0] > 10 * 20, windows


class TestOnlyHubSlicesTakeTheExtraShuffle:
    """Hub re-indexing is a side stage: a re-index round shuffles exactly
    the in-edge records of the hubs that merge that hop — every other record
    goes straight to the merge round — so load balancing the hubs costs at
    most a few percent more shuffled records than not re-indexing at all
    (a re-index round that took every record cost +40 % on this fixture)."""

    @pytest.fixture(scope="class")
    def fixture(self):
        ds = uug_like(
            seed=11, num_nodes=400, avg_degree=6, feature_dim=16, num_hubs=3,
            hub_degree=60,
        )
        dst, in_degree = np.unique(ds.edges.coalesce().dst, return_counts=True)
        return ds, dict(zip(dst.tolist(), in_degree.tolist()))

    @staticmethod
    def check(fixture, tmp_path, run, targets, hops):
        ds, in_degree = fixture
        by_threshold = {}
        for threshold in (40, 10**9):
            with LocalRuntime(spill_dir=tmp_path) as runtime:
                by_threshold[threshold] = run(ds, threshold, runtime).round_stats
        hubs = {node for node, degree in in_degree.items() if degree > 40}
        assert len(hubs) >= 3
        needed = ReceptiveField.of(ds.nodes, ds.edges.coalesce(), targets, hops)
        reindexed = {s.job.split("-", 1)[1]: s for s in by_threshold[40]}
        for hop in range(1, hops + 1):
            expected = sum(in_degree[hub] for hub in hubs if needed(hub, hop))
            assert expected > 0
            assert reindexed[f"reduce{hop}-reindex"].shuffled_records == expected
        records = {
            threshold: sum(s.shuffled_records for s in stats)
            for threshold, stats in by_threshold.items()
        }
        assert records[10**9] < records[40] <= 1.10 * records[10**9], records

    @pytest.mark.parametrize("targeted", [False, True], ids=["whole-graph", "targets"])
    def test_graph_infer(self, fixture, tmp_path, targeted):
        targets = np.sort(fixture[0].nodes.ids)[::4] if targeted else None
        model = GraphSAGEModel(16, 16, 2, num_layers=2, seed=0)

        def run(ds, threshold, runtime):
            config = GraphInferConfig(
                max_neighbors=8, hub_threshold=threshold, num_reducers=4, seed=0
            )
            return graph_infer(model, ds.nodes, ds.edges, config, runtime, targets=targets)

        self.check(fixture, tmp_path, run, targets, hops=2)

    @pytest.mark.parametrize("hops", [2, 3])
    def test_graph_flat(self, fixture, tmp_path, hops):
        targets = np.sort(fixture[0].nodes.ids)[::4]

        def run(ds, threshold, runtime):
            config = GraphFlatConfig(
                hops=hops, max_neighbors=8, hub_threshold=threshold, num_reducers=4,
                seed=0,
            )
            return graph_flat(ds.nodes, ds.edges, targets, config, runtime)

        self.check(fixture, tmp_path, run, targets, hops)


class TestGraphInferInheritsTheGates:
    """GraphInfer emits through the same ``Routing.propagate`` as GraphFlat,
    so targeted inference (node ``targets`` or link-prediction
    ``candidates``) stops shipping ``self`` records into rounds that never
    read them, and no run ships out-edges at all (they are the engine's side
    input).  Same fixture as GraphFlat's budget above; before the pipelines
    shared one engine the targeted run shuffled 11 799 records / 979 803
    bytes and the candidate run 11 737 / 988 631; with every record passing
    through the re-index rounds it was 10 371 / 767 233 and 10 261 /
    771 348; with out-edge records 7 193 / 497 360 and 7 274 / 519 783."""

    @pytest.fixture(scope="class")
    def setup(self):
        ds = uug_like(
            seed=11, num_nodes=400, avg_degree=6, feature_dim=16, num_hubs=3,
            hub_degree=60,
        )
        model = GraphSAGEModel(16, 16, 2, num_layers=2, seed=0)
        knobs = dict(max_neighbors=8, hub_threshold=40, num_reducers=4, seed=0)
        return ds, model, knobs

    @staticmethod
    def run(setup, tmp_path, monkeypatch, task="node_classification", **kwargs):
        """``(result, tags seen by each embedding round)`` through the
        binary spill."""
        ds, model, knobs = setup
        seen: dict[int, set] = {}
        merge_round = MessagePassingReducer.reduce_segments

        def spy(self, segments):
            def watched():
                for segment in segments:
                    tags = seen.setdefault(self.round_index, set())
                    tags.update(segment.values().children[0].rows())
                    yield segment

            return merge_round(self, watched())

        monkeypatch.setattr(MessagePassingReducer, "reduce_segments", spy)
        with LocalRuntime(spill_dir=tmp_path) as runtime:
            result = graph_infer(
                model, ds.nodes, ds.edges, GraphInferConfig(task=task, **knobs),
                runtime, **kwargs,
            )
        return result, seen

    @staticmethod
    def volume(result) -> tuple[int, int]:
        return (
            sum(s.shuffled_records for s in result.round_stats),
            sum(s.shuffle_bytes_written for s in result.round_stats),
        )

    def test_whole_graph_volume_is_unchanged_to_the_byte(
        self, setup, tmp_path, monkeypatch
    ):
        """No targets, no gate: every node's self / in records once per
        round, plus one extra hop for the hub in-edge records only (a
        re-index round that took every record shuffled 16 224 / 1 373 662).

        With out-edge records this was 10 466 / 834 670: the Map input held
        the 2 638 edge rows besides the 400 node rows, ``reduce1`` and
        ``reduce2`` each received 396 out-lists (``reduce2`` only because
        the untargeted receptive field answered "needed" for round K + 1),
        and a ``predict`` round re-shuffled the 400 final embeddings only to
        apply the head, which the Kth round now does itself:
        10 466 - 2 638 - 2 * 396 - 400 = 6 636.  The bytes were 643 273
        with 16 KiB chunks; 128 KiB chunks carry fewer frame headers and
        key tables.  Run files of version 4 (neighborhoods as ragged
        columns) left these bytes as they were: GraphInfer ships
        embeddings, never a neighborhood."""
        result, seen = self.run(setup, tmp_path, monkeypatch)
        assert self.volume(result) == (6_636, 642_171)
        assert [s.job for s in result.round_stats][-1] == "graphinfer-reduce2"
        assert seen[2] == {"self", "in", "partial"}

    def test_node_targets(self, setup, tmp_path, monkeypatch):
        ds = setup[0]
        targets = np.sort(ds.nodes.ids)[::4]
        full, _ = self.run(setup, tmp_path, monkeypatch)
        subset, seen = self.run(setup, tmp_path, monkeypatch, targets=targets)
        assert sorted(subset.scores) == targets.tolist()
        for t in targets.tolist():
            assert np.array_equal(subset.scores[t], full.scores[t])
        # out-edges never cross the shuffle
        assert seen[1] | seen[2] <= {"self", "in", "partial"}
        records, nbytes = self.volume(subset)
        assert records <= 4_150 < 7_193, records
        assert nbytes <= 410_000 < 497_360, nbytes

    def test_link_prediction_candidates(self, setup, tmp_path, monkeypatch):
        ds = setup[0]
        edges = ds.edges.coalesce()
        candidates = np.stack([edges.src[:50], edges.dst[:50]], axis=1)
        lp = dict(task="link_prediction")
        full, _ = self.run(setup, tmp_path, monkeypatch, **lp)  # every edge
        subset, seen = self.run(
            setup, tmp_path, monkeypatch, candidates=candidates, **lp
        )
        assert sorted(subset.scores) == list(range(50))
        for i in range(50):
            assert np.array_equal(subset.scores[i], full.scores[i])
        assert seen[1] | seen[2] <= {"self", "in", "partial"}
        records, nbytes = self.volume(subset)
        assert records <= 4_300 < 7_274, records
        assert nbytes <= 440_000 < 519_783, nbytes


def budget_fixture():
    return uug_like(
        seed=11, num_nodes=400, avg_degree=6, feature_dim=16, num_hubs=3,
        hub_degree=60,
    )


def run_budget_infer(runtime):
    ds = budget_fixture()
    return graph_infer(
        GraphSAGEModel(16, 16, 2, num_layers=2, seed=0), ds.nodes, ds.edges,
        GraphInferConfig(max_neighbors=8, hub_threshold=40, num_reducers=4, seed=0),
        runtime,
    )


def run_budget_flat(runtime):
    ds = budget_fixture()
    return graph_flat(
        ds.nodes, ds.edges, np.sort(ds.nodes.ids)[::4],
        GraphFlatConfig(hops=2, max_neighbors=8, hub_threshold=40, num_reducers=4, seed=0),
        runtime,
    )


@pytest.fixture()
def write_side_counts(monkeypatch):
    """Counters on the shuffle's write side, spilled or not:

    * ``codec`` — the per-value codec (``proto.framing._encode`` /
      ``_decode`` and the varint functions as the value codec and
      ``write_frame`` call them);
    * ``keys_encoded`` — keys given canonical bytes: top-level
      ``key_bytes`` calls plus the rows of each vectorised
      ``int_key_rows`` pass; ``key_varints`` — the per-key varints
      ``key_bytes`` writes (tuple keys' elements);
    * ``sized`` — ``approx_nbytes`` walks (the pair adapter's);
    * ``group_runs`` — groups per flushed run; ``adds`` / ``rows`` — batch
      writer entries and the rows they carried;
    * ``records_built`` — in-edge record objects (``InEdgeInfo`` /
      GraphInfer's embedding record) constructed anywhere, the read side's
      per-record objects included."""
    from repro.mapreduce import runtime, shuffle, spill
    from repro.proto import framing

    counts = dict.fromkeys(
        ("codec", "keys_encoded", "key_varints", "sized", "group_runs", "adds", "rows",
         "records_built"),
        0,
    )

    def counting(module, name, counter, weight=lambda args, out: 1):
        original = getattr(module, name)

        def wrapper(*args):
            out = original(*args)
            counts[counter] += weight(args, out)
            return out

        monkeypatch.setattr(module, name, wrapper)

    for name in ("_encode", "_decode", "encode_signed", "decode_signed",
                 "encode_unsigned", "decode_unsigned"):
        counting(framing, name, "codec")
    counting(shuffle, "approx_nbytes", "sized")
    counting(shuffle, "encode_signed", "key_varints")
    for module in (shuffle, spill, runtime):
        counting(module, "int_key_rows", "keys_encoded", lambda args, out: len(out[1]))

    key_bytes = shuffle.key_bytes
    depth = [0]

    def top_level_key_bytes(key):
        counts["keys_encoded"] += not depth[0]  # tuple keys recurse
        depth[0] += 1
        try:
            return key_bytes(key)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(shuffle, "key_bytes", top_level_key_bytes)  # its only caller

    run_groups = spill.SpillRunWriter._run_groups

    def counting_run_groups(self):
        run = run_groups(self)
        counts["group_runs"] += len(run[0])
        return run

    monkeypatch.setattr(spill.SpillRunWriter, "_run_groups", counting_run_groups)
    for writer in (spill.SpillRunWriter, runtime._BucketWriter):
        add = writer.add

        def counting_add(self, batch, partitioner, add=add):
            counts["adds"] += 1
            counts["rows"] += len(batch)
            return add(self, batch, partitioner)

        monkeypatch.setattr(writer, "add", counting_add)
    for record in (InEdgeInfo, _InEmb):
        init = record.__init__

        def counting_init(self, *args, init=init):
            counts["records_built"] += 1
            init(self, *args)

        monkeypatch.setattr(record, "__init__", counting_init)
    return counts


class TestShuffleCodecBudget:
    """ROADMAP: "Python-level encode/decode calls per shuffled engine record,
    target 0".  Counts, not timings, on the fixture of the budgets above
    (binary spill, serial backend), relative to ``sum(shuffled_records)``:

    * the per-value codec runs per *chunk* (two frame-length varints), never
      per record.  With the per-key frames of AGLS v2 it ran 31.6 times per
      record under ``graph_infer`` and 30.7 under ``graph_flat``;
    * a key is encoded at most once per run it has a group in: the batch
      writer encodes a batch's distinct keys in one pass (ints vectorised)
      and keeps the bytes for partitioning and for the run's sort.  It used
      to run twice per *record* (2.0 / 2.3 calls per record), then once
      where a group was partitioned and once where it was written.

    The key codec's own varints are counted apart (``key_varints``): only
    hub-slice tuple keys still write them, two per distinct slice key.

    The read side builds no record per value: chunks are decoded to
    columns and reducers gather the rows they keep, so not one in-edge
    record object is constructed (``records_built``; every one of the
    6 636 / 4 142 shuffled records became one before columns)."""

    @staticmethod
    def check(counts, round_stats, floors):
        """``floors``: the least records and group runs the fixture must
        shuffle for the ratios below to mean anything."""
        records = sum(s.shuffled_records for s in round_stats)
        assert records > floors[0] and counts["group_runs"] > floors[1], (records, counts)
        assert counts["codec"] <= 0.1 * records, counts
        assert counts["keys_encoded"] <= counts["group_runs"], counts
        assert counts["key_varints"] <= counts["group_runs"], counts
        assert counts["records_built"] == 0, counts

    def test_graph_infer(self, write_side_counts, tmp_path):
        with LocalRuntime(spill_dir=tmp_path) as runtime:
            result = run_budget_infer(runtime)
        # 6 636 records / 3 444 group runs (10 466 / 3 844 with out-edge
        # records and the predict round)
        self.check(write_side_counts, result.round_stats, (6_000, 3_000))

    def test_graph_flat(self, write_side_counts, tmp_path):
        with LocalRuntime(spill_dir=tmp_path) as runtime:
            result = run_budget_flat(runtime)
        assert result.hub_nodes
        # 4 142 records / 2 190 group runs (7 093 / 2 190 with out-edge
        # records: an out-list shared its node's group)
        self.check(write_side_counts, result.round_stats, (4_000, 2_000))


class TestRecordBatchMechanism:
    """Only messages cross the shuffle, a batch of columns at a time: on the
    budget fixture the writers are entered once per record batch — one per
    merge batch and side of a split, and one for the node table the parent
    feeds — and no row is sized by an ``approx_nbytes`` walk, nor is any
    in-edge record object built, spilled or in memory.  The one walk left
    before columns was the parent's feed: 400 node rows ``("node",
    feature)``, each walked for ``8 + (8 + 4) + (8 + 64)`` = 92 bytes; fed
    as the node table's columns, every row's size is that same ``28 +
    feature bytes`` from the matrix shape, so 400 walked rows become 0."""

    @pytest.mark.parametrize("spill", [True, False], ids=["spilled", "memory"])
    @pytest.mark.parametrize("pipeline", ["flat", "infer"])
    def test_writer_entries_are_batches_and_no_row_is_walked(
        self, write_side_counts, tmp_path, spill, pipeline
    ):
        run = run_budget_flat if pipeline == "flat" else run_budget_infer
        with LocalRuntime(spill_dir=tmp_path if spill else None) as runtime:
            result = run(runtime)
        counts = write_side_counts
        # the written rows are every round's shuffled records
        assert counts["rows"] == sum(s.shuffled_records for s in result.round_stats)
        # parent feed: 1 batch; per round and reduce task: one merge batch,
        # written to the merge shuffle and (hub slices) the re-index one
        assert counts["adds"] <= 1 + 2 * 4 * len(result.round_stats), counts
        assert counts["rows"] > 50 * counts["adds"], counts
        assert counts["sized"] == 0, counts
        assert counts["records_built"] == 0, counts


class TestTrainerBudget:
    def test_columnar_epoch_budget(self, tmp_path, monkeypatch):
        """The trainer's deterministic budget, counted like the shuffle's:
        an epoch over columnar shards builds its batches from the shard
        columns — not one ``GraphFeature`` or ``TrainSample`` — and resolves
        (one ``stat``) each shard at most once per batch that touches it."""
        from repro.core.trainer import GraphTrainer, TrainerConfig, open_sample_source
        from repro.core.trainer import dataset as dataset_module
        from repro.core.trainer.vectorize import TrainSample
        from repro.mapreduce import DistFileSystem
        from repro.nn.gnn import GCNModel

        ds = uug_like(
            seed=11, num_nodes=200, avg_degree=6, feature_dim=8, num_hubs=2, hub_degree=30
        )
        fs = DistFileSystem(tmp_path)
        graph_flat(
            ds.nodes, ds.edges, ds.train_ids[:50],
            GraphFlatConfig(hops=2, max_neighbors=6, num_reducers=4, seed=0),
            fs=fs, dataset_name="train",
        )
        source = open_sample_source(fs, "train")
        assert len(source.shards) == 4
        trainer = GraphTrainer(
            GCNModel(ds.feature_dim, 8, ds.num_classes, num_layers=2, seed=0),
            TrainerConfig(batch_size=16, seed=0),
        )

        built = {"GraphFeature": 0, "TrainSample": 0, "stat": 0, "batch x shard": 0}

        def counting(cls, name, method):
            original = getattr(cls, method)

            def wrapper(self, *args, **kwargs):
                built[name] += 1
                return original(self, *args, **kwargs)

            monkeypatch.setattr(cls, method, wrapper)

        counting(GraphFeature, "GraphFeature", "__post_init__")
        counting(TrainSample, "TrainSample", "__init__")

        cached_shard = dataset_module._cached_shard

        def counting_cached_shard(path):
            built["stat"] += 1
            return cached_shard(path)

        monkeypatch.setattr(dataset_module, "_cached_shard", counting_cached_shard)
        batch = type(source).batch

        def counting_batch(self, indices):
            ref = batch(self, indices)
            built["batch x shard"] += len(np.unique(ref.locators[:, 0]))
            return ref

        monkeypatch.setattr(type(source), "batch", counting_batch)

        loss = trainer.train_epoch(source)
        assert np.isfinite(loss)
        assert built["GraphFeature"] == 0 and built["TrainSample"] == 0, built
        assert 0 < built["stat"] <= built["batch x shard"], built

    @staticmethod
    def _count_objects(monkeypatch) -> dict:
        """Count ``GraphFeature`` / ``TrainSample`` constructions and
        ``StackedFeatures.from_features`` calls from here on."""
        from repro.core.trainer.vectorize import TrainSample
        from repro.graph.subgraph import StackedFeatures

        built = {"GraphFeature": 0, "TrainSample": 0, "from_features": 0}

        def counting(cls, name, method):
            original = getattr(cls, method)

            def wrapper(self, *args, **kwargs):
                built[name] += 1
                return original(self, *args, **kwargs)

            monkeypatch.setattr(cls, method, wrapper)

        counting(GraphFeature, "GraphFeature", "__post_init__")
        counting(TrainSample, "TrainSample", "__init__")
        from_features = StackedFeatures.from_features.__func__

        def counting_from_features(cls, *args, **kwargs):
            built["from_features"] += 1
            return from_features(cls, *args, **kwargs)

        monkeypatch.setattr(StackedFeatures, "from_features", classmethod(counting_from_features))
        return built

    @staticmethod
    def _flat(**kwargs):
        ds = uug_like(
            seed=11, num_nodes=200, avg_degree=6, feature_dim=8, num_hubs=2, hub_degree=30
        )
        config = GraphFlatConfig(hops=2, max_neighbors=6, num_reducers=4, seed=0)
        return ds, graph_flat(ds.nodes, ds.edges, ds.train_ids[:50], config, **kwargs)

    def test_in_memory_epoch_budget(self, monkeypatch):
        """In-memory samples are decoded and stacked once, into the source:
        an epoch over it gathers its windows from those columns — no
        ``StackedFeatures.from_features`` call, no ``GraphFeature`` or
        ``TrainSample`` built."""
        from repro.core.trainer import GraphTrainer, TrainerConfig, as_sample_source
        from repro.nn.gnn import GCNModel

        ds, flat = self._flat()
        source = as_sample_source(flat.samples)
        trainer = GraphTrainer(
            GCNModel(ds.feature_dim, 8, ds.num_classes, num_layers=2, seed=0),
            TrainerConfig(batch_size=16, seed=0),
        )
        built = self._count_objects(monkeypatch)
        assert np.isfinite(trainer.train_epoch(source))
        assert built == {"GraphFeature": 0, "TrainSample": 0, "from_features": 0}, built

    def test_distributed_threads_epoch_budget(self, tmp_path, monkeypatch):
        """Thread workers train on slices of a columnar dataset, as process
        workers do: a fit decodes no sample into a ``GraphFeature``."""
        from repro.core.trainer import TrainerConfig, open_sample_source
        from repro.mapreduce import DistFileSystem
        from repro.nn.gnn import GCNModel
        from repro.ps import DistributedConfig, DistributedTrainer

        fs = DistFileSystem(tmp_path)
        ds, _ = self._flat(fs=fs, dataset_name="train")
        source = open_sample_source(fs, "train")
        trainer = DistributedTrainer(
            lambda: GCNModel(ds.feature_dim, 8, ds.num_classes, num_layers=2, seed=0),
            TrainerConfig(batch_size=8, epochs=1, seed=0),
            DistributedConfig(num_workers=2, num_servers=1, mode="bsp"),
        )
        built = self._count_objects(monkeypatch)
        with trainer:
            history = trainer.fit(source)
        assert np.isfinite(history[0]["loss"])
        assert built == {"GraphFeature": 0, "TrainSample": 0, "from_features": 0}, built


# ------------------------------------------------------- records as columns
def make_subgraph(rng, **kwargs) -> SubgraphInfo:
    return random_subgraph(rng, **kwargs).to_info()


class TestRecordsAsColumns:
    @given(seed=st.integers(0, 2**16), num_nodes=st.integers(1, 12),
           num_edges=st.integers(0, 20), dim=st.integers(0, 8),
           edge_feat=st.sampled_from(["uniform", "empty", "none"]))
    @settings(max_examples=60)
    def test_a_decoded_record_re_encodes_to_its_bytes(
        self, seed, num_nodes, num_edges, dim, edge_feat
    ):
        """A record decoded from its block (a one-record ragged column) is
        the record built from columns, and encodes back to the same bytes —
        also after a pickle round trip, which keeps its columns."""
        original = make_subgraph(
            np.random.default_rng(seed), num_nodes=num_nodes, num_edges=num_edges,
            dim=dim, edge_feat=edge_feat,
        )
        wire = encode_value(("in", InEdgeInfo(3, 0.5, None, original)))
        (_, decoded), end = decode_value(wire)
        assert end == len(wire)
        assert_same_subgraph(original, decoded.subgraph)
        assert encode_value(("in", decoded)) == wire
        clone = pickle.loads(pickle.dumps(decoded))
        assert_same_subgraph(original, clone.subgraph)
        assert encode_value(("in", clone)) == wire

    def test_records_pickle_as_their_columns(self):
        """One pickled form, built from columns or decoded from a chunk:
        the columns."""
        original = make_subgraph(np.random.default_rng(1))
        decoded, _ = decode_value(encode_value(original))
        for record in (original, decoded):
            clone = pickle.loads(pickle.dumps(record))
            assert set(type(clone).__slots__) == {"root", "columns"}
            assert_same_subgraph(original, clone)

    def test_ragged_node_features_are_rejected_by_construction(self):
        """A node table has one feature width; rows that differ cannot make
        a record from parts, nor a column from records."""
        ragged = DictSubgraph(1, {
            1: (np.zeros(2, np.float32), 0),
            2: (np.zeros(5, np.float32), 1),
        })
        with pytest.raises(ValueError, match="^x: "):
            ragged.to_info()
        narrow = SubgraphInfo(1, [1], [0], np.zeros((1, 2), np.float32))
        wide = SubgraphInfo(2, [2], [0], np.zeros((1, 5), np.float32))
        with pytest.raises(ValueError, match="^x: "):
            RaggedColumn.of_records(_RECORDS_BY_CLS[SubgraphInfo], [narrow, wide])
        with pytest.raises(ValueError, match="^x: "):
            records.merge_neighborhoods(
                columnize([narrow]), columnize([wide]), [0, 1], np.ones(1), None
            )
        mixed_dtypes = [np.zeros(2, np.float32), np.zeros(2, np.float64)]
        with pytest.raises(ValueError, match="^x: "):
            SubgraphInfo(1, [1, 2], [0, 1], mixed_dtypes)

    def test_mixed_edge_features_are_rejected_by_construction(self):
        """An edge table has features on every edge or on none."""
        rng = np.random.default_rng(3)
        mixed = random_subgraph(rng, num_edges=4, edge_feat="uniform")
        with_features = mixed.to_info()
        first = next(iter(mixed.edges))
        mixed.edges[first] = (mixed.edges[first][0], None)  # None among edge features
        with pytest.raises(ValueError, match="^edge_feat: "):
            mixed.to_info()
        without = make_subgraph(rng, num_edges=4, edge_feat="none")
        with pytest.raises(ValueError, match="^edge_feat: "):
            RaggedColumn.of_records(_RECORDS_BY_CLS[SubgraphInfo], [with_features, without])
        with pytest.raises(ValueError, match="^edge_feat: "):
            records.merge_neighborhoods(
                columnize([with_features]), columnize([without]), [0, 1], np.ones(1), None
            )

    def test_construction_names_the_field(self):
        for kwargs, field in [
            (dict(ids=[1, 1], hops=[0, 0], x=np.zeros((2, 1))), "ids"),
            (dict(ids=[2], hops=[0], x=np.zeros((1, 1))), "ids"),  # no root
            (dict(ids=[1], hops=[0, 1], x=np.zeros((1, 1))), "hops"),
            (dict(ids=[1], hops=[0], x=np.zeros((2, 1))), "x"),
            (dict(ids=[1], hops=[0], x=np.zeros((1, 1)), src=[1, 1], dst=[1, 1],
                  weight=[1.0, 1.0]), "src/dst"),
            (dict(ids=[1], hops=[0], x=np.zeros((1, 1)), src=[1], dst=[1], weight=[]),
             "weight"),
        ]:
            with pytest.raises(ValueError, match=f"^{field}: "):
                SubgraphInfo(1, **kwargs)

    @pytest.mark.parametrize("edge_feat", ["uniform", "none"])
    def test_truncated_record_raises_at_decode_time(self, edge_feat):
        """Every strict prefix of a record fails inside ``decode_value``."""
        wire = encode_value(make_subgraph(np.random.default_rng(4), edge_feat=edge_feat))
        for cut in range(1, len(wire)):
            with pytest.raises((ValueError, IndexError)):
                decode_value(wire[:cut])
        with pytest.raises(FrameCorruptionError, match="truncated ragged record"):
            decode_value(wire[:40])

    def test_records_pass_through_the_reducers_as_row_references(self, monkeypatch):
        """A hub slice pre-sampled by a re-index round is inverted back to
        the hub's plain key as row references into the chunk it arrived in,
        and a merge round reads the in-edges its sampler keeps as rows of
        that chunk's one block — no record object, no copy per record."""
        from repro.core.graphflat import pipeline

        rng = np.random.default_rng(5)
        sampler = make_sampler("uniform", 3, seed=0)
        rows = [
            ("in", InEdgeInfo(src, 1.0, None, make_subgraph(rng, edge_feat="none")))
            for src in range(12)
        ]
        chunk = decode_columns(encode_block(rows))  # as a spill delivers them
        [block] = chunk.children[1].fields[3].blocks
        [batch] = PartialReducer(sampler, InEdgeInfo).reduce_segments(
            [column_segment(chunk, [0, len(rows)], [(7, 2)])]
        )
        assert batch.keys == [7]
        kept = batch.values.children[1].items.fields[3]
        assert len(kept) == 3 and kept.blocks == [block]

        seen = []
        merge = pipeline.merge_neighborhoods

        def watched(selves, neighbors, *rest):
            seen.append(neighbors)
            return merge(selves, neighbors, *rest)

        monkeypatch.setattr(pipeline, "merge_neighborhoods", watched)
        routing = Routing(frozenset(), 4, ReceptiveField(None, 2), InEdgeInfo, NO_OUT_EDGES)
        own = SubgraphInfo.seed(7, np.zeros(5, np.float32))
        own = decode_columns(encode_block([("self", own)]))
        [batch] = MergeReducer(sampler, 2, 2, routing).reduce_segments(
            [Segment(
                [own, chunk],
                np.repeat([0, 1], [1, len(rows)]),
                np.concatenate([[0], np.arange(len(rows))]),
                np.array([0, 1 + len(rows)]),
                np.array([7]),
            )]
        )
        assert batch.keys == [7] and batch.values.feature(0).num_nodes > 1
        [neighbors] = seen
        assert type(neighbors) is RaggedColumn and neighbors.blocks == [block]
        assert len(neighbors) == 3


class TestCommandLine:
    def test_graphflat_prints_the_receptive_field(self, graph, tmp_path, capsys):
        nodes, edges, targets = graph
        write_node_table(tmp_path / "nodes.tsv", nodes)
        write_edge_table(tmp_path / "edges.tsv", edges)
        np.savetxt(tmp_path / "targets.txt", targets[:5], fmt="%d")
        assert main([
            "graphflat", "-n", str(tmp_path / "nodes.tsv"),
            "-e", str(tmp_path / "edges.tsv"), "--hops", "2",
            "--targets", str(tmp_path / "targets.txt"),
            "--dfs", str(tmp_path / "dfs"), "--output", "flat/train",
        ]) == 0
        out = capsys.readouterr().out
        dist = distance_to_targets(edges, {int(t) for t in targets[:5]}, 2)
        assert f"receptive field: {len(dist)} of {len(nodes)} nodes, " in out
        assert f" of {2 * len(edges.src)} propagations" in out
