"""Seeded synthetic generators for the paper's three datasets.

Each generator plants enough class-correlated structure (homophilous edges +
class-conditional features) that GNNs beat feature-only models, which is the
property the effectiveness experiments (Table 3) actually exercise.  Degree
distributions differ deliberately: ``cora_like``/``ppi_like`` are roughly
homogeneous while ``uug_like`` is power-law with explicit hub nodes, because
hubs are what GraphFlat's re-indexing and sampling exist for.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import GraphDataset
from repro.graph.tables import EdgeTable, NodeTable
from repro.utils.rng import new_rng

__all__ = ["cora_like", "labeled_edges_like", "ppi_like", "typed_like", "uug_like"]


def _homophilous_edges(
    rng: np.random.Generator,
    communities: np.ndarray,
    num_edges: int,
    intra_prob: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample undirected edge endpoints with community homophily.

    Each edge picks a source uniformly; with probability ``intra_prob`` the
    destination comes from the same community, otherwise from anywhere.
    Self-loops and duplicate pairs are removed (the count lands slightly
    below ``num_edges``, like real crawled graphs).
    """
    n = len(communities)
    order = np.argsort(communities, kind="stable")
    sorted_comm = communities[order]
    starts = np.searchsorted(sorted_comm, np.arange(communities.max() + 1))
    ends = np.searchsorted(sorted_comm, np.arange(communities.max() + 1), side="right")

    src = rng.integers(0, n, num_edges)
    intra = rng.random(num_edges) < intra_prob
    dst = rng.integers(0, n, num_edges)
    comm = communities[src[intra]]
    span = ends[comm] - starts[comm]
    dst_intra = order[starts[comm] + (rng.random(intra.sum()) * span).astype(np.int64)]
    dst[intra] = dst_intra

    keep = src != dst
    src, dst = src[keep], dst[keep]
    pair = np.stack([np.minimum(src, dst), np.maximum(src, dst)], axis=1)
    _, unique_idx = np.unique(pair, axis=0, return_index=True)
    unique_idx.sort()
    return src[unique_idx], dst[unique_idx]


def _split_ids(
    rng: np.random.Generator, ids: np.ndarray, sizes: tuple[int, int, int]
) -> dict[str, np.ndarray]:
    train_n, val_n, test_n = sizes
    if train_n + val_n + test_n > len(ids):
        raise ValueError("splits larger than available labeled ids")
    perm = rng.permutation(ids)
    return {
        "train": np.sort(perm[:train_n]),
        "val": np.sort(perm[train_n : train_n + val_n]),
        "test": np.sort(perm[train_n + val_n : train_n + val_n + test_n]),
    }


def cora_like(
    seed: int = 0,
    num_nodes: int = 2708,
    num_edges: int = 5429,
    feature_dim: int = 1433,
    num_classes: int = 7,
    intra_prob: float = 0.9,
    words_per_class: int = 60,
    words_per_doc: int = 18,
) -> GraphDataset:
    """Citation-network stand-in for Cora (Sen et al. 2008).

    Nodes are "papers" with sparse binary bag-of-words features; each class
    owns a block of ``words_per_class`` topic words that its papers sample
    preferentially, and citations are homophilous.  Split sizes follow the
    standard semi-supervised protocol: 140 train / 500 val / 1000 test.
    """
    rng = new_rng(seed)
    labels = rng.integers(0, num_classes, num_nodes)

    features = np.zeros((num_nodes, feature_dim), dtype=np.float32)
    shared_words = num_classes * words_per_class
    for v in range(num_nodes):
        own = labels[v] * words_per_class + rng.integers(0, words_per_class, words_per_doc)
        noise_count = max(1, words_per_doc // 3)
        noise = shared_words + rng.integers(0, max(feature_dim - shared_words, 1), noise_count)
        features[v, own] = 1.0
        features[v, np.minimum(noise, feature_dim - 1)] = 1.0

    src, dst = _homophilous_edges(rng, labels, num_edges, intra_prob)
    edges = EdgeTable.symmetrize(EdgeTable(src, dst))

    ids = np.arange(num_nodes, dtype=np.int64)
    nodes = NodeTable(ids, features, labels)
    # The canonical 140/500/1000 split, scaled down proportionally when a
    # smaller graph is requested (tests use miniature instances).
    ratio = min(1.0, num_nodes / 2708)
    sizes = (max(int(140 * ratio), 7), max(int(500 * ratio), 7), max(int(1000 * ratio), 7))
    splits = _split_ids(rng, ids, sizes)
    return GraphDataset("cora-like", nodes, edges, splits, "multiclass", num_classes)


def ppi_like(
    seed: int = 0,
    num_graphs: int = 24,
    nodes_per_graph: int = 2373,
    avg_degree: int = 14,
    feature_dim: int = 50,
    num_labels: int = 121,
    latent_dim: int = 12,
    scale: float = 1.0,
) -> GraphDataset:
    """Multi-graph multi-label stand-in for PPI (Zitnik & Leskovec 2017).

    24 independent "tissue" graphs; each node has a latent functional
    profile that drives both its 50-d features and its 121 binary labels, so
    labels are predictable from features *and* neighborhood.  Graphs 0-19
    train, 20-21 validate, 22-23 test — the GraphSAGE protocol.  ``scale``
    shrinks nodes-per-graph for cheap benchmarking (§4 Table 4 uses the
    shape, not the absolute size).
    """
    if not 0 < scale <= 1.0:
        raise ValueError("scale must be in (0, 1]")
    rng = new_rng(seed)
    n_per = max(16, int(nodes_per_graph * scale))

    # Shared projection from latent functional profiles to features/labels so
    # the task transfers across graphs (train graphs -> test graphs).
    w_feat = rng.standard_normal((latent_dim, feature_dim)).astype(np.float32)
    w_label = rng.standard_normal((latent_dim, num_labels)).astype(np.float32)
    label_bias = rng.uniform(-1.2, -0.2, num_labels).astype(np.float32)

    all_ids, all_x, all_y, all_gid = [], [], [], []
    all_src, all_dst = [], []
    next_id = 0
    for g in range(num_graphs):
        communities = rng.integers(0, max(2, latent_dim // 2), n_per)
        centers = rng.standard_normal((communities.max() + 1, latent_dim)).astype(np.float32)
        latent = centers[communities] + 0.6 * rng.standard_normal((n_per, latent_dim)).astype(
            np.float32
        )
        x = latent @ w_feat + 0.8 * rng.standard_normal((n_per, feature_dim)).astype(np.float32)
        logits = latent @ w_label + label_bias
        y = (logits > 0).astype(np.float32)

        m = n_per * avg_degree // 2
        src, dst = _homophilous_edges(rng, communities, m, 0.8)
        ids = np.arange(next_id, next_id + n_per, dtype=np.int64)
        all_ids.append(ids)
        all_x.append(x.astype(np.float32))
        all_y.append(y)
        all_gid.append(np.full(n_per, g, dtype=np.int64))
        all_src.append(src + next_id)
        all_dst.append(dst + next_id)
        next_id += n_per

    nodes = NodeTable(
        np.concatenate(all_ids), np.concatenate(all_x), np.concatenate(all_y)
    )
    edges = EdgeTable.symmetrize(
        EdgeTable(np.concatenate(all_src), np.concatenate(all_dst))
    )
    graph_ids = np.concatenate(all_gid)
    train_graphs = num_graphs - 4
    splits = {
        "train": nodes.ids[graph_ids < train_graphs],
        "val": nodes.ids[(graph_ids >= train_graphs) & (graph_ids < train_graphs + 2)],
        "test": nodes.ids[graph_ids >= train_graphs + 2],
    }
    return GraphDataset(
        "ppi-like", nodes, edges, splits, "multilabel", num_labels, graph_ids=graph_ids
    )


def labeled_edges_like(
    seed: int = 0,
    num_nodes: int = 300,
    num_edges: int = 1200,
    feature_dim: int = 8,
    num_communities: int = 3,
    intra_prob: float = 0.85,
    feature_scale: float = 2.0,
) -> tuple[NodeTable, EdgeTable]:
    """Edge-task stand-in: homophilous communities with per-edge labels.

    Nodes belong to ``num_communities`` planted communities whose membership
    is encoded (noisily) in the features; an edge's label is 1 when it stays
    inside a community and 0 when it crosses, so edge classification is
    learnable from the two endpoint embeddings, and the same structure makes
    observed edges distinguishable from random negative pairs (link
    prediction).  Returns ``(nodes, edges)`` — edge-level tasks derive their
    own targets, so there is no node split.
    """
    rng = new_rng(seed)
    communities = rng.integers(0, num_communities, num_nodes)
    centers = rng.standard_normal((num_communities, feature_dim)).astype(np.float32)
    features = (
        centers[communities] * feature_scale
        + rng.standard_normal((num_nodes, feature_dim)).astype(np.float32)
    )
    src, dst = _homophilous_edges(rng, communities, num_edges, intra_prob)
    labels = (communities[src] == communities[dst]).astype(np.int64)
    ids = np.arange(num_nodes, dtype=np.int64)
    return (
        NodeTable(ids, features),
        EdgeTable(src, dst, labels=labels),
    )


def typed_like(
    seed: int = 0,
    num_users: int = 150,
    num_items: int = 100,
    num_edges: int = 900,
    feature_dim: int = 8,
    num_interests: int = 3,
) -> tuple[NodeTable, EdgeTable]:
    """Typed (heterogeneous) graph stand-in: users and items.

    Node types: 0 = user, 1 = item.  Each user and item carries a latent
    interest; edges are user->item interactions whose *type* records the
    channel (0 = view, 1 = purchase) and whose *label* is 1 when the
    interest matches (a purchase-propensity-style target).  Matching
    interactions are mostly purchases, so the edge type is informative too.
    Returns ``(nodes, edges)``; features encode the interest noisily for
    both node types.
    """
    rng = new_rng(seed)
    n = num_users + num_items
    ids = np.arange(n, dtype=np.int64)
    node_types = np.concatenate(
        [np.zeros(num_users, dtype=np.int64), np.ones(num_items, dtype=np.int64)]
    )
    interest = rng.integers(0, num_interests, n)
    centers = rng.standard_normal((num_interests, feature_dim)).astype(np.float32)
    features = centers[interest] * 2.0 + rng.standard_normal((n, feature_dim)).astype(
        np.float32
    )

    src = rng.integers(0, num_users, num_edges).astype(np.int64)
    dst = (num_users + rng.integers(0, num_items, num_edges)).astype(np.int64)
    pair = np.stack([src, dst], axis=1)
    _, unique_idx = np.unique(pair, axis=0, return_index=True)
    unique_idx.sort()
    src, dst = src[unique_idx], dst[unique_idx]

    match = (interest[src] == interest[dst]).astype(np.int64)
    # Channel correlates with the match: matching pairs mostly purchase.
    purchase_prob = np.where(match == 1, 0.7, 0.15)
    edge_types = (rng.random(len(src)) < purchase_prob).astype(np.int64)
    return (
        NodeTable(ids, features, types=node_types),
        EdgeTable(src, dst, labels=match, types=edge_types),
    )


def uug_like(
    seed: int = 0,
    num_nodes: int = 20_000,
    avg_degree: int = 8,
    feature_dim: int = 64,
    num_hubs: int = 20,
    hub_degree: int = 2_000,
    labeled_fraction: float = 0.3,
    homophily: float = 0.85,
    feature_scale: float = 0.35,
    noise_edge_fraction: float = 0.0,
    zipf_exponent: float = 2.1,
    max_plain_degree: int = 50,
) -> GraphDataset:
    """Scaled-down User-User Graph: power-law social graph with hubs.

    The real UUG has 6.23e9 nodes / 3.38e11 edges (Table 2) — six orders of
    magnitude beyond a laptop.  This generator keeps what the experiments
    need: (a) a heavy-tailed degree distribution with explicit "hub" users
    whose in-degree is orders of magnitude above the median (§3.2.2's
    re-indexing target), (b) two-class node labels with homophilous edges
    and class-conditional features (AUC is meaningful), and (c) a small
    labeled fraction (training set << graph size, §3.1).  Edge weights model
    interaction counts; node ids are non-contiguous hashes, as in
    production.

    Tail-shape knobs (for partitioning/skew experiments):

    * ``zipf_exponent`` — exponent of the Zipf draw behind the plain (non-hub)
      degree distribution.  Lower values fatten the tail: more mid-degree
      nodes, so reducer load is lumpier even before hubs are added.  Must be
      > 1 (the Zipf distribution is undefined at or below 1).
    * ``max_plain_degree`` — cap on plain-node degree weight, keeping the
      tail distinct from the explicit hubs (``num_hubs`` / ``hub_degree``),
      which are stacked on top and recorded in ``ds.hub_ids``.

    Defaults (2.1 / 50) reproduce the historical generator draw-for-draw:
    a given seed yields bit-identical tables with the knobs untouched.
    """
    if zipf_exponent <= 1.0:
        raise ValueError("zipf_exponent must be > 1")
    if max_plain_degree < 1:
        raise ValueError("max_plain_degree must be >= 1")
    if max(num_hubs, hub_degree) > num_nodes:
        # Hubs and each hub's followers are drawn without replacement.
        raise ValueError(
            f"num_hubs ({num_hubs}) and hub_degree ({hub_degree}) must each "
            f"be <= num_nodes ({num_nodes})"
        )
    rng = new_rng(seed)
    labels = (rng.random(num_nodes) < 0.5).astype(np.int64)

    # Class-conditional features: two overlapping Gaussians whose separation
    # is controlled by ``feature_scale`` (small -> classes only separable
    # through neighborhood aggregation).
    centers = rng.standard_normal((2, feature_dim)).astype(np.float32) * feature_scale
    features = centers[labels] + rng.standard_normal((num_nodes, feature_dim)).astype(np.float32)

    # Power-law degrees via Zipf, then explicit hubs stacked on top.
    deg = rng.zipf(zipf_exponent, num_nodes).astype(np.int64)
    deg = np.minimum(deg, max_plain_degree)
    target_edges = num_nodes * avg_degree // 2
    deg = np.maximum(deg, 1)
    prob = deg / deg.sum()
    src = rng.choice(num_nodes, size=target_edges, p=prob)
    dst = rng.choice(num_nodes, size=target_edges, p=prob)
    # Homophily rewiring: for a fraction of edges, resample dst within class.
    same = np.flatnonzero(rng.random(target_edges) < homophily)
    by_class = [np.flatnonzero(labels == c) for c in (0, 1)]
    cls = labels[src[same]]
    sizes = np.array([len(by_class[0]), len(by_class[1])])
    pick = (rng.random(len(same)) * sizes[cls]).astype(np.int64)
    resampled = np.empty(len(same), dtype=np.int64)
    for c in (0, 1):
        mask = cls == c
        resampled[mask] = by_class[c][pick[mask]]
    dst[same] = resampled

    hubs = rng.choice(num_nodes, size=num_hubs, replace=False)
    hub_src, hub_dst = [], []
    for hub in hubs:
        followers = rng.choice(num_nodes, size=hub_degree, replace=False)
        hub_src.append(followers)
        hub_dst.append(np.full(hub_degree, hub, dtype=np.int64))
    src = np.concatenate([src, *hub_src])
    dst = np.concatenate([dst, *hub_dst])

    keep = src != dst
    src, dst = src[keep], dst[keep]
    weights = rng.integers(1, 6, len(src)).astype(np.float32)

    # Adversarial "noise" interactions: heavy-weight edges between random
    # users regardless of class.  Weighted/mean aggregation is polluted by
    # them; attention (GAT) can learn to ignore them — this is the role
    # different neighbors ("friend, colleague and so on") play in §4.2.1's
    # explanation of GAT's UUG win.
    if noise_edge_fraction > 0:
        n_noise = int(len(src) * noise_edge_fraction)
        noise_src = rng.integers(0, num_nodes, n_noise)
        noise_dst = rng.integers(0, num_nodes, n_noise)
        ok = noise_src != noise_dst
        src = np.concatenate([src, noise_src[ok]])
        dst = np.concatenate([dst, noise_dst[ok]])
        weights = np.concatenate(
            [weights, rng.integers(4, 9, ok.sum()).astype(np.float32)]
        )

    # Non-contiguous "hashed" ids, as produced by industrial ingest.
    ids = np.sort(rng.choice(np.int64(10) * num_nodes * 10, size=num_nodes, replace=False))
    # Coalesce parallel interactions into weighted edges (A_{v,u} is one entry).
    edges = EdgeTable.symmetrize(EdgeTable(ids[src], ids[dst], weights=weights)).coalesce()
    nodes = NodeTable(ids, features, labels)

    labeled = int(num_nodes * labeled_fraction)
    train_n = int(labeled * 0.8)
    val_n = int(labeled * 0.033)
    test_n = labeled - train_n - val_n
    splits = _split_ids(rng, ids, (train_n, val_n, test_n))
    ds = GraphDataset("uug-like", nodes, edges, splits, "binary", 2)
    # Stash hub ids for the GraphFlat load-balance experiments.
    ds.hub_ids = ids[hubs]  # type: ignore[attr-defined]
    return ds
