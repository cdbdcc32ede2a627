"""Acceptance gate: one test per release criterion, ordered.

Each test prints a single ``[criterion N] PASS/FAIL`` line with the
measured values and the tolerance it was judged against, then asserts.
Run with ``pytest -v tests/test_acceptance.py`` for the per-criterion
verdicts; ``-s`` additionally streams the measurement lines.
"""

import time
from dataclasses import replace

import numpy as np

from hienet.cascade import GlobalSocialGraph, build_cascade_graph, parse_cascade_line
from hienet.config import TrainConfig
from hienet.diagnostics import gradient_check_report
from hienet.model import HIENet
from hienet.nn.tensor import concat, constant, gather_rows
from hienet.snapshots import (
    build_snapshots,
    encoding_table,
    snapshot_feature_matrix,
    snapshot_indices,
)
from hienet.social import CorrelationPath, path_coefficients, shortest_correlation_path
from hienet.synth import SyntheticSpec, generate_synthetic, write_corpus
from hienet.train import evaluate, train
from hienet.walks import sample_walks, start_distribution, transition_distribution

from reference_ops import hand_graph, path_aware_representation, snapshot_blocks


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _social_graph(users, undirected_edges) -> GlobalSocialGraph:
    users = sorted(users)
    index = {u: i for i, u in enumerate(users)}
    adj = [[] for _ in users]
    for a, b in undirected_edges:
        adj[index[a]].append(index[b])
        adj[index[b]].append(index[a])
    for row in adj:
        row.sort()
    return GlobalSocialGraph(users=users, index=index, adj=adj)


# ---------------------------------------------------------------------------


def test_criterion_1_gradient_suite():
    t0 = time.time()
    worst: dict[str, float] = {}
    for seed in range(10):
        for name, err in gradient_check_report(seed).items():
            worst[name] = max(worst.get(name, 0.0), err)
    elapsed = time.time() - t0
    peak = max(worst.values())
    ok = peak < 1e-4 and elapsed < 60.0
    _report(
        "criterion 1",
        ok,
        f"gradient checks over 10 seeds: worst rel err {peak:.2e} "
        f"(tolerance 1e-4) across {sorted(worst)}, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_sampler_statistics():
    t0 = time.time()
    beta, draws = 0.8, 100_000

    def empirical_tv(graph):
        batch = sample_walks(graph, k=draws, n=2, beta=beta, seed=11)
        starts = {v: 0 for v in range(graph.num_nodes)}
        nexts = {v: {} for v in range(graph.num_nodes)}
        for walk in batch.walks:
            starts[walk[0]] += 1
            if walk[1] is not None:
                nexts[walk[0]][walk[1]] = nexts[walk[0]].get(walk[1], 0) + 1
        start_emp = np.array([starts[v] / draws for v in range(graph.num_nodes)])
        tv = 0.5 * np.abs(start_emp - start_distribution(graph, beta)).sum()
        tvs = [tv]
        for v in range(graph.num_nodes):
            neighbors, probs = transition_distribution(graph, v, beta)
            if not neighbors:
                continue
            total = sum(nexts[v].values())
            emp = np.array([nexts[v].get(u, 0) / total for u in neighbors])
            tvs.append(0.5 * np.abs(emp - probs).sum())
        return max(tvs)

    # hand-derived distributions on the three-node example
    g3 = hand_graph([("A", "B"), ("A", "C"), ("B", "C")], "A")
    hand_start = np.array([2.8 / 5.4, 1.8 / 5.4, 0.8 / 5.4])
    assert np.abs(start_distribution(g3, beta) - hand_start).max() < 1e-12
    nbrs, probs = transition_distribution(g3, 0, beta)
    assert [g3.nodes[u] for u in nbrs] == ["B", "C"]
    assert np.abs(probs - np.array([1.8 / 2.6, 0.8 / 2.6])).max() < 1e-12
    tv3 = empirical_tv(g3)

    # fixed five-node graph against the same closed forms
    g5 = hand_graph([("r", "a"), ("r", "b"), ("a", "c"), ("a", "d")], "r")
    tv5 = empirical_tv(g5)

    elapsed = time.time() - t0
    ok = tv3 < 0.01 and tv5 < 0.01 and elapsed < 10.0
    _report(
        "criterion 2",
        ok,
        f"total variation over {draws} draws: 3-node {tv3:.4f}, 5-node {tv5:.4f} "
        f"(tolerance 0.01), {elapsed:.1f}s (< 10s)",
    )


def test_criterion_3_path_coefficient_identities():
    worst_sum = 0.0
    for n in range(11):
        for alpha in (0.1, 0.5, 0.9):
            worst_sum = max(worst_sum, abs(path_coefficients(n, alpha).sum() - 1.0))

    table = {"u": np.array([1.5, -2.0, 0.25])}
    rep = path_aware_representation(CorrelationPath(users=["u"]), table, alpha=0.9)
    zero_hop_exact = (rep == table["u"]).all()

    coeffs = path_coefficients(1, 0.9)
    pair_err = np.abs(coeffs - np.array([0.52632, 0.47368])).max()

    ok = worst_sum < 1e-12 and zero_hop_exact and pair_err < 1e-5
    _report(
        "criterion 3",
        ok,
        f"coefficient sums off by {worst_sum:.2e} (tol 1e-12) for n<=10, "
        f"zero-hop identity exact: {zero_hop_exact}, "
        f"one-hop alpha=0.9 coeffs within {pair_err:.2e} of (0.52632, 0.47368) (tol 1e-5)",
    )


def test_criterion_4_shortest_path_oracle():
    rng = np.random.default_rng(123)
    checked = agreed = 0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        users = [f"u{i}" for i in range(n)]
        edges = [
            (users[i], users[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.3
        ]
        graph = _social_graph(users, edges)

        dist = np.full((n, n), np.inf)
        np.fill_diagonal(dist, 0.0)
        for a, b in edges:
            i, j = graph.index[a], graph.index[b]
            dist[i, j] = dist[j, i] = 1.0
        for k in range(n):
            dist = np.minimum(dist, dist[:, k, None] + dist[None, k, :])

        for i in range(n):
            for j in range(n):
                path = shortest_correlation_path(graph, users[i], users[j])
                checked += 1
                if path is None:
                    agreed += np.isinf(dist[i, j])
                else:
                    agreed += path.n == dist[i, j]
    ok = agreed == checked
    _report(
        "criterion 4",
        ok,
        f"shortest-path length vs Floyd-Warshall on 200 random graphs: "
        f"{agreed}/{checked} pairs agree (need 100%)",
    )


def test_criterion_5_structural_invariants():
    # snapshot nesting on a 12-event cascade capped at 5 snapshots
    paths = " ".join(f"r/x{i}:{(i + 1) * 10}" for i in range(12))
    rec = parse_cascade_line(f"m\tr\t0\t30\tr:0 {paths}")
    graph = build_cascade_graph(rec, window=1000)
    rows, cols, bins = snapshot_feature_matrix(graph, 16)
    propagation, snap_bins, _ = build_snapshots(rows, cols, bins, m_max=5)
    seq = snapshot_blocks(propagation, snap_bins, snapshot_indices(graph.num_nodes, 5))
    nested = len(seq) == 5
    for (prev, prev_bins), (cur, cur_bins) in zip(seq, seq[1:]):
        n = prev_bins.size
        nested = nested and n < cur_bins.size
        nested = nested and np.array_equal(cur[:n, :n] != 0, prev != 0)
        nested = nested and np.array_equal(cur_bins[:n], prev_bins)
    full = np.zeros((graph.num_nodes, graph.num_nodes), dtype=bool)
    full[rows, cols] = True
    nested = nested and np.array_equal(seq[-1][0] != 0, full) and seq[-1][1].size == graph.num_nodes

    # sinusoidal pairs stay on the unit circle
    table = encoding_table(16, 512)
    pair_err = 0.0
    for t in (0, 1, 100, 511):
        row = table[t]
        pair_err = max(pair_err, float(np.abs(row[0::2] ** 2 + row[1::2] ** 2 - 1.0).max()))

    # every discretized time bin gets a distinct encoding row
    gaps = [
        np.abs(table[i] - table[j]).max()
        for i in range(table.shape[0])
        for j in range(i + 1, table.shape[0])
    ]
    distinct = min(gaps) > 1e-6

    # two connected nodes normalize to an even propagation split
    pair = build_cascade_graph(parse_cascade_line("m\tr\t0\t3\tr:0 r/x:10"), window=1000)
    gcn, _, _ = build_snapshots(*snapshot_feature_matrix(pair, 16), m_max=1)
    gcn_err = float(np.abs(gcn.toarray() - 0.5).max())

    # fusion output must not depend on modality-token order
    config = TrainConfig(seed=5, embed_dim=4, lstm_hidden=3, pe_dim=4, time_bins=8,
                         gcn_hidden=5, d_model=8, heads=2, ff_hidden=10, mlp_sizes=(8, 4))
    model = HIENet(config, vocab=9)
    rng = np.random.default_rng(0)
    B = 2
    toks = {name: constant(rng.normal(size=(B, 8))) for name in ("cs", "sg", "cg")}
    tile = gather_rows(model.p_cas, np.zeros(B, dtype=np.int64))

    def summary(order):
        out = model.encoder(concat([toks[o] for o in order] + [tile], axis=0), groups=B)
        return out.data[3 * B : 4 * B]

    base = summary(("cs", "sg", "cg"))
    perm_err = max(
        float(np.abs(summary(order) - base).max())
        for order in (("sg", "cg", "cs"), ("cg", "cs", "sg"), ("cs", "cg", "sg"))
    )

    ok = nested and pair_err < 1e-12 and distinct and gcn_err < 1e-12 and perm_err < 1e-9
    _report(
        "criterion 5",
        ok,
        f"snapshot nesting: {nested}, encoding unit-pair err {pair_err:.1e} (tol 1e-12), "
        f"512 encoding rows distinct: {distinct}, two-node propagation err {gcn_err:.1e} "
        f"(tol 1e-12), token-permutation err {perm_err:.1e} (tol 1e-9)",
    )


DESK = dict(
    batch_size=32,
    lr=1e-3,
    k_walks=10,
    walk_len=10,
    m_max=8,
    pe_dim=16,
    time_bins=64,
    embed_dim=32,
    lstm_hidden=32,
    gcn_hidden=32,
    d_model=32,
    heads=4,
    ff_hidden=64,
    mlp_sizes=(64, 32),
)


def test_criterion_6_learning_sanity(tmp_path):
    t0 = time.time()

    records, manifest = generate_synthetic(SyntheticSpec(num_users=60, num_cascades=10, seed=3))
    small = write_corpus(tmp_path / "ten", records, manifest)
    overfit = train(
        TrainConfig(
            data=str(small), out=str(tmp_path / "overfit"), seed=2, epochs=500,
            **dict(DESK, batch_size=8, lr=3e-3, k_walks=8, walk_len=8, m_max=6, time_bins=32),
        )
    )
    min_train = min(h["train_MSLE"] for h in overfit.history)
    hit_epoch = next((h["epoch"] for h in overfit.history if h["train_MSLE"] < 0.05), None)
    ok_a = min_train < 0.05

    records, manifest = generate_synthetic(SyntheticSpec())
    corpus = write_corpus(tmp_path / "main", records, manifest)
    assert len(records) == 200
    result = train(
        TrainConfig(data=str(corpus), out=str(tmp_path / "sanity"), seed=2, epochs=200, **DESK)
    )
    epoch0 = result.history[0]["val_MSLE"]
    ratio = result.best_val_msle / epoch0
    ok_b = ratio <= 0.5 and result.best_val_msle < result.baseline_val_msle

    elapsed = time.time() - t0
    ok = ok_a and ok_b and elapsed < 600.0
    _report(
        "criterion 6",
        ok,
        f"10-cascade overfit min train MSLE {min_train:.4f} (tol 0.05, reached at epoch "
        f"{hit_epoch} of 500); 200-cascade best-val {result.best_val_msle:.3f} vs epoch-0 "
        f"{epoch0:.3f} (ratio {ratio:.2f}, need <= 0.50) and mean-predictor "
        f"{result.baseline_val_msle:.3f} (need strictly below); {elapsed:.0f}s (< 600s)",
    )


def test_criterion_7_ablation_direction(tmp_path):
    records, manifest = generate_synthetic(SyntheticSpec(num_users=400, num_cascades=400, seed=1))
    corpus = write_corpus(tmp_path / "abl", records, manifest)
    base = TrainConfig(
        data=str(corpus), out=str(tmp_path / "x"), epochs=25,
        **dict(DESK, k_walks=5, walk_len=8, embed_dim=16, lstm_hidden=16),
    )
    variants = [
        ("full", {}),
        ("no_cs", {"use_cs": False}),
        ("no_sg", {"use_sg": False}),
        ("no_cg", {"use_cg": False}),
        ("concat", {"fusion_mode": "concat"}),
    ]
    # single-run validation MSLE is noisy at desk scale, so each variant's
    # score is the mean of three seeded runs
    means = {}
    for name, changes in variants:
        scores = [
            train(replace(base, out=str(tmp_path / f"{name}{seed}"), seed=seed, **changes)).best_val_msle
            for seed in (2, 3, 4)
        ]
        means[name] = float(np.mean(scores))
    full = means["full"]
    ratios = {k: full / v for k, v in means.items() if k != "full"}
    ok = all(r <= 1.05 for r in ratios.values())
    detail = ", ".join(f"full/{k} {r:.3f}" for k, r in sorted(ratios.items()))
    _report(
        "criterion 7",
        ok,
        f"3-seed mean val MSLE ratios (each must be <= 1.05): {detail}; "
        f"means full {full:.3f}, " + ", ".join(f"{k} {v:.3f}" for k, v in sorted(means.items()) if k != "full"),
    )


def test_criterion_8_reproducibility(tmp_path):
    records, manifest = generate_synthetic(SyntheticSpec(num_users=80, num_cascades=30, seed=5))
    corpus = write_corpus(tmp_path / "data", records, manifest)
    config = TrainConfig(
        data=str(corpus), out=str(tmp_path / "run"), seed=2, epochs=3,
        **dict(DESK, batch_size=8, lr=3e-3, k_walks=4, walk_len=5, m_max=4,
               pe_dim=8, time_bins=16, embed_dim=8, lstm_hidden=6, gcn_hidden=8,
               d_model=8, heads=2, ff_hidden=12, mlp_sizes=(16, 8)),
    )

    def run_once():
        result = train(config)
        evaluate(result.checkpoint_dir, corpus, split="test", out_dir=tmp_path / "eval")
        return {
            "metrics": (tmp_path / "eval" / "metrics.json").read_bytes(),
            "weights": (result.checkpoint_dir / "weights.bin").read_bytes(),
            "manifest": (result.checkpoint_dir / "manifest.json").read_bytes(),
        }

    first = run_once()
    second = run_once()
    identical = all(first[k] == second[k] for k in first)

    # save -> load -> save must be byte-exact
    from hienet.nn.checkpoint import load_checkpoint, restore_into, save_checkpoint

    extra, weights = load_checkpoint(tmp_path / "run" / "checkpoint")
    model = HIENet(config, vocab=len(extra["users"]) + 1)
    restore_into(model.params(), weights)
    save_checkpoint(tmp_path / "again", model.params(), extra=extra)
    round_trip = (tmp_path / "again" / "weights.bin").read_bytes() == first["weights"] and (
        tmp_path / "again" / "manifest.json"
    ).read_bytes() == first["manifest"]

    ok = identical and round_trip
    _report(
        "criterion 8",
        ok,
        f"identical reruns -> identical metrics.json/checkpoint bytes: {identical}; "
        f"checkpoint save-load-save byte-exact: {round_trip}",
    )
