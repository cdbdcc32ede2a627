"""The benchmark wraps program functions by name.

``perfbench/layers.py`` replaces functions where their callers look them up
(``hienet.train``, ``hienet.features``, ``hienet.social`` module globals and
``HIENet`` methods) for the traced run, and ``perfbench/worker.py``'s
``Boundaries`` replaces four ``hienet.train`` names for the untraced run.
Installing and removing every hook here catches a rename or deletion that
would otherwise only fail a benchmark run.
"""

import importlib
import math

from perfbench.layers import LayerCounts, autodiff_nodes, install_layers
from perfbench.trace import Tracer
from perfbench.worker import Boundaries

import hienet
from hienet.cascade import build_global_graph
from hienet.config import TrainConfig
from hienet.features import build_batch, featurize_corpus
from hienet.model import HIENet, msle_loss
from hienet.nn.optim import Adam
from hienet.synth import SyntheticSpec, generate_synthetic, write_corpus


def test_benchmark_hook_points_install_and_restore():
    train_module = importlib.import_module("hienet.train")
    before = {name: getattr(train_module, name) for name in ("build_batch", "featurize_corpus")}
    forward = HIENet.forward
    tracer = Tracer()
    install_layers(tracer, LayerCounts())
    try:
        assert all(getattr(train_module, n) is not f for n, f in before.items())
        assert HIENet.forward is not forward
    finally:
        tracer.restore()
    assert all(getattr(train_module, n) is f for n, f in before.items())
    assert HIENet.forward is forward


def test_untraced_boundaries_install_and_restore():
    """The untraced run builds its config from the package and times a call
    between the ``hienet.train`` names ``Boundaries`` replaces."""
    train_module = importlib.import_module("hienet.train")
    names = ("build_batch", "msle_loss", "save_checkpoint")
    before = {name: getattr(train_module, name) for name in names}
    step = train_module.Adam.step
    assert hienet.TrainConfig().batch_size >= 1
    marks = Boundaries()
    marks.install()
    try:
        assert all(getattr(train_module, n) is not f for n, f in before.items())
        assert train_module.Adam.step is not step
    finally:
        marks.restore()
    assert all(getattr(train_module, n) is f for n, f in before.items())
    assert train_module.Adam.step is step


def test_inference_batches_reach_the_traced_names():
    """perfbench's setup and step boundaries and its traced
    ``model.predict_logs_ms`` see evaluation batches only while
    ``_batched_predict`` looks ``build_batch`` up as a ``hienet.train``
    global and ``predict_logs`` is a ``HIENet`` class attribute."""
    assert "predict_logs" in vars(HIENet)
    records, _ = generate_synthetic(SyntheticSpec(num_users=40, num_cascades=5, seed=3))
    graph = build_global_graph(records)
    config = TrainConfig(seed=0)
    feats = featurize_corpus(records, graph, config)
    train_module = importlib.import_module("hienet.train")
    tracer = Tracer()
    install_layers(tracer, LayerCounts())
    try:
        preds = train_module._batched_predict(HIENet(config, vocab=graph.vocab), feats)
    finally:
        tracer.restore()
    names = [span.name for span in tracer.spans]
    assert preds.shape == (len(feats),)
    assert names.count("features.build_batch") == names.count("model.predict_logs") == 1


def test_featurize_calls_every_feature_hook():
    """A hooked name that featurize no longer calls would report 0 ms in a
    traced run without failing anything, so one cascade must reach them all."""
    records, _ = generate_synthetic(SyntheticSpec(num_users=40, num_cascades=4, seed=3))
    graph = build_global_graph(records)
    config = TrainConfig(seed=0)
    tracer = Tracer()
    counts = LayerCounts()
    install_layers(tracer, counts)
    try:
        (feats,) = featurize_corpus(records[:1], graph, config)
    finally:
        tracer.restore()
    names = {span.name for span in tracer.spans}
    hooks = ("snapshots.feature_matrix", "snapshots.build", "walks.sample", "social.weight", "social.path")
    for hooked in hooks:
        assert hooked in names
    # the traced social.adjacent_pair_frac reads each returned path's hop count
    assert counts.adjacent_pairs > 0
    # the traced walks.pad_frac counts the sampler's PAD slots, which the features drop
    assert counts.walk_steps == config.k_walks * config.walk_len
    assert counts.pad_steps == counts.walk_steps - feats.walk_lengths[feats.walk_of].sum()


def _default_batch():
    """A default-config model and its first B=32 batch of the default corpus."""
    config = TrainConfig(seed=0)
    records, _ = generate_synthetic(SyntheticSpec())
    records = records[: config.batch_size]
    graph = build_global_graph(records)
    feats = featurize_corpus(records, graph, config)
    return config, HIENet(config, vocab=graph.vocab), build_batch(feats)


def test_default_step_records_few_autodiff_nodes():
    """Each LSTM direction and the fusion attention are one node each, so a
    default-config step (B=32, K=N=10) records a fixed, small graph."""
    config, model, batch = _default_batch()
    assert (config.batch_size, config.k_walks, config.walk_len) == (32, 10, 10)
    f_cs = model.encode_cascade_sequence(
        batch.walk_idx, batch.walk_lengths, batch.walk_of, batch.size
    )
    loss = msle_loss(model.forward(batch), batch.true_logs)
    assert autodiff_nodes(f_cs) <= 12
    assert autodiff_nodes(loss) <= 60


def test_default_step_runs_two_sparse_products():
    """The snapshot GCN's propagations are folded into its features, so a
    default step records 52 nodes and two sparse products: the social rows'
    and the snapshot pooling's."""
    _, model, batch = _default_batch()
    loss = msle_loss(model.forward(batch), batch.true_logs)
    ops = [node._op for node in loss._graph() if node._backward is not None]
    assert len(ops) == autodiff_nodes(loss) == 52
    assert ops.count("sparse_matmul") == 2
    # the traced run counts the graph after backward, which frees gradients, not nodes
    loss.backward()
    assert autodiff_nodes(loss) == 52


def test_train_reaches_save_checkpoint_once_after_its_last_step(tmp_path, monkeypatch):
    """``Boundaries`` ends the epoch loop at ``hienet.train.save_checkpoint``,
    so the best epoch's weights, written whenever val improves, must reach
    the disk under another name, and the one save must follow the last step."""
    train_module = importlib.import_module("hienet.train")
    calls = []
    save, step = train_module.save_checkpoint, Adam.step

    def recorded(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(train_module, "save_checkpoint", recorded("save", save))
    monkeypatch.setattr(Adam, "step", recorded("step", step))
    records, manifest = generate_synthetic(SyntheticSpec(num_users=40, num_cascades=20, seed=3))
    data = write_corpus(tmp_path / "corpus", records, manifest)
    config = TrainConfig(data=str(data), out=str(tmp_path / "run"), epochs=2, batch_size=8, seed=0)
    hienet.train(config)
    assert "step" in calls and calls.count("save") == 1 and calls[-1] == "save"


def test_traced_optimizer_counts_read_a_real_step():
    """The traced run reads each gradient's size and the embedding tables'
    touched rows at ``Adam.step``; a gradient form it cannot read would
    otherwise only fail a ``--trace 1`` benchmark run."""
    config, model, batch = _default_batch()
    opt = Adam(model.params(), lr=config.lr)
    msle_loss(model.forward(batch), batch.true_logs).backward()
    opt.step()
    counts = LayerCounts()
    counts.on_adam(None, (opt,))
    (grad_bytes,) = counts.grad_bytes
    (touched,) = counts.touched
    assert 0 < grad_bytes < math.inf
    assert 0 < touched <= 1
