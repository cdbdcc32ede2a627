"""The benchmark's traced run wraps program functions by name.

``perfbench/layers.py`` replaces functions where their callers look them up
(``hienet.train``, ``hienet.features``, ``hienet.social`` module globals and
``HIENet`` methods). Installing and removing every hook here catches a
rename or deletion that would otherwise only fail a ``--trace 1`` run.
"""

import importlib

from perfbench.layers import LayerCounts, install_layers
from perfbench.trace import Tracer

from hienet.model import HIENet


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
