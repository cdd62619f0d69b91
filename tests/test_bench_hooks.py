"""The benchmark's tracer still finds the layer entry points it times.

``perfbench/instrument.py`` wraps fbse functions and methods by name; a
refactor that renames one, or stops calling it on its path, leaves the
per-layer metrics reading zero without any error. This runs one tiny
streaming step and one tiny offline forward under the tracer and checks
that each wrapped layer entry recorded spans.
"""

import os

import numpy as np

from fbse import layers, model

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_tracer_sees_the_layer_kernels(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import instrument
    from tracer import NAME

    m = model.Enhancer(model.ModelConfig.tiny(), seed=0)
    bins = m.cfg.bins
    rng = np.random.default_rng(0)
    frame = [(rng.standard_normal(bins), rng.standard_normal(bins))] * model.NUM_CHANNELS
    spectra = [(rng.standard_normal((4, bins)), rng.standard_normal((4, bins)))] * len(frame)
    originals = (layers.Conv1d.step, layers.conv1d_forward)
    with instrument.FbseTracer().install() as tr:
        tr.add_model(m)
        m.stream_step(m.init_stream_state(), frame)
        m.enhance_spectra(spectra)
        names = [s[NAME] for s in tr.spans]
    for name in ("layers.Conv1d.step", "layers.Lstm.step", "layers.PReLU.step",
                 "layers.conv1d_forward", "layers.lstm_seq_forward"):
        assert names.count(name) > 0, name
    assert (layers.Conv1d.step, layers.conv1d_forward) == originals
