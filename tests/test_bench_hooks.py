"""The benchmark's tracer still finds the layer entry points it times.

``perfbench/instrument.py`` wraps fbse functions and methods by name; a
refactor that renames one, or stops calling it on its path, leaves the
per-layer metrics reading zero without any error. This runs a tiny stream
through ``stream_push``, a tiny offline forward and one untaped whole-sequence
call under the tracer, and checks that each path recorded the spans of the
entry points the benchmark reads on it.
"""

import os

import numpy as np

from fbse import dsp, layers, model, streaming

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_tracer_sees_the_layer_kernels(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import instrument
    from tracer import NAME

    m = model.Enhancer(model.ModelConfig.tiny(), seed=0)
    bins = m.cfg.bins
    rng = np.random.default_rng(0)
    x = rng.uniform(-0.5, 0.5, 6 * streaming.BLOCK_SAMPLES)
    spectra = [(rng.standard_normal((4, bins)), rng.standard_normal((4, bins)))] * 3
    originals = (layers.Conv1d.step, layers.conv1d_forward)
    with instrument.FbseTracer().install() as tr:
        tr.add_model(m)
        state = streaming.stream_create(m)
        for lo in range(0, x.size, streaming.BLOCK_SAMPLES):
            streaming.stream_push(state, x[lo : lo + streaming.BLOCK_SAMPLES])
        pushed = len(tr.spans)
        m.forward(dsp.AudioBuffer(x, dsp.FULLBAND_RATE))
        offline = len(tr.spans)
        m.enhance_spectra(spectra)
        names = [s[NAME] for s in tr.spans]
    stream, forward, whole = names[:pushed], names[pushed:offline], names[offline:]
    for name in ("model.Enhancer.stream_step", "layers.Conv1d.step", "layers.Lstm.step",
                 "layers.PReLU.step"):
        assert stream.count(name) > 0, name
    assert "model.Enhancer.enhance_spectra" not in stream
    assert forward.count("model.Enhancer.enhance_spectra") > 0
    for name in ("layers.conv1d_forward", "layers.lstm_seq_forward"):
        assert whole.count(name) > 0, name
    assert (layers.Conv1d.step, layers.conv1d_forward) == originals
