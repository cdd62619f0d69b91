"""Command-line surface: enhance, analyze, gradcheck, mix, sdr, selftest.

Exit codes: 0 success, 1 usage error, 2 bad input audio, 3 bad checkpoint,
4 self-check failure.
"""

import argparse
import json
import resource
import sys
import time

import numpy as np

from . import __version__, audio_io, dsp, gradcheck, model, streaming, training
from .errors import CheckpointError, ConfigError, EmptyInputError, FbseError, InvalidSampleRateError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BAD_AUDIO = 2
EXIT_BAD_CHECKPOINT = 3
EXIT_CHECK_FAILED = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load_model(args):
    """The model of the common options; an unreadable config raises :class:`ConfigError`."""
    try:
        cfg = model.load_config(args.config) if args.config else model.ModelConfig.default()
    except OSError as exc:
        raise ConfigError(exc) from exc
    m = model.Enhancer(cfg, seed=args.seed)
    if getattr(args, "checkpoint", None):
        m.store.load(args.checkpoint)
    return m


def _read_nonempty(path):
    """A WAV with at least one sample; bad audio raises an :class:`FbseError`."""
    buf = audio_io.read_wav(path)
    if buf.length == 0:
        raise EmptyInputError(f"{path}: holds no samples")
    return buf


def _read_48k(path):
    """A 48 kHz WAV with at least one sample; bad audio raises an :class:`FbseError`."""
    buf = _read_nonempty(path)
    if buf.sample_rate != dsp.FULLBAND_RATE:
        raise InvalidSampleRateError(f"{path}: engine input must be 48 kHz, got {buf.sample_rate}")
    return buf


def _write_output(path, buf, fmt) -> bool:
    """Write the output WAV; an unwritable path prints one line and gives False."""
    try:
        audio_io.write_wav(path, buf, fmt=fmt)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return False
    return True


def _print_report(report: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for key, value in report.items():
            if isinstance(value, dict):
                print(f"{key}:")
                for k2, v2 in value.items():
                    print(f"  {k2}: {v2}")
            else:
                print(f"{key}: {value}")


def cmd_enhance(args) -> int:
    try:
        m = _load_model(args)
    except (CheckpointError,) as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_BAD_CHECKPOINT
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        audio = _read_48k(args.input)
    except (FbseError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_BAD_AUDIO
    t0 = time.perf_counter()
    if args.streaming:
        out = streaming.enhance_streaming(m, audio)
    else:
        out = m.forward(audio)
    elapsed = time.perf_counter() - t0
    if not _write_output(args.output, out, args.format):
        return EXIT_USAGE
    frames = dsp.frame_count(-(-audio.length // 3))
    per_frame_ms = 1000.0 * elapsed / max(frames, 1)
    report = {
        "input": str(args.input),
        "output": str(args.output),
        "mode": "streaming" if args.streaming else "offline",
        "samples": audio.length,
        "duration_s": round(audio.duration, 6),
        "frames": frames,
        "elapsed_s": round(elapsed, 4),
        "per_frame_ms": round(per_frame_ms, 4),
        "rtf": round(per_frame_ms / streaming.HOP_MS, 4),
        "algorithmic_latency_ms": streaming.LatencyReport().algorithmic_ms,
        "sdr_in_out_db": round(training.sdr(audio, out), 3),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    _print_report(report, args.report)
    return EXIT_OK


def cmd_analyze(args) -> int:
    per_module = _load_model(args).complexity()
    total_params = sum(m["params"] for m in per_module.values())
    macs_s = sum(m["macs_per_frame"] for m in per_module.values()) * model.FRAMES_PER_SECOND
    report = {
        "modules": {name: {"params": d["params"],
                           "macs_per_second": d["macs_per_frame"] * model.FRAMES_PER_SECOND}
                    for name, d in per_module.items()},
        "total_params": total_params,
        "total_params_millions": round(total_params / 1e6, 3),
        "total_macs_per_second": macs_s,
        "total_macs_per_second_billions": round(macs_s / 1e9, 3),
        "frames_per_second": model.FRAMES_PER_SECOND,
        "algorithmic_latency_ms": streaming.LatencyReport().algorithmic_ms,
        "counting_convention": "convolution/matmul multiplies only; "
                               "elementwise gates and norms excluded",
    }
    _print_report(report, args.report)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results = gradcheck.run_all(seeds=range(args.seed, args.seed + args.seeds))
    worst = {}
    failed = False
    for r in results:
        worst[r.name] = max(worst.get(r.name, 0.0), r.max_rel_err)
        failed |= not r.passed
    if args.report == "json":
        print(json.dumps({"checks": {k: {"max_rel_err": v, "passed": v <= gradcheck.REL_TOL}
                                     for k, v in worst.items()},
                          "seeds": args.seeds, "passed": not failed}, indent=2))
    else:
        for name, err in worst.items():
            status = "PASS" if err <= gradcheck.REL_TOL else "FAIL"
            print(f"{status}  {name:15s} max_rel_err={err:.3e} over {args.seeds} seeds")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def cmd_mix(args) -> int:
    try:
        clean = _read_48k(args.clean)
        noise = _read_48k(args.noise)
        rng = np.random.default_rng(args.seed)
        noisy, scaled_clean = training.mix_at_snr(clean, noise, args.snr, rng)
    except (FbseError, ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_BAD_AUDIO
    if not _write_output(args.output, noisy, args.format):
        return EXIT_USAGE
    noise_part = noisy.samples - scaled_clean.samples
    measured = 10.0 * np.log10(np.sum(scaled_clean.samples**2) / np.sum(noise_part**2))
    _print_report({"output": str(args.output), "requested_snr_db": args.snr,
                   "measured_snr_db": round(float(measured), 4)}, args.report)
    return EXIT_OK


def cmd_sdr(args) -> int:
    try:
        ref = _read_nonempty(args.reference)
        est = _read_nonempty(args.estimate)
        value = training.sdr(ref, est)
    except (FbseError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_BAD_AUDIO
    _print_report({"sdr_db": round(value, 4)}, args.report)
    return EXIT_OK


def cmd_selftest(args) -> int:
    from . import selftest

    results = selftest.run_all(verbose=True)
    return EXIT_OK if all(ok for _, ok, _ in results) else EXIT_CHECK_FAILED


def build_parser() -> _Parser:
    p = _Parser(prog="fbse", description=__doc__)
    p.add_argument("--version", action="version", version=f"fbse {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, checkpoint=False):
        sp.add_argument("--config", help="model config file (default: built-in full-size config)")
        if checkpoint:
            sp.add_argument("--checkpoint", help="parameter checkpoint to load")
        sp.add_argument("--seed", type=int, default=0, help="deterministic seed")
        sp.add_argument("--report", choices=("text", "json"), default="text")

    sp = sub.add_parser("enhance", help="denoise a 48 kHz mono wav")
    sp.add_argument("input")
    sp.add_argument("output")
    sp.add_argument("--streaming", action="store_true", help="run the block-wise real-time path")
    sp.add_argument("--format", choices=("float32", "pcm16"), default="float32")
    common(sp, checkpoint=True)
    sp.set_defaults(func=cmd_enhance)

    sp = sub.add_parser("analyze", help="report parameter/MAC/latency accounting")
    common(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("gradcheck", help="finite-difference check of every layer")
    sp.add_argument("--seeds", type=int, default=3, help="seeds per layer")
    common(sp)
    sp.set_defaults(func=cmd_gradcheck)

    sp = sub.add_parser("mix", help="mix clean speech with noise at an SNR")
    sp.add_argument("clean")
    sp.add_argument("noise")
    sp.add_argument("output")
    sp.add_argument("--snr", type=float, required=True, help="target SNR in dB")
    sp.add_argument("--format", choices=("float32", "pcm16"), default="float32")
    common(sp)
    sp.set_defaults(func=cmd_mix)

    sp = sub.add_parser("sdr", help="energy-ratio SDR between two aligned wavs")
    sp.add_argument("reference")
    sp.add_argument("estimate")
    common(sp)
    sp.set_defaults(func=cmd_sdr)

    sp = sub.add_parser("selftest", help="run the bundled acceptance checks")
    common(sp)
    sp.set_defaults(func=cmd_selftest)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except FbseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
