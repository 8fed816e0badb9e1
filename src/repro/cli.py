"""Command-line interface for the reproduction library.

Subcommands:

* ``train``    — train a model on a synthetic LRA task and optionally
                 save a checkpoint.
* ``simulate`` — compile a checkpoint to the accelerator's instruction
                 stream, replay it on the functional engines,
                 cross-validate against the software forward pass, and
                 print the latency model's BP compute cycles beside the
                 counted ones.
* ``estimate`` — analytical latency/resource/power estimate for a
                 workload on an accelerator configuration.
* ``codesign`` — run the joint design-space search and print the Pareto
                 front and the selected configuration.
* ``generate`` — decode a prompt from a decoder checkpoint.
* ``serve``    — run a concurrent request workload through the serving
                 engine and report TTFT / throughput metrics
                 (``--metrics-json`` dumps the full metrics snapshot).
                 ``--workers N`` selects the engine behind the unified
                 ``Engine`` protocol — in-process ``ServingEngine`` for
                 1, supervised multi-process ``ClusterEngine`` for
                 N >= 2 — through one engine-agnostic code path.
                 Worker processes are how serving uses several cores;
                 inside a process the only parallelism is BLAS's own
                 thread pool, and one BLAS thread is the byte-stable
                 setting.
                 ``--http PORT`` skips the synthetic workload and serves
                 the asyncio HTTP control plane (``/v1/generate``,
                 ``/v1/cancel``, ``/healthz``, ``/metrics``) until
                 SIGTERM, which drains in-flight requests;
                 ``--http-self-test`` starts the same server on an
                 ephemeral port and drives the workload through it over
                 real sockets.
* ``profile``  — run a short instrumented workload with telemetry
                 enabled and print the span tree and per-op totals
                 (``--trace-out`` writes a Chrome trace).
* ``chaos``    — run the same serving workload twice, fault-free and
                 under a seeded fault-injection schedule, and assert the
                 recovered run is token-bit-identical (the resilience
                 parity oracle).  With ``--workers N --kill-worker
                 {fault,sigkill}`` the oracle runs against the
                 multi-process cluster instead: a worker is killed
                 mid-decode (injected ``worker.step`` fatal fault or a
                 real ``SIGKILL``) and every failed-over session must
                 finish bit-identically to the fault-free cluster run.

Example::

    python -m repro.cli train --task text --model fabnet --epochs 3 \
        --save /tmp/fabnet.npz
    python -m repro.cli simulate --checkpoint /tmp/fabnet.npz --task text
    python -m repro.cli estimate --seq-len 1024 --d-hidden 768 --pbe 64
    python -m repro.cli codesign --task text --max-accuracy-loss 0.015
    python -m repro.cli generate --checkpoint /tmp/lm.npz --prompt "cat "
    python -m repro.cli serve --requests 8 --max-batch-size 4
    python -m repro.cli serve --requests 8 --workers 2 --quantize int8
    python -m repro.cli serve --requests 8 --metrics-json metrics.json
    python -m repro.cli serve --requests 16 --workers 2
    python -m repro.cli serve --http 8080 --max-queue-depth 32
    python -m repro.cli serve --http-self-test --requests 8 --workers 2
    python -m repro.cli profile --workload serve --trace-out trace.json
    python -m repro.cli chaos --requests 8 --min-faults 20
    python -m repro.cli chaos --workers 2 --kill-worker sigkill
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from . import QUANT_MODES


def _add_train_parser(subparsers) -> None:
    p = subparsers.add_parser("train", help="train a model on a synthetic LRA task")
    p.add_argument("--task", default="text",
                   choices=["listops", "text", "retrieval", "image", "pathfinder"])
    p.add_argument("--model", default="fabnet",
                   choices=["transformer", "fnet", "fabnet"])
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--lr", type=float, default=3e-3)
    p.add_argument("--d-hidden", type=int, default=32)
    p.add_argument("--n-total", type=int, default=2)
    p.add_argument("--n-abfly", type=int, default=0)
    p.add_argument("--seq-len", type=int, default=64)
    p.add_argument("--n-samples", type=int, default=320)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--save", default=None, help="checkpoint path (.npz)")


def _add_simulate_parser(subparsers) -> None:
    p = subparsers.add_parser(
        "simulate", help="run a checkpoint on the functional accelerator"
    )
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--task", default="text",
                   choices=["listops", "text", "retrieval", "image", "pathfinder"])
    p.add_argument("--n-samples", type=int, default=8)
    p.add_argument("--pbu", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)


def _add_estimate_parser(subparsers) -> None:
    p = subparsers.add_parser(
        "estimate", help="analytical latency/resource/power estimate"
    )
    p.add_argument("--seq-len", type=int, default=1024)
    p.add_argument("--d-hidden", type=int, default=768)
    p.add_argument("--r-ffn", type=int, default=4)
    p.add_argument("--n-total", type=int, default=12)
    p.add_argument("--n-abfly", type=int, default=0)
    p.add_argument("--n-heads", type=int, default=12)
    p.add_argument("--pbe", type=int, default=64)
    p.add_argument("--pbu", type=int, default=4)
    p.add_argument("--pqk", type=int, default=0)
    p.add_argument("--psv", type=int, default=0)
    p.add_argument("--pae", type=int, default=8)
    p.add_argument("--bandwidth-gbs", type=float, default=450.0)


def _add_codesign_parser(subparsers) -> None:
    p = subparsers.add_parser("codesign", help="joint design-space search")
    p.add_argument("--task", default="text",
                   choices=["listops", "text", "retrieval", "image", "pathfinder"])
    p.add_argument("--seq-len", type=int, default=4096)
    p.add_argument("--max-accuracy-loss", type=float, default=0.015)
    p.add_argument("--device", default="vcu128", choices=["vcu128", "zynq7045"])


def _add_generate_parser(subparsers) -> None:
    p = subparsers.add_parser(
        "generate", help="decode a prompt from a decoder checkpoint"
    )
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--prompt", default=None,
                   help="text prompt (character-LM vocabulary: a-z and space)")
    p.add_argument("--prompt-tokens", default=None,
                   help="comma-separated token ids (alternative to --prompt)")
    p.add_argument("--max-new-tokens", type=int, default=32)
    p.add_argument("--temperature", type=float, default=0.0)
    p.add_argument("--top-k", type=int, default=0)
    p.add_argument("--top-p", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quantize", default=None, choices=QUANT_MODES,
                   help="decode through a replica whose dense weights are "
                        "stored as int8")


def _add_serve_parser(subparsers) -> None:
    p = subparsers.add_parser(
        "serve", help="run a concurrent workload through the serving engine"
    )
    p.add_argument("--checkpoint", default=None,
                   help="decoder checkpoint; omit for a randomly initialized "
                        "tiny decoder (smoke/benchmark mode)")
    p.add_argument("--requests", type=int, default=8)
    p.add_argument("--max-batch-size", type=int, default=4)
    p.add_argument("--prompt-len", type=int, default=8)
    p.add_argument("--max-new-tokens", type=int, default=16)
    p.add_argument("--temperature", type=float, default=0.8)
    p.add_argument("--top-k", type=int, default=0)
    p.add_argument("--top-p", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quantize", default=None, choices=QUANT_MODES,
                   help="serve a replica whose dense weights are stored as "
                        "int8 (dequant-on-the-fly kernels)")
    # untrained-model shape knobs (ignored when --checkpoint is given)
    p.add_argument("--d-hidden", type=int, default=32)
    p.add_argument("--n-total", type=int, default=2)
    p.add_argument("--max-len", type=int, default=64)
    p.add_argument("--metrics-json", default=None, metavar="PATH",
                   help="write the engine metrics snapshot (aggregate + "
                        "per-instrument state) as JSON")
    p.add_argument("--workers", type=int, default=1,
                   help="number of serving worker processes; >= 2 routes "
                        "the workload through the supervised ClusterEngine")
    p.add_argument("--http", type=int, default=None, metavar="PORT",
                   help="serve the asyncio HTTP control plane on this port "
                        "(0 = ephemeral) instead of running the synthetic "
                        "workload; SIGTERM drains in-flight requests")
    p.add_argument("--http-host", default="127.0.0.1",
                   help="bind address for --http / --http-self-test")
    p.add_argument("--http-self-test", action="store_true",
                   help="start the HTTP server on an ephemeral port and "
                        "run the request workload through it over real "
                        "sockets (blocking + streaming), then exit")
    p.add_argument("--max-queue-depth", type=int, default=None,
                   help="enable queue-depth load shedding at this depth "
                        "(HTTP requests shed at the door get 429)")


#: Default chaos schedule: transient faults across all three serving
#: points, spaced so the engine recovers every one by retry (schedule
#: slots are consumed across rollbacks, so a retried step replays clean
#: unless the schedule says otherwise).
DEFAULT_CHAOS_SPEC = (
    "serving.prefill:transient:every=6,times=4;"
    "serving.decode_step:transient:every=3,times=12;"
    "serving.sample:transient:every=13,times=6"
)


def _add_chaos_parser(subparsers) -> None:
    p = subparsers.add_parser(
        "chaos",
        help="assert a fault-injected serving run is token-identical to "
             "a fault-free run",
    )
    p.add_argument("--spec", default=DEFAULT_CHAOS_SPEC,
                   help="fault schedule (repro.faults spec string)")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="seed for probabilistic fault rules")
    p.add_argument("--min-faults", type=int, default=20,
                   help="fail unless at least this many faults were injected")
    p.add_argument("--requests", type=int, default=8)
    p.add_argument("--max-batch-size", type=int, default=4)
    p.add_argument("--prompt-len", type=int, default=6)
    p.add_argument("--max-new-tokens", type=int, default=12)
    p.add_argument("--temperature", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-retries", type=int, default=3)
    # untrained-model shape knobs (same tiny decoder as `serve`)
    p.add_argument("--d-hidden", type=int, default=32)
    p.add_argument("--n-total", type=int, default=2)
    p.add_argument("--max-len", type=int, default=64)
    # cluster chaos: kill a worker mid-decode, assert bit-identical failover
    p.add_argument("--workers", type=int, default=1,
                   help="run the oracle against a multi-process cluster "
                        "of this many workers (>= 2 enables --kill-worker)")
    p.add_argument("--kill-worker", default=None,
                   choices=["fault", "sigkill"],
                   help="kill one worker mid-decode: 'fault' injects a "
                        "worker.step fatal fault, 'sigkill' sends a real "
                        "SIGKILL; failed-over sessions must finish "
                        "bit-identically to the fault-free cluster run")
    p.add_argument("--kill-after", type=int, default=6,
                   help="fault mode: worker steps before the injected kill; "
                        "sigkill mode: delivered tokens before the signal")


def _add_profile_parser(subparsers) -> None:
    p = subparsers.add_parser(
        "profile",
        help="run an instrumented workload and print the span tree",
    )
    p.add_argument("--workload", default="serve",
                   choices=["serve", "train"],
                   help="what to profile: a serving burst or a short "
                        "training fit")
    p.add_argument("--requests", type=int, default=8)
    p.add_argument("--max-new-tokens", type=int, default=16)
    p.add_argument("--max-batch-size", type=int, default=4)
    p.add_argument("--epochs", type=int, default=1)
    p.add_argument("--d-hidden", type=int, default=32)
    p.add_argument("--n-total", type=int, default=2)
    p.add_argument("--seq-len", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--top", type=int, default=10,
                   help="number of per-op rows in the top-ops table")
    p.add_argument("--min-share", type=float, default=0.005,
                   help="hide span-tree rows below this share of wall time")
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="write a Chrome trace_event JSON "
                        "(chrome://tracing / Perfetto)")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="write the global registry snapshot as "
                        "Prometheus text")


def _add_report_parser(subparsers) -> None:
    p = subparsers.add_parser(
        "report", help="markdown report of the analytical experiments"
    )
    p.add_argument("--output", default=None, help="write to a file instead of stdout")


def cmd_train(args) -> int:
    from .data import load_task
    from .io import save_model
    from .models import ModelConfig, build_model
    from .training import train_model_on_task

    kwargs = {"n_samples": args.n_samples, "seed": args.seed}
    if args.task in ("image", "pathfinder"):
        kwargs["grid"] = int(round(args.seq_len ** 0.5))
    else:
        kwargs["seq_len"] = args.seq_len
    dataset = load_task(args.task, **kwargs)
    if dataset.paired:
        print("error: the CLI trainer supports single-sequence tasks only",
              file=sys.stderr)
        return 2
    config = ModelConfig(
        vocab_size=dataset.vocab_size, n_classes=dataset.n_classes,
        max_len=dataset.seq_len, d_hidden=args.d_hidden, n_heads=4,
        r_ffn=2, n_total=args.n_total, n_abfly=args.n_abfly, seed=args.seed,
    )
    model = build_model(args.model, config)
    print(f"training {args.model} on {args.task} "
          f"({model.num_parameters():,} parameters)")
    result = train_model_on_task(
        model, dataset, epochs=args.epochs, lr=args.lr, seed=args.seed,
        log=print,
    )
    print(f"best test accuracy: {result.best_test_accuracy:.3f}")
    if args.save:
        path = save_model(model, args.save, builder=args.model)
        print(f"saved checkpoint to {path}")
    return 0


def cmd_simulate(args) -> int:
    import time

    from . import nn
    from .data import load_task
    from .hardware.config import AcceleratorConfig
    from .hardware.functional import ButterflyAccelerator
    from .hardware.isa import Opcode, compile_model
    from .hardware.perf import ButterflyPerformanceModel, WorkloadSpec
    from .io import load_model

    # One lane per QK/SV unit: the AP the simulator builds for pqk = psv = 0.
    config = AcceleratorConfig(pbe=1, pbu=args.pbu, pqk=1, psv=1)
    try:
        accel = ButterflyAccelerator(config)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    model = load_model(args.checkpoint)
    model.eval()
    cfg = model.config
    kwargs = {"n_samples": max(32, args.n_samples * 4), "seed": args.seed}
    if args.task in ("image", "pathfinder"):
        kwargs["grid"] = int(round(cfg.max_len ** 0.5))
    else:
        kwargs["seq_len"] = cfg.max_len
    dataset = load_task(args.task, **kwargs)
    tokens = dataset.x_test[: args.n_samples]
    program = compile_model(model)
    counts = ", ".join(f"{program.count(op)} {op.value}" for op in
                       (Opcode.EXEC_FFT2, Opcode.EXEC_ATTN, Opcode.EXEC_BFLY))
    print(f"program: {len(program)} instructions ({counts})")
    t0 = time.perf_counter()
    hw = accel.run(program, tokens)
    host_s = time.perf_counter() - t0
    with cfg.dtype_context(), nn.no_grad():
        sw = model(tokens).data
    err = float(np.abs(hw - sw).max())
    agree = int((hw.argmax(-1) == sw.argmax(-1)).sum())
    engine = accel.engine.cumulative_stats
    print(f"simulated {len(tokens)} samples: max |logit error| = {err:.3e}")
    print(f"prediction agreement: {agree}/{len(tokens)}")
    print(f"bank conflicts: {accel.trace.bank_conflicts}")
    print(f"pair ops: {engine.pair_ops}")
    print(f"read cycles: {engine.read_cycles}")
    report = ButterflyPerformanceModel(config).model_latency(WorkloadSpec(
        seq_len=tokens.shape[1], d_hidden=cfg.d_hidden, r_ffn=cfg.r_ffn,
        n_total=cfg.n_total, n_abfly=cfg.n_abfly, n_heads=cfg.n_heads,
    ))
    modeled = sum(layer.compute_cycles for layer in report.layers
                  if layer.name.startswith(("bfly:", "fft:")))
    counted = engine.pair_ops / (len(tokens) * config.pbe * config.pbu)
    print(f"BP compute cycles per sample: {modeled:.1f} modeled, "
          f"{counted:.1f} counted")
    print(f"host time: {host_s:.3f} s "
          f"({host_s * 1e6 / max(engine.pair_ops, 1):.2f} us per pair-op)")
    return 0 if err < 1e-6 else 1


def cmd_estimate(args) -> int:
    from .hardware import (
        AcceleratorConfig,
        ButterflyPerformanceModel,
        WorkloadSpec,
        estimate_power,
        estimate_resources,
    )

    spec = WorkloadSpec(
        seq_len=args.seq_len, d_hidden=args.d_hidden, r_ffn=args.r_ffn,
        n_total=args.n_total, n_abfly=args.n_abfly, n_heads=args.n_heads,
    )
    config = AcceleratorConfig(
        pbe=args.pbe, pbu=args.pbu, pae=args.pae, pqk=args.pqk, psv=args.psv,
        bandwidth_gbs=args.bandwidth_gbs,
    )
    report = ButterflyPerformanceModel(config).model_latency(spec)
    resources = estimate_resources(config)
    power = estimate_power(config, resources)
    print(f"latency: {report.latency_ms:.3f} ms "
          f"({report.total_cycles:,.0f} cycles @ {config.clock_mhz:.0f} MHz)")
    print(f"resources: {resources.dsps} DSPs, {resources.brams} BRAMs, "
          f"{resources.luts:,} LUTs, {resources.registers:,} registers")
    print(f"power: {power.total:.2f} W (dynamic {power.dynamic:.2f} W)")
    for kind, cycles in sorted(report.cycles_by_kind().items()):
        print(f"  {kind:>6s}: {cycles:,.0f} cycles "
              f"({100 * cycles / report.total_cycles:.1f}%)")
    return 0


def cmd_codesign(args) -> int:
    from .codesign import SurrogateAccuracyOracle, run_codesign
    from .hardware.config import DEVICES

    oracle = SurrogateAccuracyOracle(task=args.task)
    result = run_codesign(
        oracle, seq_len=args.seq_len, device=DEVICES[args.device],
        max_accuracy_loss=args.max_accuracy_loss,
    )
    print(f"evaluated {len(result.points)} design points; Pareto front:")
    for p in result.pareto:
        print(f"  Dhid={p.spec.d_hidden:<5d} Rffn={p.spec.r_ffn} "
              f"Ntotal={p.spec.n_total} NABfly={p.spec.n_abfly} "
              f"Pbe={p.config.pbe:<4d} acc={p.accuracy:.3f} "
              f"lat={p.latency_ms:.3f}ms")
    if result.selected is None:
        print("no design satisfies the accuracy constraint")
        return 1
    sel = result.selected
    print(f"selected: Dhid={sel.spec.d_hidden} Rffn={sel.spec.r_ffn} "
          f"Ntotal={sel.spec.n_total} NABfly={sel.spec.n_abfly} "
          f"Pbe={sel.config.pbe} Pbu={sel.config.pbu} "
          f"Pqk={sel.config.pqk} Psv={sel.config.psv} "
          f"acc={sel.accuracy:.3f} lat={sel.latency_ms:.3f}ms")
    return 0


def _fmt(value, spec: str, fallback: str = "n/a") -> str:
    """Format a possibly-None metric (None when no tokens were produced)."""
    return format(value, spec) if value is not None else fallback


def _load_decoder(checkpoint: str):
    from .io import load_model

    model = load_model(checkpoint)
    if not hasattr(model, "decode_step"):
        print("error: checkpoint is not a decoder language model", file=sys.stderr)
        return None
    return model.eval()


def _render_tokens(tokens, vocab_size: int) -> str:
    from .data.charlm import VOCAB_SIZE, decode_tokens

    ids = " ".join(str(int(t)) for t in np.asarray(tokens).reshape(-1))
    if vocab_size == VOCAB_SIZE:
        return f"{decode_tokens(tokens)!r}  (ids: {ids})"
    return ids


def cmd_generate(args) -> int:
    from .data.charlm import encode_text

    model = _load_decoder(args.checkpoint)
    if model is None:
        return 2
    if (args.prompt is None) == (args.prompt_tokens is None):
        print("error: provide exactly one of --prompt / --prompt-tokens",
              file=sys.stderr)
        return 2
    if args.prompt_tokens is not None:
        prompt = np.array([int(t) for t in args.prompt_tokens.split(",")],
                          dtype=np.int64)
    else:
        prompt = encode_text(args.prompt)
    if (prompt.size == 0 or prompt.min() < 0
            or prompt.max() >= model.config.vocab_size):
        print("error: prompt is empty or out of the model's vocabulary",
              file=sys.stderr)
        return 2
    if args.quantize:
        from .nn import quantize_for_inference

        model = quantize_for_inference(model, mode=args.quantize)
    sequence = model.generate(
        prompt[None, :], args.max_new_tokens,
        temperature=args.temperature, top_k=args.top_k, top_p=args.top_p,
        rng=np.random.default_rng(args.seed),
    )[0]
    print(_render_tokens(sequence, model.config.vocab_size))
    return 0


def _build_engine(args, model, worker_faults=None, resilience=None):
    """One engine-agnostic construction path (the ``Engine`` protocol).

    ``--workers 1`` builds the in-process :class:`ServingEngine`,
    ``--workers N`` the supervised :class:`ClusterEngine`; every
    consumer downstream (the workload loop, the HTTP server, the chaos
    oracle) talks to the returned engine through the protocol only.
    """
    from .serving import LoadSheddingAdmission, ServingEngine

    admission = None
    if getattr(args, "max_queue_depth", None) is not None:
        admission = LoadSheddingAdmission(max_queue_depth=args.max_queue_depth)
    if args.workers >= 2:
        from .serving.cluster import ClusterEngine

        return ClusterEngine(
            model, workers=args.workers, max_batch_size=args.max_batch_size,
            admission=admission, seed=args.seed,
            quantize=getattr(args, "quantize", None),
            resilience=resilience,
            worker_faults=worker_faults,
        )
    return ServingEngine(
        model, max_batch_size=args.max_batch_size, admission=admission,
        seed=args.seed, quantize=getattr(args, "quantize", None),
        resilience=resilience,
    )


def _submit_workload(args, engine, vocab: int, max_len: int):
    """Submit the synthetic request mix; returns the request ids."""
    from .serving import SamplingParams

    rng = np.random.default_rng(args.seed)
    ids = []
    for i in range(args.requests):
        prompt_len = max(1, min(args.prompt_len + (i % 3), max_len))
        prompt = rng.integers(1, vocab, size=prompt_len)
        ids.append(engine.submit(prompt, SamplingParams(
            max_new_tokens=args.max_new_tokens,
            temperature=args.temperature,
            top_k=getattr(args, "top_k", 0), top_p=getattr(args, "top_p", 1.0),
            seed=args.seed + i,
        )))
    return ids


def _tiny_decoder(args, max_len: int):
    """The butterfly decoder ``serve``, ``chaos`` and ``profile`` build
    from ``--d-hidden``, ``--n-total`` and ``--seed`` (at ``serve``'s
    defaults, ``benchmarks/e2e/serving_common.TINY_DECODER``)."""
    from .models import ModelConfig, build_butterfly_decoder

    config = ModelConfig(
        vocab_size=28, n_classes=2, max_len=max_len,
        d_hidden=args.d_hidden, n_heads=4, r_ffn=2,
        n_total=args.n_total, seed=args.seed,
    )
    return build_butterfly_decoder(config).eval()


def cmd_serve(args) -> int:
    if args.checkpoint:
        model = _load_decoder(args.checkpoint)
        if model is None:
            return 2
    else:
        model = _tiny_decoder(args, args.max_len)
    engine = _build_engine(args, model)
    if args.http is not None:
        from .serving.server import run_http_server

        run_http_server(engine, host=args.http_host, port=args.http)
        return 0
    if args.http_self_test:
        return _serve_http_self_test(args, engine, model)
    if engine.model is not model:  # a ServingEngine's stored replica
        from .nn import weight_memory_bytes

        ratio = weight_memory_bytes(engine.model) / weight_memory_bytes(model)
        print(f"serving {args.quantize} replica: dense layers stored, "
              f"butterfly ladders fp, weight memory x{ratio:.2f}")
    _submit_workload(args, engine, model.config.vocab_size,
                     model.config.max_len)
    results = engine.drain(timeout_s=600.0)
    for rid in sorted(results):
        summary = engine.metrics.requests[rid].summary()
        print(f"request {rid}: {summary['new_tokens']} tokens, "
              f"ttft {_fmt(summary['ttft_ms'], '.1f')} ms, "
              f"{results[rid].finish_reason}")
    snap = engine.metrics_snapshot()
    agg = snap["aggregate"]
    print(f"served {agg['completed']}/{agg['requests']} requests on "
          f"{args.workers} worker(s) in {agg['steps']} steps: "
          f"{_fmt(agg['tokens_per_s'], '.0f')} tokens/s, "
          f"mean ttft {_fmt(agg['mean_ttft_ms'], '.1f')} ms, "
          f"max queue depth {agg['max_queue_depth']}, "
          f"mean batch {_fmt(agg['mean_batch_size'], '.2f')}")
    for slot, info in sorted(snap.get("workers", {}).items()):
        hb = info["heartbeat"]
        print(f"worker {slot}: pid {info['pid']}, "
              f"{int(hb.get('steps', 0))} steps, "
              f"{info['restarts']} restarts")
    if args.metrics_json:
        import json

        with open(args.metrics_json, "w") as handle:
            json.dump(snap, handle, indent=2, sort_keys=True)
        print(f"wrote metrics snapshot to {args.metrics_json}")
    return 0 if agg["completed"] == agg["requests"] else 1


def _serve_http_self_test(args, engine, model) -> int:
    """Drive the request workload through the HTTP server over real
    sockets: concurrent blocking and SSE-streaming requests, health and
    metrics probes, then a drain-stop.  Engine-agnostic (same path for
    ``--workers 1`` and ``--workers N``)."""
    import http.client
    import json
    import threading

    from .serving.server import start_http_server

    server = start_http_server(engine, host=args.http_host)
    failures: List[str] = []
    statuses: List[int] = []

    def _request(method, path, body=None):
        conn = http.client.HTTPConnection(
            args.http_host, server.port, timeout=120
        )
        try:
            conn.request(
                method, path,
                body=None if body is None else json.dumps(body),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def _one(i: int) -> None:
        rng = np.random.default_rng(args.seed + i)
        prompt_len = max(1, min(args.prompt_len + (i % 3),
                                model.config.max_len))
        prompt = [int(t) for t in
                  rng.integers(1, model.config.vocab_size, size=prompt_len)]
        body = {
            "prompt": prompt, "max_new_tokens": args.max_new_tokens,
            "temperature": args.temperature, "seed": args.seed + i,
            "stream": i % 2 == 1,
        }
        status, payload = _request("POST", "/v1/generate", body)
        statuses.append(status)
        if status != 200:
            failures.append(f"request {i}: HTTP {status}: {payload[:120]!r}")
        elif body["stream"] and b"event: end" not in payload:
            failures.append(f"request {i}: stream missing terminal event")

    try:
        status, payload = _request("GET", "/healthz")
        if status != 200:
            failures.append(f"healthz: HTTP {status}: {payload[:120]!r}")
        threads = [
            threading.Thread(target=_one, args=(i,))
            for i in range(args.requests)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        status, payload = _request("GET", "/metrics")
        if status != 200 or b"http_requests_total" not in payload:
            failures.append("metrics: missing per-endpoint HTTP counters")
    finally:
        server.stop()
        engine.close()
    agg = engine.metrics.aggregate()
    print(f"http self-test: {len(statuses)} requests over "
          f"http://{args.http_host}:{server.port} on {args.workers} "
          f"worker(s), {agg['completed']} completed, "
          f"mean ttft {_fmt(agg['mean_ttft_ms'], '.1f')} ms")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("http self-test OK")
    return 0


def _chaos_parity(baseline_ids, baseline, ids, results, skip_errors: bool):
    """Compare a chaos run to its fault-free baseline token-by-token.

    Returns ``(recovered, failures)``.  ``skip_errors`` exempts requests
    deliberately failed by single-request fault isolation (the
    in-process injection mode); process-kill failover must recover every
    session, so cluster mode never skips.
    """
    failures = []
    recovered = 0
    for base_id, request_id in zip(baseline_ids, ids):
        want = baseline[base_id]
        got = results[request_id]
        if not got.finished:
            failures.append(
                f"request {request_id} never finished (hung/lost)"
            )
        elif skip_errors and got.finish_reason == "error":
            continue  # deliberately failed by fault isolation
        elif got.tokens != want.tokens \
                or got.finish_reason != want.finish_reason:
            failures.append(
                f"request {request_id} diverged: {got.finish_reason} "
                f"{got.tokens} != {want.finish_reason} {want.tokens}"
            )
        else:
            recovered += 1
    return recovered, failures


def cmd_chaos(args) -> int:
    """Chaos parity oracle: recovered runs must match fault-free runs.

    The workload runs through :func:`_build_engine`, so single- and
    multi-worker chaos share one engine-agnostic path; only the fault
    *scenario* differs (in-process injection spec vs. worker kills).
    """
    from . import faults
    from .serving import ResilienceConfig

    model = _tiny_decoder(args, args.max_len)
    if args.kill_worker is not None and args.workers < 2:
        print("error: --kill-worker needs --workers >= 2 (failover "
              "requires a survivor)", file=sys.stderr)
        return 2
    if faults.active():
        print("error: a fault injector is already installed "
              "(unset REPRO_FAULTS)", file=sys.stderr)
        return 2
    cluster_mode = args.workers >= 2
    resilience = None if cluster_mode else ResilienceConfig(
        max_retries=args.max_retries)

    def run_workload(worker_faults=None, hook=None):
        engine = _build_engine(
            args, model, worker_faults=worker_faults, resilience=resilience,
        )
        try:
            ids = _submit_workload(args, engine, vocab=28,
                                   max_len=args.max_len)
            if hook is not None:
                results = engine.run(timeout_s=600.0, hook=hook)
            else:
                results = engine.drain(timeout_s=600.0)
            snapshot = engine.metrics_snapshot()
        finally:
            engine.close()
        return ids, results, snapshot

    if cluster_mode:
        baseline_ids, baseline, _ = run_workload()
        victim = args.workers - 1  # load balancing guarantees it has work
        worker_faults = None
        hook = None
        if args.kill_worker == "fault":
            worker_faults = {
                victim: f"worker.step:fatal:after={args.kill_after}"
            }
        elif args.kill_worker == "sigkill":
            state = {"killed": False}

            def hook(cluster):
                if state["killed"]:
                    return
                delivered = cluster.metrics.aggregate()["total_new_tokens"]
                if delivered >= args.kill_after:
                    state["killed"] = cluster.kill_worker(victim)

        ids, results, snapshot = run_workload(worker_faults, hook)
        recovered, failures = _chaos_parity(
            baseline_ids, baseline, ids, results, skip_errors=False,
        )
        inst = snapshot["instruments"]

        def _count(name):
            return int(inst.get(name, {}).get("value", 0))

        deaths = sum(
            _count(f"cluster_worker_deaths_total{{worker={s}}}")
            for s in range(args.workers)
        )
        if args.kill_worker is not None and deaths == 0:
            failures.append(
                "no worker death observed; the kill never landed "
                "(raise --kill-after ceiling or request more tokens)"
            )
        print(f"worker deaths: {deaths}, sessions requeued: "
              f"{_count('cluster_requeued_sessions_total')}, "
              f"failovers: {_count('cluster_failovers_total')}, "
              f"replayed tokens: {_count('cluster_replayed_tokens_total')}")
        print(f"{recovered}/{args.requests} sessions finished "
              f"bit-identically to the fault-free cluster run")
    else:
        baseline_ids, baseline, _ = run_workload()
        with faults.use_faults(args.spec, seed=args.fault_seed) as injector:
            ids, results, snapshot = run_workload()
            injected = injector.snapshot()
        recovered, failures = _chaos_parity(
            baseline_ids, baseline, ids, results, skip_errors=True,
        )
        if injected["injected_total"] < args.min_faults:
            failures.append(
                f"only {injected['injected_total']} faults injected "
                f"(need >= {args.min_faults}); widen --spec"
            )
        for point_kind, count in sorted(injected["injected"].items()):
            print(f"injected {count:>3d} x {point_kind}")
        inst = snapshot["instruments"]
        for name in ("serving_fault_retries_total",
                     "serving_fault_rollbacks_total",
                     "serving_request_errors_total"):
            print(f"{name}: {int(inst.get(name, {}).get('value', 0))}")
        errored = sum(
            1 for r in results.values() if r.finish_reason == "error"
        )
        print(f"{recovered}/{args.requests} requests recovered "
              f"bit-identically, {errored} isolated as errors")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("cluster chaos parity OK" if cluster_mode else "chaos parity OK")
    return 0


def cmd_profile(args) -> int:
    from . import telemetry

    was_on = telemetry.enabled()
    telemetry.enable()
    telemetry.clear_all()
    try:
        return _profile_instrumented(args, telemetry)
    finally:
        telemetry.STATE.on = was_on


def _profile_instrumented(args, telemetry) -> int:
    import time

    t0 = time.perf_counter()
    with telemetry.span("profile.workload", workload=args.workload):
        if args.workload == "serve":
            from .serving import SamplingParams, ServingEngine

            model = _tiny_decoder(args, args.seq_len)
            engine = ServingEngine(
                model, max_batch_size=args.max_batch_size, seed=args.seed,
            )
            rng = np.random.default_rng(args.seed)
            for i in range(args.requests):
                prompt = rng.integers(1, 28, size=8)
                engine.submit(prompt, SamplingParams(
                    max_new_tokens=args.max_new_tokens, temperature=0.8,
                    seed=args.seed + i,
                ))
            engine.run()
        else:
            from .data import load_task
            from .models import ModelConfig, build_model
            from .training import train_model_on_task

            dataset = load_task("text", seq_len=args.seq_len, n_samples=96,
                                seed=args.seed)
            config = ModelConfig(
                vocab_size=dataset.vocab_size, n_classes=dataset.n_classes,
                max_len=dataset.seq_len, d_hidden=args.d_hidden, n_heads=4,
                r_ffn=2, n_total=args.n_total, seed=args.seed,
            )
            model = build_model("fabnet", config)
            train_model_on_task(model, dataset, epochs=args.epochs,
                                seed=args.seed)
    wall_s = time.perf_counter() - t0

    print(telemetry.render_span_tree(min_share=args.min_share))
    print()
    print(f"{'op':<40} {'count':>8} {'total ms':>10}")
    for op in telemetry.top_ops(args.top):
        print(f"{op['name']:<40} {op['count']:>8d} "
              f"{op['total_s'] * 1e3:>10.2f}")
    roots = [n for p, n in telemetry.span_tree().items() if len(p) == 1]
    covered = sum(n["total_s"] for n in roots)
    print(f"\nspan coverage: {covered * 1e3:.1f} ms of {wall_s * 1e3:.1f} ms "
          f"wall time ({100 * covered / wall_s:.0f}%)")
    dropped = telemetry.get_collector().dropped
    if dropped:
        print(f"warning: {dropped} spans dropped (collector full)")
    if args.trace_out:
        telemetry.write_chrome_trace(args.trace_out)
        print(f"wrote Chrome trace to {args.trace_out}")
    if args.metrics_out:
        with open(args.metrics_out, "w") as handle:
            handle.write(telemetry.render_prometheus())
        print(f"wrote Prometheus text to {args.metrics_out}")
    return 0


def cmd_report(args) -> int:
    from .analysis.reports import generate_report

    report = generate_report()
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report)
        print(f"wrote report to {args.output}")
    else:
        print(report)
    return 0


_COMMANDS = {
    "train": cmd_train,
    "simulate": cmd_simulate,
    "estimate": cmd_estimate,
    "codesign": cmd_codesign,
    "generate": cmd_generate,
    "serve": cmd_serve,
    "chaos": cmd_chaos,
    "profile": cmd_profile,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Butterfly accelerator reproduction toolkit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_train_parser(subparsers)
    _add_simulate_parser(subparsers)
    _add_estimate_parser(subparsers)
    _add_codesign_parser(subparsers)
    _add_generate_parser(subparsers)
    _add_serve_parser(subparsers)
    _add_chaos_parser(subparsers)
    _add_profile_parser(subparsers)
    _add_report_parser(subparsers)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
