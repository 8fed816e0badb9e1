"""Serving subsystem demo: concurrent requests through ``ServingEngine``.

The ROADMAP's north star is a system serving heavy traffic; this example
shows the inference runtime doing exactly that at toy scale:

1. train a small butterfly decoder LM on the synthetic character grammar;
2. submit a burst of concurrent requests with mixed sampling parameters
   (greedy, temperature, top-k, nucleus) and a deliberately small batch
   cap, so the continuous-batching scheduler queues, admits, compacts
   and interleaves prefill with decode;
3. stream one request token-by-token while the rest decode alongside it;
4. report per-request TTFT/latency and the aggregate throughput metrics.

Run:  python examples/serving_demo.py
"""

import numpy as np

from repro import nn
from repro.data.charlm import VOCAB_SIZE, decode_tokens, encode_text, generate_charlm
from repro.models import ModelConfig, build_butterfly_decoder
from repro.serving import SamplingParams, ServingEngine


def train_tiny_lm() -> nn.Module:
    config = ModelConfig(
        vocab_size=VOCAB_SIZE, n_classes=2, max_len=48, d_hidden=64,
        n_heads=4, r_ffn=2, n_total=2, seed=0,
    )
    model = build_butterfly_decoder(config)
    train, _ = generate_charlm(n_samples=120, seq_len=48, seed=0)
    optimizer = nn.Adam(model.parameters(), lr=3e-3)
    rng = np.random.default_rng(0)
    for epoch in range(3):
        order = rng.permutation(len(train))
        losses = []
        for start in range(0, len(train), 16):
            batch = train[order[start:start + 16]]
            loss = model.loss(batch)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
        print(f"  epoch {epoch + 1}: train loss {np.mean(losses):.3f}")
    return model.eval()


def main() -> None:
    print("training a tiny butterfly decoder on the synthetic grammar:")
    model = train_tiny_lm()

    engine = ServingEngine(model, max_batch_size=4, seed=0)
    workloads = [
        ("cat ", SamplingParams(max_new_tokens=20, temperature=0.0)),
        ("dog ", SamplingParams(max_new_tokens=20, temperature=0.7, seed=1)),
        ("bird ", SamplingParams(max_new_tokens=20, temperature=0.9, top_k=8,
                                 seed=2)),
        ("fox ", SamplingParams(max_new_tokens=20, temperature=0.9, top_p=0.9,
                                seed=3)),
        ("ant ", SamplingParams(max_new_tokens=20, temperature=0.8, top_k=12,
                                seed=4)),
        ("cat sees ", SamplingParams(max_new_tokens=14, temperature=0.6,
                                     seed=5)),
    ]
    ids = {}
    for text, params in workloads:
        ids[engine.submit(encode_text(text), params)] = text

    # Stream the first request live; the other five decode in the same
    # batched steps (continuous batching, not one-request-at-a-time).
    first = next(iter(ids))
    print(f"\nstreaming request {first} ({ids[first]!r}):")
    streamed = [token for token in engine.stream(first)]
    print(f"  -> {decode_tokens(np.array(streamed))!r}")

    results = engine.run()
    print("\nall requests:")
    for rid, text in ids.items():
        result = results[rid]
        metric = engine.metrics.requests[rid].summary()
        print(f"  [{rid}] {text!r:12s} -> "
              f"{decode_tokens(np.array(result.tokens))!r:24s} "
              f"({result.finish_reason}, ttft {metric['ttft_ms']:.1f} ms)")

    agg = engine.metrics.aggregate()
    print(f"\naggregate: {agg['completed']}/{agg['requests']} requests, "
          f"{agg['total_new_tokens']} tokens in {agg['steps']} steps, "
          f"{agg['tokens_per_s']:.0f} tokens/s, "
          f"mean ttft {agg['mean_ttft_ms']:.1f} ms, "
          f"max queue depth {agg['max_queue_depth']}, "
          f"mean batch {agg['mean_batch_size']:.2f}")


if __name__ == "__main__":
    main()
