#!/usr/bin/env python3
"""Show the KV-cache transfer cost between prompt and token machines.

For a range of prompt lengths, compares the raw wire time of shipping
the KV cache against the latency actually visible to the request when
the transfer is overlapped layer-by-layer with prompt computation.
Short prompts fall back to a serialized transfer; long prompts hide
almost the whole transfer behind compute.
"""

import argparse

from splitsim import LLM_SPECS, default_transfer_config, get_calibration, plan_transfer


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--llm", default="llama2-70b")
    args = parser.parse_args()

    model = get_calibration(args.llm, "H100")
    num_layers = LLM_SPECS[args.llm].num_layers
    for name, machine_type in (("H100 pair", "H100"), ("A100 pair", "A100")):
        link = default_transfer_config(machine_type, machine_type, num_layers)
        print(f"{name}: {link.bandwidth/1e9:.0f} Gbit/s, layer-wise overlap "
              f"from {link.mode_threshold_tokens} prompt tokens")
        print(f"  {'tokens':>7} {'compute':>10} {'raw':>10} {'visible':>10}  mode")
        for tokens in (128, 256, 512, 1024, 1500, 2048, 4096, 8192):
            compute = model.prompt_time(tokens)
            kv_bytes = model.kv_cache_bytes(tokens)
            plan = plan_transfer(tokens, kv_bytes, compute, link)
            print(f"  {tokens:>7} {compute:>7.1f} ms {plan.raw_time:>7.2f} ms "
                  f"{plan.visible_latency:>7.2f} ms  {plan.mode}")
        print()


if __name__ == "__main__":
    main()
