#!/usr/bin/env python3
"""Pull entropy through the full protocol and run the statistical suite.

Runs in-process with simulated sources by default; pass --url to test a
live server instead (requires a provisioned store).
"""

import argparse
from fractions import Fraction

from eaas import client as eaas_client
from eaas.harness import ScenarioSpec, run_scenario
from eaas.stats import stats_suite


def via_simulation(mib: int, seed: int) -> None:
    delta_s = 16_384
    requests = mib * (1 << 20) // delta_s
    spec = ScenarioSpec(n_clients=1, requests_per_client=requests,
                        delta_s=delta_s, max_delta_s=delta_s,
                        throttle_capacity=Fraction(10 ** 6),
                        collect_entropy=True)
    report = run_scenario(spec, seed)
    print(report.to_text())


def via_server(url: str, store: str, mib: int) -> None:
    identity = eaas_client.provision(store)
    delta_s = 4096
    chunks = []
    total = mib * (1 << 20)
    while sum(map(len, chunks)) < total:
        chunks.append(eaas_client.request_entropy(identity, url, delta_s))
    data = b"".join(chunks)[:total]
    for name, result in stats_suite(data).items():
        print(f"{name:12s} statistic={result.statistic:10.3f} "
              f"pass={result.passed}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mib", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--url", help="live server URL")
    parser.add_argument("--store", help="identity store for --url mode")
    args = parser.parse_args()

    if args.url:
        if not args.store:
            parser.error("--url requires --store")
        via_server(args.url, args.store, args.mib)
    else:
        via_simulation(args.mib, args.seed)


if __name__ == "__main__":
    main()
