#!/usr/bin/env python3
"""Compare a request flood with throttling on and off.

With the token bucket (C=5, r=1/s) the attacker gets a bounded number of
grants and honest clients stay served; with throttling disabled the same
flood drains the slow sources and honest clients see entropy-depleted.
"""

import argparse
from fractions import Fraction

from eaas.harness import ScenarioSpec, run_scenario


def summarize(label, report):
    honest = [o.outcome for o in report.outcomes if o.client >= 0]
    granted = report.counters["attacker_granted"]
    success = sum(o == "success" for o in honest)
    print(f"{label}:")
    print(f"  attacker requests granted : {granted}")
    print(f"  honest outcomes           : {honest}")
    print(f"  honest success rate       : {success}/{len(honest)}")
    print(f"  pool credit floor (bits)  : "
          f"{report.pool_credit_floor_bits}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--flood-rate", type=int, default=200,
                        help="attacker requests per second")
    parser.add_argument("--duration", type=int, default=3, metavar="S")
    parser.add_argument("--honest", type=int, default=4)
    args = parser.parse_args()

    run = dict(kind="depletion", flood_rate=args.flood_rate,
               duration_s=args.duration, honest_clients=args.honest,
               source_max_rate=Fraction(256), source_density=Fraction(3, 4))

    report = run_scenario(ScenarioSpec(**run, throttle_enabled=True),
                          args.seed)
    summarize("throttle ON  (C=5, r=1/s)", report)

    report = run_scenario(ScenarioSpec(**run, throttle_enabled=False),
                          args.seed)
    summarize("throttle OFF (unbounded)", report)


if __name__ == "__main__":
    main()
