#!/usr/bin/env python3
"""Run every adversary action against a simulated fleet and print the
resulting client/server error for each, plus an untouched control row."""

import argparse
from fractions import Fraction

from eaas.harness import (
    AdversaryAction,
    AdversaryKind,
    ScenarioSpec,
    run_scenario,
)

ACTIONS = [
    AdversaryKind.TAMPER_PK,
    AdversaryKind.TAMPER_DELTA_S,
    AdversaryKind.TAMPER_SIGMA1,
    AdversaryKind.TAMPER_HINT,
    AdversaryKind.TAMPER_WRAPPED_KEY,
    AdversaryKind.TAMPER_NONCE,
    AdversaryKind.TAMPER_CIPHERTEXT,
    AdversaryKind.TAMPER_SIG2,
    AdversaryKind.DROP,
    AdversaryKind.DELAY,
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    actions = [AdversaryAction(kind, target=i)
               for i, kind in enumerate(ACTIONS)]
    # replay the first clean request's response into the following one
    actions.append(AdversaryAction(AdversaryKind.REPLAY_RESPONSE,
                                   target=len(ACTIONS)))
    spec = ScenarioSpec(kind="adversary", n_clients=1,
                        requests_per_client=len(ACTIONS) + 2,
                        throttle_capacity=Fraction(1000), actions=actions)
    report = run_scenario(spec, seed=args.seed)

    print(f"{'action':28s} outcome")
    print("-" * 50)
    for i, kind in enumerate(ACTIONS):
        print(f"{kind.value:28s} {report.outcomes[i].outcome}")
    print(f"{'(clean request)':28s} {report.outcomes[len(ACTIONS)].outcome}")
    print(f"{'replay-response':28s} "
          f"{report.outcomes[len(ACTIONS) + 1].outcome}")


if __name__ == "__main__":
    main()
