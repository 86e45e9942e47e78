"""The exact cost of every compare policy on each given config, as compare
computes it (policies.exact_cost: the math.fsum of the chain_average_cost
of each of its exact_chains, one chain per sensor for round robin, the
randomized schedule and idle), in full precision.

    python tests/exact_costs.py <config> [<config> ...]

Prints `# <config>: <n> states`, n the state count of the space the costs
are evaluated on (compare's closed sub-grid), and then one line per policy:
its name, the cost's float.hex and its .12g cell. Run it on two checkouts
(with PYTHONPATH=src) to see which raw costs a change moves and by how many
ulps, and on which space each side evaluated them. pytest does not collect
this file (its name does not start with test_).
"""

import sys
from types import SimpleNamespace

from aoisched import cli, mdp
from aoisched.policies import POLICY_NAMES, exact_cost


def exact_costs(config: str) -> tuple:
    """(state count of the space evaluated on, {policy: exact cost}) of the
    eight compare policies on config."""
    cfg = cli.load_config(config)
    cache = {}
    policies = cli._policy_list(SimpleNamespace(policies=",".join(POLICY_NAMES)), cfg, cache)
    space = cli._joint_mdp(cfg, cache)
    return space.n_states, {policy.name: exact_cost(policy, space) for policy in policies}


if __name__ == "__main__":
    if len(sys.argv) < 2:
        print("usage: python tests/exact_costs.py <config> [<config> ...]", file=sys.stderr)
        sys.exit(2)
    for config in sys.argv[1:]:
        n_states, costs = exact_costs(config)
        print(f"# {config}: {n_states} states")
        for name, cost in costs.items():
            print(f"{name:8s} {cost.hex():24s} {cost:{mdp.VALUE_FORMAT}}")
