"""The exact cost of every compare policy on one config, as compare computes
it (cli._exact_cost), in full precision.

    python tests/exact_costs.py <config>

Prints one line per policy: its name, the cost's float.hex and its .12g
cell. Run it on two checkouts (with PYTHONPATH=src) to see which raw costs
a change moves and by how many ulps. pytest does not collect this file
(its name does not start with test_).
"""

import sys
from types import SimpleNamespace

from aoisched import cli, mdp
from aoisched.policies import POLICY_NAMES


def exact_costs(config: str) -> dict:
    """{policy: exact cost} of the eight compare policies on config."""
    cfg = cli.load_config(config)
    cache = {}
    policies = cli._policy_list(SimpleNamespace(policies=",".join(POLICY_NAMES)), cfg, cache)
    space, actions, factors = cli._joint_mdp(cfg, cache)
    joint = (space, actions, factors, mdp.cost_vector(space, cfg.system))
    return {policy.name: cli._exact_cost(policy, cfg.system, joint) for policy in policies}


if __name__ == "__main__":
    for name, cost in exact_costs(sys.argv[1]).items():
        print(f"{name:8s} {cost.hex():24s} {cost:{mdp.VALUE_FORMAT}}")
