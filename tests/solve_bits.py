"""The full-grid optimal solve of each given config, in full precision.

    python tests/solve_bits.py <config> [<config> ...]

Prints one line per config: the config, the depth D of the full grid
outside its closed sub-grid (the largest of StateSpace.depths, `none` when a
sensor's depth is unbounded, `-` on a checkout without depths), the RVI
iteration count K, the gain's float.hex and the sha256 of the values and of
the action indices of mdp.solve_optimal_policy on the full grid, the solve
that `solve --policy optimal` writes. Run it on two checkouts (with
PYTHONPATH=src) to see whether a change moves a bit of the solve. pytest
does not collect this file (its name does not start with test_).
"""

import argparse
import hashlib
import sys

from aoisched import cli, mdp


def depth(space) -> str:
    """The largest sensor depth of space, as printed."""
    depths = getattr(space, "depths", None)
    if depths is None:
        return "-"
    return "none" if None in depths else str(max(depths))


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("configs", nargs="+")
    args = parser.parse_args(argv)
    for config in args.configs:
        cfg = cli.load_config(config)
        space = cli._check_state_budget(cfg.system, cfg.max_states)
        vt, pt = mdp.solve_optimal_policy(space)
        values, actions = (
            hashlib.sha256(a.tobytes()).hexdigest() for a in (vt.values, pt.action_index)
        )
        print(f"{config} D {depth(space)} K {vt.iterations} {vt.gain.hex()} {values} {actions}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
