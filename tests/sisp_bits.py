"""The per-sensor SISP solves of each given config, in full precision.

    python tests/sisp_bits.py <config> [<config> ...] [--caps 7,10,14]

Prints `# <config> cap <cap>` (`cap own` without --caps) and then one line
per sensor: its number, its gain's float.hex, its RVI iteration count, and
the sha256 of its values and of its eq columns. Without --caps each config is solved at its own caps, as
`solve --policy sisp` solves it; with --caps at each cap in turn, as the
`simulate --caps` probe solves it. Run it on two checkouts (with
PYTHONPATH=src) to see whether a change moves a bit of SISP. pytest does
not collect this file (its name does not start with test_).
"""

import argparse
import hashlib
import sys

from aoisched import cli, decomposed, sim


def sisp_bits(system, p_r) -> list:
    """[(gain, iterations, values sha256, eq sha256)] of each sensor of
    system, solved under the scheduling probabilities p_r."""
    iterations = []
    solve = decomposed.relative_value_iteration

    def counted(*args):
        vt, policy = solve(*args)
        iterations.append(vt.iterations)
        return vt, policy

    decomposed.relative_value_iteration = counted
    try:
        values = decomposed.solve_sisp_values(system, p_r)
    finally:
        decomposed.relative_value_iteration = solve
    return [
        (pv.gain, it, *(hashlib.sha256(a.tobytes()).hexdigest() for a in (pv.values, pv.eq)))
        for pv, it in zip(values, iterations)
    ]


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("configs", nargs="+")
    parser.add_argument("--caps", help="comma separated truncation caps")
    args = parser.parse_args(argv)
    caps = [int(c) for c in args.caps.split(",")] if args.caps else [None]
    for config in args.configs:
        cfg = cli.load_config(config)
        p_r = cli._scheduling_probs(cfg)
        for cap in caps:
            system = cfg.system if cap is None else sim.with_caps(cfg.system, cap)
            print(f"# {config} cap {cap or 'own'}")
            for i, (gain, it, values, eq) in enumerate(sisp_bits(system, p_r), 1):
                print(f"{i} {gain.hex():24s} {it:5d} {values} {eq}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
