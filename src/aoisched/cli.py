"""Configuration-driven command line front end.

Subcommands: solve, simulate, stability, thresholds, compare. A YAML config
describes the system (channel, sensors, budget, truncation), policy
parameters, simulation parameters and the output directory. Every output
CSV starts with a provenance comment carrying the config hash; numbers are
printed with 12 significant digits so reruns diff cleanly.

Exit codes: 0 success, 2 configuration/validation error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from . import decomposed, mdp, policies as pol, sim, stability
from .dynamics import TRAJECTORY_HEADER
from .model import (
    BernoulliArrival,
    ChannelSpec,
    ConvergenceError,
    EstimationTracePenalty,
    ExponentialPenalty,
    MarkovArrival,
    SensorSpec,
    SystemSpec,
    solve_steady_state_covariance,
)

DEFAULT_MAX_STATES = 2_000_000
DEFAULT_POLICIES = "sisp,maf,rr,rand"


class ConfigError(ValueError):
    """Schema or range violation in the config file or flags."""


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return format(value, mdp.VALUE_FORMAT)
    return str(value)


def _write_csv(out_dir: Path, name: str, config_hash: str, rows):
    """Open out_dir/name, write its provenance line and then each row, and
    return the open file. A row is a sequence of _fmt cells (floats with 12
    significant digits), joined by commas and ended by "\r\n", or a bytes
    block of such lines (mdp.table_rows). No cell the CLI writes holds a
    comma, quote or line break, so these are the bytes csv.writer would
    write."""
    out_dir.mkdir(parents=True, exist_ok=True)
    fh = (out_dir / name).open("w", newline="")
    try:
        fh.write(f"# config_sha256={config_hash}\n")
        fh.flush()
        fh.buffer.writelines(
            row if isinstance(row, bytes) else (",".join(map(_fmt, row)) + "\r\n").encode()
            for row in rows
        )
    except BaseException:
        fh.close()
        raise
    return fh


def _reject_unknown(section: dict, allowed, path: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected a mapping")
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}")


def _need(section: dict, key: str, path: str):
    if not isinstance(section, dict) or key not in section:
        raise ConfigError(f"{path}: missing required key '{key}'")
    return section[key]


def _number(value, path: str) -> float:
    """value as a float. A YAML boolean (yes, no, true, false) is refused,
    not read as 1.0 or 0.0."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"{path}: expected a number, got {value!r}")


def _prob(value, path: str, strict: bool = False) -> float:
    v = _number(value, path)
    lo = 0.0 < v if strict else 0.0 <= v
    hi = v < 1.0 if strict else v <= 1.0
    if not (lo and hi):
        rng = "(0,1)" if strict else "[0,1]"
        raise ConfigError(f"{path}: probability must lie in {rng}, got {v}")
    return v


def _posint(value, path: str, minimum: int = 1) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigError(f"{path}: expected an integer >= {minimum}, got {value!r}")
    return value


def _matrix(value, path: str) -> np.ndarray:
    """value as a 2-D float matrix. A YAML boolean cell, which numpy would
    read as 1.0 or 0.0, is refused by _number with its path."""
    for i, row in enumerate(value if isinstance(value, list) else ()):
        for j, v in enumerate(row if isinstance(row, list) else ()):
            if isinstance(v, bool):
                _number(v, f"{path}[{i}][{j}]")
    try:
        m = np.array(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{path}: expected a numeric matrix") from None
    if m.ndim != 2:
        raise ConfigError(f"{path}: expected a 2-D matrix, got shape {m.shape}")
    return m


def _parse_arrival(section, path: str):
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected a mapping with a 'kind' key")
    kind = _need(section, "kind", path)
    if kind == "bernoulli":
        _reject_unknown(section, {"kind", "rate"}, path)
        return BernoulliArrival(_prob(_need(section, "rate", path), f"{path}.rate"))
    if kind == "markov":
        _reject_unknown(section, {"kind", "stay_empty", "stay_active"}, path)
        return MarkovArrival(
            _prob(_need(section, "stay_empty", path), f"{path}.stay_empty"),
            _prob(_need(section, "stay_active", path), f"{path}.stay_active"),
        )
    raise ConfigError(f"{path}.kind: must be 'bernoulli' or 'markov', got {kind!r}")


def _parse_penalty(section, path: str):
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected a mapping with a 'kind' key")
    kind = _need(section, "kind", path)
    if kind == "exponential":
        _reject_unknown(section, {"kind", "r"}, path)
        r = _number(_need(section, "r", path), f"{path}.r")
        try:
            return ExponentialPenalty(r)
        except ValueError as exc:
            raise ConfigError(f"{path}.r: {exc}") from None
    if kind == "estimation_trace":
        allowed = {"kind", "a", "sigma_w", "p_bar", "c", "r_meas"}
        _reject_unknown(section, allowed, path)
        a = _matrix(_need(section, "a", path), f"{path}.a")
        sigma_w = _matrix(_need(section, "sigma_w", path), f"{path}.sigma_w")
        if "p_bar" in section:
            p_bar = _matrix(section["p_bar"], f"{path}.p_bar")
        elif "c" in section and "r_meas" in section:
            c = _matrix(section["c"], f"{path}.c")
            r_meas = _matrix(section["r_meas"], f"{path}.r_meas")
            p_bar = solve_steady_state_covariance(a, c, sigma_w, r_meas)
        else:
            raise ConfigError(
                f"{path}: estimation_trace needs either p_bar or both c and r_meas"
            )
        try:
            return EstimationTracePenalty(a, sigma_w, p_bar)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    raise ConfigError(
        f"{path}.kind: must be 'exponential' or 'estimation_trace', got {kind!r}"
    )


@dataclass
class LoadedConfig:
    system: SystemSpec
    p_r: Optional[tuple]
    horizon: int
    replications: int
    warmup: int
    seed: int
    out_dir: Path
    max_states: int
    config_hash: str


def load_config(path) -> LoadedConfig:
    path = Path(path)
    try:
        raw_bytes = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    config_hash = hashlib.sha256(raw_bytes).hexdigest()
    try:
        raw = yaml.safe_load(raw_bytes)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    _reject_unknown(
        raw,
        {"channel", "budget", "truncation", "sensors", "policy", "simulation", "output"},
        str(path),
    )

    ch = _need(raw, "channel", str(path))
    _reject_unknown(ch, {"kappa00", "kappa11"}, "channel")
    channel = ChannelSpec(
        _prob(_need(ch, "kappa00", "channel"), "channel.kappa00", strict=True),
        _prob(_need(ch, "kappa11", "channel"), "channel.kappa11", strict=True),
    )

    trunc = raw.get("truncation", {})
    _reject_unknown(trunc, {"max_aori", "max_aoli", "max_states"}, "truncation")
    default_aori = trunc.get("max_aori")
    default_aoli = trunc.get("max_aoli", default_aori)
    max_states = trunc.get("max_states", DEFAULT_MAX_STATES)
    if "max_states" in trunc:
        max_states = _posint(max_states, "truncation.max_states")

    sensors_raw = _need(raw, "sensors", str(path))
    if not isinstance(sensors_raw, list) or not sensors_raw:
        raise ConfigError("sensors: expected a non-empty list")
    sensors = []
    for i, s in enumerate(sensors_raw):
        spath = f"sensors[{i}]"
        _reject_unknown(
            s, {"arrival", "penalty", "p0", "p1", "max_aori", "max_aoli"}, spath
        )
        aori = s.get("max_aori", default_aori)
        if aori is None:
            raise ConfigError(f"{spath}: max_aori missing and no truncation default")
        aoli = s.get("max_aoli", default_aoli if "max_aori" not in s else s.get("max_aori"))
        aori = _posint(aori, f"{spath}.max_aori")
        aoli = _posint(aoli, f"{spath}.max_aoli", minimum=0)
        sensors.append(
            SensorSpec(
                arrival=_parse_arrival(_need(s, "arrival", spath), f"{spath}.arrival"),
                penalty=_parse_penalty(_need(s, "penalty", spath), f"{spath}.penalty"),
                p0=_prob(_need(s, "p0", spath), f"{spath}.p0"),
                p1=_prob(_need(s, "p1", spath), f"{spath}.p1"),
                max_aoli=aoli,
                max_aori=aori,
            )
        )

    budget = _posint(_need(raw, "budget", str(path)), "budget")
    try:
        system = SystemSpec(tuple(sensors), channel, budget)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    p_r = None
    if "policy" in raw:
        _reject_unknown(raw["policy"], {"p_r"}, "policy")
        if "p_r" in raw["policy"]:
            vals = raw["policy"]["p_r"]
            if not isinstance(vals, list) or len(vals) != system.n_sensors:
                raise ConfigError("policy.p_r: expected one probability per sensor")
            p_r = tuple(
                _prob(v, f"policy.p_r[{i}]", strict=True) for i, v in enumerate(vals)
            )

    simc = raw.get("simulation", {})
    _reject_unknown(simc, {"horizon", "replications", "warmup", "seed"}, "simulation")
    horizon = _posint(simc.get("horizon", 1000), "simulation.horizon")
    replications = _posint(simc.get("replications", 500), "simulation.replications")
    warmup = _posint(simc.get("warmup", 0), "simulation.warmup", minimum=0)
    seed = _posint(simc.get("seed", 0), "simulation.seed", minimum=0)
    if horizon <= warmup:
        raise ConfigError("simulation.horizon must exceed simulation.warmup")

    outc = raw.get("output", {})
    _reject_unknown(outc, {"dir"}, "output")
    out_dir = Path(outc.get("dir", "out"))

    return LoadedConfig(
        system, p_r, horizon, replications, warmup, seed, out_dir, max_states, config_hash
    )


def _check_state_budget(system: SystemSpec, max_states: int) -> mdp.StateSpace:
    """The full grid of system, refused when it has more than max_states
    states."""
    space = mdp.StateSpace(system)
    if space.n_states > max_states:
        raise ConfigError(
            f"state space too large: N={system.n_sensors}, "
            f"caps={[(s.max_aoli, s.max_aori) for s in system.sensors]}, "
            f"budget={system.m_budget}: {space.n_states} states "
            f"> max_states {max_states}"
        )
    return space


def _check_sisp(system: SystemSpec, cfg: LoadedConfig) -> None:
    """Refuse SISP on system when policy.p_r sums over the budget, or when a
    sensor's dense n_i x n_i kernels exceed max_states. The randomized
    schedule thins its draws, so it takes any policy.p_r."""
    p_r, m, max_states = cfg.p_r, system.m_budget, cfg.max_states
    if p_r is not None and sum(p_r) > m + 1e-12:
        raise ConfigError(
            f"policy.p_r: sum of scheduling probabilities {sum(p_r):g} exceeds budget {m}"
        )
    for i, sensor in enumerate(system.sensors):
        n_i = mdp.sensor_space(sensor, system.channel).n_states
        if n_i**2 > max_states:
            raise ConfigError(
                f"state space too large: sensor {i + 1} has {n_i} states, and its "
                f"{n_i**2} dense kernel entries exceed max_states {max_states}"
            )


def _sisp_table(cfg: LoadedConfig) -> tuple:
    """(space, per-sensor values, table, n_copied, n_violations) of the SISP
    table; stderr names the first state where threshold persistence fails."""
    space = _check_state_budget(cfg.system, cfg.max_states)
    values = _build_policy("sisp", cfg, {}).values
    table, copied, violations = decomposed.build_policy_table_with_pruning(values, space)
    if len(violations):
        print(
            f"sisp: threshold persistence fails at {len(violations)} states, first "
            f"state {violations[0]}; the table is the argmin at every state",
            file=sys.stderr,
        )
    return space, values, table, copied, len(violations)


def _joint_mdp(cfg: LoadedConfig, cache: dict) -> mdp.StateSpace:
    """The joint MDP's closed sub-grid, one per cache, once the full grid
    has passed the state budget: the optimal solve and the exact
    evaluations of one compare share its factors."""
    if "joint" not in cache:
        _check_state_budget(cfg.system, cfg.max_states)
        cache["joint"] = mdp.StateSpace(cfg.system, closed=True)
    return cache["joint"]


def _scheduling_probs(cfg: LoadedConfig) -> tuple:
    """policy.p_r, or when it is not given the arrival-rate proportional
    default, which needs every arrival rate positive."""
    if cfg.p_r is not None:
        return cfg.p_r
    try:
        return decomposed.default_randomized_probs(cfg.system)
    except ValueError as exc:
        raise ConfigError(f"policy.p_r: not given, and {exc}") from None


def _build_policy(name: str, cfg: LoadedConfig, cache: dict) -> pol.Policy:
    """Build policy `name` once per cache; the cache also holds the joint MDP."""
    system = cfg.system
    if name not in pol.POLICY_NAMES:
        raise ConfigError(
            f"unknown policy '{name}'; choose from {', '.join(pol.POLICY_NAMES)}"
        )
    if name in cache:
        return cache[name]
    if name == "optimal":
        space = _joint_mdp(cfg, cache)
        _, pt = mdp.solve_optimal_policy(space)
        policy = pol.TablePolicy("optimal", space, pt)
    elif name == "sisp":
        _check_sisp(system, cfg)
        p_r = _scheduling_probs(cfg)
        policy = decomposed.SispPolicy(decomposed.solve_sisp_values(system, p_r))
    elif name == "myopic":
        _check_state_budget(pol.myopic_system(system), cfg.max_states)
        policy = pol.build_myopic_policy(system)
    elif name == "maf":
        policy = pol.MafPolicy(system.m_budget)
    elif name == "mef":
        policy = pol.MefPolicy(system)
    elif name == "rr":
        policy = pol.RoundRobinPolicy(system.n_sensors, system.m_budget)
    elif name == "rand":
        policy = pol.RandomizedSchedule(_scheduling_probs(cfg), system.m_budget)
    else:  # idle
        policy = pol.IdlePolicy(system.n_sensors)
    cache[name] = policy
    return policy


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    out_dir = Path(args.out) if args.out else cfg.out_dir
    t0 = time.perf_counter()
    # summary columns in file order; wall_time_s is set once the solve is done
    if args.policy == "optimal":
        space = _check_state_budget(cfg.system, cfg.max_states)
        vt, pt = mdp.solve_optimal_policy(space)
        rows = mdp.table_rows(space, vt.values, pt)
        gain = vt.gain
        summary = {"gain": gain, "iterations": vt.iterations, "wall_time_s": None}
    elif args.policy == "sisp":
        space, sensor_values, pt, copied, violations = _sisp_table(cfg)
        rows = mdp.table_rows(space, None, pt)
        # the summed per-sensor gains: the cost of the randomized policy the
        # values are solved under, not of the SISP table
        gain = sum(v.gain for v in sensor_values)
        summary = {"randomized_gain": gain, "iterations": "", "wall_time_s": None}
        summary["pruned_states"] = copied
        summary["persistence_violations"] = violations
    else:  # myopic: its own space has no buffer age and no value column
        myopic = _build_policy("myopic", cfg, {})
        space = myopic.space
        columns = ("state_index", "aori", "theta", "action_bits")
        rows = mdp.table_rows(space, None, myopic.table, columns)
        gain = myopic.gain
        summary = {"gain": gain, "wall_time_s": None}
    wall = summary["wall_time_s"] = time.perf_counter() - t0

    _write_csv(out_dir, f"{args.policy}_table.csv", cfg.config_hash, rows).close()
    rows = [["policy", "states", *summary], [args.policy, space.n_states, *summary.values()]]
    _write_csv(out_dir, f"{args.policy}_summary.csv", cfg.config_hash, rows).close()
    line = f"{args.policy}: {space.n_states} states, gain {_fmt(gain)}"
    print(line if args.policy == "myopic" else f"{line}, {wall:.2f}s")
    return 0


def _run_params(args, cfg: LoadedConfig) -> tuple:
    """(seed, horizon, replications): each flag given overrides the config
    and is checked as the config value is."""
    seed = cfg.seed if args.seed is None else _posint(args.seed, "--seed", minimum=0)
    horizon = cfg.horizon if args.horizon is None else _posint(args.horizon, "--horizon")
    reps = args.replications
    replications = cfg.replications if reps is None else _posint(reps, "--replications")
    if horizon <= cfg.warmup:
        raise ConfigError(f"--horizon: must exceed simulation.warmup {cfg.warmup}, got {horizon}")
    return seed, horizon, replications


def _policy_list(args, cfg, cache: dict) -> list:
    given = DEFAULT_POLICIES if args.policies is None else args.policies
    names = [p.strip() for p in given.split(",") if p.strip()]
    if not names:
        raise ConfigError("--policies: expected a comma separated list")
    return [_build_policy(name, cfg, cache) for name in names]


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    out_dir = Path(args.out) if args.out else cfg.out_dir
    seed, horizon, replications = _run_params(args, cfg)
    if args.caps:
        for flag, given in (("--policies", args.policies is not None), ("--trace", args.trace)):
            if given:
                raise ConfigError(f"{flag}: the --caps probe runs SISP alone and does not read it")
        try:
            caps = [int(c) for c in args.caps.split(",") if c.strip()]
        except ValueError:
            raise ConfigError("--caps: expected a comma separated list of integers") from None
        if not caps or any(c < 1 for c in caps):
            raise ConfigError("--caps: need positive truncation caps")
        _check_sisp(sim.with_caps(cfg.system, max(caps)), cfg)
        probe = sim.divergence_probe(
            cfg.system, caps, horizon, seed, replications, cfg.warmup, _scheduling_probs(cfg)
        )
        rows = ([c, r.mean, r.sd, r.ci95, replications, horizon, seed] for c, r in zip(caps, probe))
        header = ["cap", "mean_cost", "sd", "ci95", "replications", "horizon", "seed"]
        _write_csv(out_dir, "divergence.csv", cfg.config_hash, [header, *rows]).close()
        for cap, r in zip(caps, probe):
            print(f"cap {cap}: mean {_fmt(r.mean)} +- {_fmt(r.ci95)} (95% CI)")
        return 0
    policies = _policy_list(args, cfg, {})
    plan = sim.ExperimentPlan(cfg.system, policies, horizon, replications, seed, cfg.warmup)
    names = [p.name for p in policies]
    with contextlib.ExitStack() as files:
        sinks = {}
        for name in dict.fromkeys(names) if args.trace else ():
            fh = _write_csv(out_dir, f"trajectory_{name}.csv", cfg.config_hash, [TRAJECTORY_HEADER])
            sinks[name] = files.enter_context(fh)
        # replication 0 of each policy is its trajectory; a repeated name gets
        # the file once, so it is written once
        stats = sim.monte_carlo(plan, [sinks.pop(name, None) for name in names])
    rows = ([st.name, st.mean, st.sd, st.ci95, replications, horizon, seed] for st in stats)
    header = ["policy", "mean_cost", "sd", "ci95", "replications", "horizon", "seed"]
    _write_csv(out_dir, "results.csv", cfg.config_hash, [header, *rows]).close()
    for st in stats:
        print(f"{st.name}: mean {_fmt(st.mean)} +- {_fmt(st.ci95)} (95% CI)")
    return 0


def cmd_stability(args) -> int:
    kappa_flags = [f"--{k}" for k in ("kappa00", "kappa11") if getattr(args, k) is not None]
    if args.config and kappa_flags:
        raise ConfigError(f"{kappa_flags[0]}: the channel comes from --config")
    if args.rho_a is not None and args.exp_r is not None:
        raise ConfigError("--exp-r: give one bound, --rho-a or --exp-r")
    region_only = {
        "--lambda-hat": args.lambda_hat,
        "--rho-a": args.rho_a,
        "--exp-r": args.exp_r,
        "--resolution": args.resolution,
    }
    given = [flag for flag, value in region_only.items() if value is not None]
    if given and not args.region:
        raise ConfigError(f"{given[0]}: only --region reads it")
    if args.config:
        cfg = load_config(args.config)
        channel = cfg.system.channel
        out_dir = Path(args.out) if args.out else cfg.out_dir
        source = f"config_sha256={cfg.config_hash}"
    else:
        if args.kappa00 is None or args.kappa11 is None:
            raise ConfigError("stability without --config needs --kappa00 and --kappa11")
        kappa = [_prob(getattr(args, k), f"--{k}", strict=True) for k in ("kappa00", "kappa11")]
        channel = ChannelSpec(*kappa)
        out_dir = Path(args.out) if args.out else Path("out")
        source = f"kappa00={args.kappa00},kappa11={args.kappa11}"

    if args.region:
        lambda_hat = _prob(args.lambda_hat, "--lambda-hat")
        resolution = 101 if args.resolution is None else args.resolution
        resolution = _posint(resolution, "--resolution", minimum=2)
        flag, value = ("--rho-a", args.rho_a) if args.rho_a is not None else ("--exp-r", args.exp_r)
        if value is None:
            raise ConfigError("--region needs a bound: --rho-a or --exp-r")
        if not value > 0:
            raise ConfigError(f"{flag}: expected a positive number, got {value}")
        bound = 1.0 / value**2 if flag == "--rho-a" else math.exp(-value)
        region = stability.feasible_region(channel, lambda_hat, bound, resolution)
        # the hash covers the channel's source and every flag the region reads
        key = f"{source},lambda={args.lambda_hat},{flag[2:]}={value},resolution={resolution}"
        rows = (
            [p0, p1, region.rho[u, v], bound, int(region.feasible[u, v])]
            for u, p0 in enumerate(region.p0_values)
            for v, p1 in enumerate(region.p1_values)
        )
        header = ["p0", "p1", "rho", "bound", "feasible"]
        region_hash = hashlib.sha256(key.encode()).hexdigest()
        _write_csv(out_dir, "region.csv", region_hash, [header, *rows]).close()
        frac = region.feasible.mean()
        print(f"region: {resolution}x{resolution} grid, {frac:.1%} feasible")
        return 0

    if not args.config:
        raise ConfigError("single-point stability check needs --config")
    reports = stability.system_stability(cfg.system)
    rows = ([r.sensor_index + 1, r.rho, r.bound, int(r.satisfied), r.criterion] for r in reports)
    header = ["sensor", "rho", "bound", "satisfied", "criterion"]
    _write_csv(out_dir, "stability.csv", cfg.config_hash, [header, *rows]).close()
    for r in reports:
        verdict = "stable" if r.satisfied else "UNSTABLE"
        print(
            f"sensor {r.sensor_index + 1}: rho {_fmt(r.rho)} vs bound {_fmt(r.bound)} "
            f"-> {verdict} ({r.criterion})"
        )
    return 0


def cmd_thresholds(args) -> int:
    cfg = load_config(args.config)
    out_dir = Path(args.out) if args.out else cfg.out_dir
    table = decomposed.extract_thresholds(_build_policy("sisp", cfg, {}).values, cfg.system)
    rows = ([i, theta, "inf" if math.isinf(thr) else int(thr)] for i, theta, thr in table.rows())
    header = ["sensor", "theta", "threshold_aori"]
    _write_csv(out_dir, "thresholds.csv", cfg.config_hash, [header, *rows]).close()
    for sensor, theta, thr in table.rows():
        print(f"sensor {sensor}, channel {theta}: threshold {thr}")
    return 0


def cmd_compare(args) -> int:
    cfg = load_config(args.config)
    out_dir = Path(args.out) if args.out else cfg.out_dir
    seed, horizon, replications = _run_params(args, cfg)
    cache = {}
    # an optimal policy's kernels are freed before the first evaluation
    policies = _policy_list(args, cfg, cache)
    space = _joint_mdp(cfg, cache)
    plan = sim.ExperimentPlan(cfg.system, policies, horizon, replications, seed, cfg.warmup)

    def share(k):
        # the exact costs stay in this process, where a tracer sees their
        # solves; the Monte Carlo runs beside them in a child, or after
        # them on one CPU
        if k == 0:
            return {policy.name: pol.exact_cost(policy, space) for policy in policies}
        return sim.monte_carlo(plan)

    with mdp._forks(2) as run:
        exact, stats = run(share)
    rows = (
        [st.name, exact[st.name], st.mean, st.sd, st.ci95, replications, horizon, seed]
        for st in stats
    )
    header = ["policy", "exact_cost", "mc_mean", "mc_sd", "mc_ci95"]
    header += ["replications", "horizon", "seed"]
    _write_csv(out_dir, "compare.csv", cfg.config_hash, [header, *rows]).close()
    for st in stats:
        print(
            f"{st.name}: exact {_fmt(exact[st.name])}, "
            f"simulated {_fmt(st.mean)} +- {_fmt(st.ci95)}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aoisched",
        description="Dual-age transmission scheduling: solvers, stability tests, simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a scheduling policy and dump tables")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--policy", choices=("optimal", "sisp", "myopic"), default="optimal")
    p_solve.add_argument("--out", default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_sim = sub.add_parser("simulate", help="Monte Carlo policy comparison")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--policies", default=None, help=f"comma separated ({DEFAULT_POLICIES})")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--horizon", type=int, default=None)
    p_sim.add_argument("--replications", type=int, default=None)
    p_sim.add_argument("--trace", action="store_true")
    p_sim.add_argument(
        "--caps",
        default=None,
        help="comma separated truncation caps: run the divergence probe "
        "(structure-informed policy rebuilt per cap) instead of a comparison",
    )
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_stab = sub.add_parser("stability", help="spectral-radius stability checks")
    p_stab.add_argument("--config", default=None)
    p_stab.add_argument("--region", action="store_true")
    p_stab.add_argument("--resolution", type=int, default=None, help="region grid size (101)")
    p_stab.add_argument("--kappa00", type=float, default=None)
    p_stab.add_argument("--kappa11", type=float, default=None)
    p_stab.add_argument("--lambda-hat", dest="lambda_hat", type=float, default=None)
    p_stab.add_argument("--rho-a", dest="rho_a", type=float, default=None)
    p_stab.add_argument("--exp-r", dest="exp_r", type=float, default=None)
    p_stab.add_argument("--out", default=None)
    p_stab.set_defaults(func=cmd_stability)

    p_thr = sub.add_parser("thresholds", help="extract SISP scheduling thresholds")
    p_thr.add_argument("--config", required=True)
    p_thr.add_argument("--out", default=None)
    p_thr.set_defaults(func=cmd_thresholds)

    p_cmp = sub.add_parser("compare", help="exact and simulated policy comparison")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--policies", default=None, help=f"comma separated ({DEFAULT_POLICIES})")
    p_cmp.add_argument("--seed", type=int, default=None)
    p_cmp.add_argument("--horizon", type=int, default=None)
    p_cmp.add_argument("--replications", type=int, default=None)
    p_cmp.add_argument("--out", default=None)
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - single CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
