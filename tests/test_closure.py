"""The closed dual-age sub-grid: each sensor's closure from the start, the
closed space that compare and simulate solve and evaluate on, and its
sameness with the full grid that solve writes."""

from pathlib import Path

import numpy as np
import pytest
import yaml

import aoisched as a
from aoisched import cli, dynamics, mdp, policies as pol

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
TWOSENSOR = CONFIGS / "twosensor.yaml"


def exact_3s_config(tmp_path) -> Path:
    """threesensor with budget 2, caps (4, 4, 3) and the third sensor's
    arrivals Markov at the same mean rate: the shape of the exact-3s
    benchmark workload."""
    raw = yaml.safe_load((CONFIGS / "threesensor.yaml").read_text())
    raw["budget"] = 2
    raw["sensors"][2] = dict(raw["sensors"][2])
    raw["sensors"][2]["arrival"] = {"kind": "markov", "stay_empty": 0.6, "stay_active": 0.6}
    for sensor, cap in zip(raw["sensors"], (4, 4, 3)):
        sensor["max_aori"] = sensor["max_aoli"] = cap
    raw["simulation"] = {"horizon": 200, "replications": 4, "warmup": 0, "seed": 31}
    raw["output"] = {"dir": str(tmp_path / "out")}
    path = tmp_path / "exact3s.yaml"
    path.write_text(yaml.safe_dump(raw, sort_keys=False))
    return path


@pytest.fixture(scope="module", params=["twosensor", "exact-3s"])
def solved(request, tmp_path_factory):
    """(cfg, full grid, its solve, closed-space cache with the optimal
    policy built) of one config."""
    if request.param == "twosensor":
        path = TWOSENSOR
    else:
        path = exact_3s_config(tmp_path_factory.mktemp("exact3s"))
    cfg = cli.load_config(str(path))
    full = cli._check_state_budget(cfg.system, cfg.max_states)
    cache = {}
    cli._build_policy("optimal", cfg, cache)
    return cfg, full, mdp.solve_optimal_policy(full), cache


def test_closure_is_the_search_over_transition_distribution(va_penalty):
    """On unequal caps, one sensor's buffer cap above its monitor cap, and
    a Markov-arrival sensor, each sensor's closure is the projection of
    every joint state that transition_distribution reaches from the start
    under every action; and it is not the rule aoli <= aori, which keeps
    both memory bits of the Markov sensor and drops the saturated states
    where aoli passes aori."""
    markov = a.SensorSpec(a.MarkovArrival(0.6, 0.7), va_penalty, 0.3, 0.9, 3, 5)
    tall = a.SensorSpec(a.BernoulliArrival(0.4), va_penalty, 0.5, 1.0, 4, 2)
    spec = a.SystemSpec((markov, tall), a.ChannelSpec(0.5, 0.8), 1)
    space = mdp.StateSpace(spec)
    start = space.decode(space.reference_index())
    seen, frontier = {start}, [start]
    while frontier:
        step = []
        for state in frontier:
            for action in space.action_set.actions:
                for nxt, _ in mdp.transition_distribution(state, action, spec):
                    if nxt not in seen:
                        seen.add(nxt)
                        step.append(nxt)
        frontier = step
    for i in range(spec.n_sensors):
        reached = {
            space.sensor_sub_index(i, st.sensors[i].aoli, st.sensors[i].aori, st.prev_arrival[i])
            for st in seen
        }
        assert space.closure[i].tolist() == sorted(reached), i
        aoli, aori, _ = space.sensor_states(i)
        assert space.closure[i].tolist() != np.flatnonzero(aoli <= aori).tolist(), i
    closed = mdp.StateSpace(spec, closed=True)
    assert closed.closure is not space.closure
    assert [c.tolist() for c in closed.members] == [c.tolist() for c in space.closure]
    # every reached state is one of the closed space's, in the full grid's order
    columns = zip(*(dynamics.lane_state(state, 1) for state in seen))
    lanes = dynamics.LaneState(*(np.concatenate(c, axis=-1) for c in columns))
    order = np.argsort(space.encode_array(lanes))
    assert np.all(np.diff(closed.encode_array(lanes)[order]) > 0)


def test_closed_space_is_the_full_grid_on_the_closure(solved):
    """The closed space's states are the product of the closures with
    theta, in the full grid's order; its lanes and costs are the full
    grid's there, and its codec round-trips."""
    _, full, _, cache = solved
    closed = cache["joint"]
    at = full.encode_array(closed.lanes)
    assert np.all(np.diff(at) > 0)
    assert closed.n_states == 2 * np.prod([len(c) for c in full.closure]) < full.n_states
    assert closed.grid_states == full.n_states
    for got, want in zip(closed.lanes, full.lanes):
        np.testing.assert_array_equal(got, want[..., at])
    assert mdp.cost_vector(closed).tobytes() == mdp.cost_vector(full)[at].tobytes()
    for idx in range(0, closed.n_states, 7):
        assert closed.encode(closed.decode(idx)) == idx
        assert full.encode(closed.decode(idx)) == at[idx]
    assert closed.decode(closed.reference_index()) == full.decode(full.reference_index())


def test_compare_table_is_the_solve_table_on_the_closure(solved):
    """compare's optimal table is solve's full-grid table restricted to
    the closure, and RVI on the closed space gives the same iterations,
    gain bits and value bits there: both stop on the closed sub-grid."""
    _, full, (vt_full, pt_full), cache = solved
    policy = cache["optimal"]
    closed = policy.space
    assert closed is cache["joint"] and closed.closed
    at = full.encode_array(closed.lanes)
    np.testing.assert_array_equal(policy.table.action_index, pt_full.action_index[at])
    vt, pt = mdp.solve_optimal_policy(closed)
    assert vt.iterations == vt_full.iterations
    assert vt.gain.hex() == vt_full.gain.hex()
    assert vt.values.tobytes() == vt_full.values[at].tobytes()
    np.testing.assert_array_equal(pt.action_index, policy.table.action_index)


def test_exact_costs_have_the_same_bits_on_the_closed_space(solved):
    """The raw exact cost of each of the eight policies (exact_cost, as
    compare computes it) has the same float bits on the closed space as on
    the full grid, the full grid's optimal policy being solve's table.
    Round robin, the randomized schedule and idle are evaluated per sensor,
    on each sensor's own space, whichever joint space is given."""
    cfg, full, (_, pt_full), cache = solved
    closed = cache["joint"]
    for name in pol.POLICY_NAMES:
        policy = cli._build_policy(name, cfg, cache)
        on_full = pol.TablePolicy(name, full, pt_full) if name == "optimal" else policy
        got = pol.exact_cost(policy, closed)
        want = pol.exact_cost(on_full, full)
        assert got.hex() == want.hex(), name


def test_encode_array_refuses_a_lane_outside_the_closure():
    """On twosensor's closed space, one lane of four with a sensor's
    buffer older than its monitor age, inside the truncation, makes
    encode_array and encode raise naming that sensor; the full grid
    encodes it, and a TablePolicy on the closed space refuses it too."""
    system = cli.load_config(str(TWOSENSOR)).system
    full, closed = mdp.StateSpace(system), mdp.StateSpace(system, closed=True)
    start = closed.decode(closed.reference_index())
    table = mdp.PolicyTable(np.zeros(closed.n_states, dtype=np.intp), closed.action_set)
    policy = pol.TablePolicy("optimal", closed, table)
    for i in range(system.n_sensors):
        lanes = dynamics.lane_state(start, 4)
        lanes.aoli[i, 2], lanes.aori[i, 2] = 3, 2
        sensors = list(start.sensors)
        sensors[i] = dynamics.SensorState(3, 2)
        state = start._replace(sensors=tuple(sensors))
        with pytest.raises(ValueError, match=f"sensor {i} state outside the closed sub-grid"):
            closed.encode_array(lanes)
        with pytest.raises(ValueError, match=f"sensor {i} state outside the closed sub-grid"):
            closed.encode(state)
        with pytest.raises(ValueError, match=f"sensor {i} state outside the closed sub-grid"):
            policy.decide_array(closed.action_set, lanes, 0, None)
        assert full.encode_array(lanes)[2] == full.encode(state)
    with pytest.raises(ValueError, match="no fixed age strides"):
        closed.aori_stride(0)


def test_rvi_stops_on_its_sup_norm(tiny_solved):
    """RVI's stopping rule reads sup_norm: on the reference state alone,
    whose value is normalized to 0, it stops after one iteration."""
    b = tiny_solved
    assert b.vt.iterations > 1
    vt, _ = mdp.relative_value_iteration(b.kernels, b.cost, b.start, lambda d: d[b.start])
    assert vt.iterations == 1


@pytest.mark.parametrize("seed", range(4))
def test_closed_max_is_the_max_over_the_closed_sub_grid(solved, seed):
    """closed_max of a vector over the full grid is its largest entry at the
    closed space's states; on the closed space, its largest entry."""
    _, full, _, cache = solved
    closed = cache["joint"]
    x = np.random.default_rng(seed).random(full.n_states)
    assert full.closed_max(x) == x[full.encode_array(closed.lanes)].max()
    assert closed.closed_max(x[: closed.n_states]) == x[: closed.n_states].max()


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_simulate_and_compare_write_the_full_grid_bytes(command, tmp_path, monkeypatch, capsys):
    """simulate --policies optimal --trace, and compare of the eight
    policies, on twosensor write the same bytes on the closed space as with
    the joint MDP on the full grid, the optimal table being solve's."""
    policies = "optimal" if command == "simulate" else ",".join(pol.POLICY_NAMES)
    solved_on = []
    solve = mdp.solve_optimal_policy

    def recorded(space):
        solved_on.append(space.n_states)
        return solve(space)

    monkeypatch.setattr(mdp, "solve_optimal_policy", recorded)
    outputs = []
    for side in ("closed", "full"):
        if side == "full":
            monkeypatch.setattr(
                cli,
                "_joint_mdp",
                lambda cfg, cache: cache.setdefault(
                    "joint", cli._check_state_budget(cfg.system, cfg.max_states)
                ),
            )
        out = tmp_path / side
        argv = [command, "--config", str(TWOSENSOR), "--policies", policies,
                "--horizon", "300", "--replications", "4", "--out", str(out)]
        if command == "simulate":
            argv.append("--trace")
        assert cli.main(argv) == 0
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        outputs.append((files, capsys.readouterr().out))
    assert solved_on == [2450, 6272]
    assert outputs[0] == outputs[1]
    assert len(outputs[0][0]) == (2 if command == "simulate" else 1)
