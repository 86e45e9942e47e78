"""The closed dual-age sub-grid: each sensor's closure from the start, the
closed space that compare and simulate solve and evaluate on, and its
sameness with the full grid that solve writes."""

import weakref
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import assume, example, given, settings

import aoisched as a
from aoisched import cli, dynamics, mdp, policies as pol
from aoisched.model import ConvergenceError

from conftest import stacked_rows
from solve_bits import solve_bits
from test_kernel_assembly import _sensor, small_systems

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


# one system for each case of the full-grid solve's catch-up sweeps: the
# depth D below the iteration count K, at least K, unbounded (a sensor that
# stays active for ever once active leaves a cycle outside its closure) and
# 0 (no buffer age, so every sub-index is reached)
DEPTH_CASES = {
    "below K": a.SystemSpec(
        (
            _sensor(a.BernoulliArrival(0.6), 0.4, 0.9, 3, 3),
            _sensor(a.BernoulliArrival(0.3), 0.5, 1.0, 2, 3),
        ),
        a.ChannelSpec(0.5, 0.8),
        1,
    ),
    "at least K": a.SystemSpec(
        (_sensor(a.MarkovArrival(0.0, 0.0), 0.0, 0.0, 3, 2),), a.ChannelSpec(0.4, 0.3), 1
    ),
    "unbounded": a.SystemSpec(
        (
            _sensor(a.MarkovArrival(0.6, 1.0), 0.5, 0.9, 2, 3),
            _sensor(a.BernoulliArrival(0.7), 0.3, 0.8, 2, 2),
        ),
        a.ChannelSpec(0.5, 0.8),
        1,
    ),
    "zero": a.SystemSpec(
        (
            _sensor(a.BernoulliArrival(0.6), 0.4, 0.9, 0, 3),
            _sensor(a.MarkovArrival(0.5, 0.7), 0.3, 1.0, 0, 2),
        ),
        a.ChannelSpec(0.5, 0.8),
        2,
    ),
}


# the catch-up's cases: the depth cases, and a sensor that is never
# delivered to, so that no state steps to its start's sub-index and no
# other sub-index shares its class: the start's class is read for the gain
# alone
CATCH_UP_CASES = {
    **DEPTH_CASES,
    "unread start": a.SystemSpec(
        (
            _sensor(a.MarkovArrival(0.0, 0.0), 0.0, 0.0, 3, 3),
            _sensor(a.BernoulliArrival(0.5), 0.4, 0.9, 2, 2),
        ),
        a.ChannelSpec(0.4, 0.3),
        1,
    ),
}


def test_sensor_depths(tmp_path):
    """The most steps a sensor's sub-index takes to enter its closure:
    6 for each threesensor sensor, 3, 3 and 2 on the exact-3s shape, and
    None for a Markov sensor that stays active for ever, whose sub-indices
    outside the closure hold a cycle (memory bit 0 at the buffer cap stays
    there with no arrival). A closed space reports the full grid's depths."""
    three = cli.load_config(str(CONFIGS / "threesensor.yaml")).system
    assert mdp.StateSpace(three).depths == (6, 6, 6)
    exact = cli.load_config(str(exact_3s_config(tmp_path))).system
    assert mdp.StateSpace(exact).depths == (3, 3, 2)
    assert mdp.StateSpace(exact, closed=True).depths == (3, 3, 2)
    assert mdp.StateSpace(DEPTH_CASES["unbounded"]).depths == (None, 1)


@pytest.mark.parametrize("case", DEPTH_CASES)
def test_depth_cases_are_what_they_say(case):
    """Each DEPTH_CASES system has the depth D its name gives, against the
    iteration count K of its solve."""
    space = mdp.StateSpace(DEPTH_CASES[case])
    depth = None if None in space.depths else max(space.depths)
    k = mdp.solve_optimal_policy(space)[0].iterations
    if depth is None:
        assert case == "unbounded"
    else:
        assert case == ("zero" if depth == 0 else "below K" if depth < k else "at least K")


def full_grid_rvi(space):
    """RVI from zero on the full grid's build_kernels, stopped on the
    largest change over the closed sub-grid's states: (values, gain,
    iterations, actions), or None when RVI_MAX_ITER runs out."""
    kernels = mdp.build_kernels(space)
    rows = stacked_rows(kernels)
    closed_at = space.encode_array(mdp.StateSpace(space.spec, closed=True).lanes)
    cost, ref = mdp.cost_vector(space), space.reference_index()
    q = np.zeros(space.n_states)
    for it in range(mdp.RVI_MAX_ITER):
        theta = np.stack([cost + (k @ q)[kernels.row_of] for k in rows])
        q_next = theta.min(axis=0)
        gain = q_next[ref]
        q_next -= gain
        diff = np.abs(q_next - q)[closed_at].max()
        q = q_next
        if diff <= mdp.RVI_EPSILON:
            return q, float(gain), it + 1, theta.argmin(axis=0)
    return None


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_systems())
@example(DEPTH_CASES["below K"])
@example(DEPTH_CASES["at least K"])
@example(DEPTH_CASES["unbounded"])
@example(DEPTH_CASES["zero"])
def test_full_grid_solve_is_rvi_stopped_on_the_closure(spec):
    """solve_optimal_policy on the full grid (RVI on the closed space, then
    catch-up sweeps on the full grid) gives the values, gain, iteration
    count and table of plain RVI from zero on the full grid stopped on the
    closed sub-grid, bit for bit, or fails where it does."""
    space = mdp.StateSpace(spec)
    assume(space.n_states <= 3000)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mdp, "RVI_MAX_ITER", 3000)
        want = full_grid_rvi(space)
        try:
            vt, pt = mdp.solve_optimal_policy(space)
        except ConvergenceError:
            assert want is None
            return
    assert want is not None
    values, gain, iterations, actions = want
    assert vt.values.tobytes() == values.tobytes()
    assert vt.gain.hex() == gain.hex()
    assert vt.iterations == iterations
    np.testing.assert_array_equal(pt.action_index, actions)


def test_shipped_full_grid_solves_keep_their_bits(tmp_path):
    """solve_bits.py's line of the full-grid optimal solve, which solve
    --policy optimal writes, of both shipped configs and of the exact-3s
    shape: the same depth, iteration count, gain bits and value and action
    hashes as RVI on the whole full grid stopped on the closed sub-grid
    gave."""
    assert solve_bits(str(TWOSENSOR)) == (
        "D 6 K 24 0x1.3ba0285933bdep+3 "
        "65b88a94df2b853b8f699bddd27f6da4ab1604f3cd9f7450a5d14bcc3c8396c2 "
        "9c1ca677249a550d774831b97676cb0e41aa1ef20268fb5aa439e445bce7aaa2"
    )
    assert solve_bits(str(CONFIGS / "threesensor.yaml")) == (
        "D 6 K 49 0x1.067b4fa2069e2p+6 "
        "b1eb5d5be7ce4b12ca89fc45bc95c3eb09ca4e85790e13bf7b4f0bc6cad7146f "
        "0e4c35add60386568f52aa3e94644a6bb1992eb17b02916d8cfbc23730377027"
    )
    assert solve_bits(str(exact_3s_config(tmp_path))) == (
        "D 3 K 22 0x1.7148d8e4481ecp+5 "
        "30ad57d43d08d4adc86802ff08b1579f96da140821f25736c4142507678a6758 "
        "f6f4e9bc02451a5183b5ea6c272ef2ec8f1dae90a9e02450e13284717d77a25d"
    )


def read_sub_indices(space):
    """Each sensor's sub-indices that some joint state steps to under some
    action by transition_distribution, plus the start's: a search over
    every state of the full grid space, independent of the successor
    tables."""
    spec = space.spec
    start = space.decode(space.reference_index())
    read = [{(st.aoli, st.aori, g)} for st, g in zip(start.sensors, start.prev_arrival)]
    for idx in range(space.n_states):
        state = space.decode(idx)
        for action in space.action_set.actions:
            for nxt, _ in mdp.transition_distribution(state, action, spec):
                for i, (st, g) in enumerate(zip(nxt.sensors, nxt.prev_arrival)):
                    read[i].add((st.aoli, st.aori, g))
    return [
        sorted({space.sensor_sub_index(i, aoli, aori, g) for aoli, aori, g in subs})
        for i, subs in enumerate(read)
    ]


@pytest.mark.parametrize("case", CATCH_UP_CASES)
def test_read_classes_are_the_in_degree_search(case):
    """A class is read when it holds a sub-index that some state steps to
    under some action, or the start's: the same classes as a search over
    transition_distribution finds. "zero" reads every class."""
    space = mdp.StateSpace(CATCH_UP_CASES[case])
    read = read_sub_indices(space)
    got = mdp._read_classes(space)
    for i, class_of in enumerate(space.factors.class_of):
        assert got[i].tolist() == np.unique(class_of[read[i]]).tolist(), i
    assert ([len(r) for r in got] == list(space.factors.shape[1:])) == (case == "zero")


def test_read_classes_of_the_benchmark_shapes(tmp_path):
    """threesensor reads 37 of each sensor's 42 classes, so its catch-up
    kernels store 2 * 37**3 = 101,306 of its 148,176 distinct rows, with
    10,557,728 of the 15,579,648 nonzeros of its four actions; the exact-3s
    shape reads 10, 10 and 5 classes."""
    space = mdp.StateSpace(cli.load_config(str(CONFIGS / "threesensor.yaml")).system)
    assert [len(r) for r in mdp._read_classes(space)] == [37, 37, 37]
    assert space.factors.shape == (2, 42, 42, 42)
    kernels = mdp._kernels(space, mdp._read_classes(space))
    stored = sum(hi - lo for share in kernels.shares for spans, _ in share for lo, hi in spans)
    assert (stored, kernels.n_rows) == (101_306, 148_176)
    assert sum(int(mat.nnz) for mat in kernels) == 10_557_728
    del kernels
    exact = mdp.StateSpace(cli.load_config(str(exact_3s_config(tmp_path))).system)
    assert [len(r) for r in mdp._read_classes(exact)] == [10, 10, 5]


def assert_pieces_cover_the_rows(kernels, n_rows):
    """The spans of kernels' pieces, in shares and in rest, cover the rows
    0..n_rows-1 once, and each piece's matrices of every action, stored in
    shares and made by a call in rest, have their spans' row counts."""
    spans = []
    for pieces, made in ((kernels.shares, False), (kernels.rest, True)):
        for piece_spans, mats in (piece for share in pieces for piece in share):
            for blocks in mats:
                assert callable(blocks) == made
                blocks = blocks() if made else blocks
                assert [mat.shape[0] for mat in blocks] == [hi - lo for lo, hi in piece_spans]
            spans.extend(piece_spans)
    rows = np.concatenate([np.arange(lo, hi) for lo, hi in spans])
    assert np.array_equal(np.sort(rows), np.arange(n_rows))
    assert kernels.n_rows == n_rows


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("case", CATCH_UP_CASES)
def test_streamed_catch_up_is_full_grid_rvi(case, workers):
    """With a TABLE_CHUNK of 4 rows, so that every share and piece is cut,
    the full-grid solve gives full_grid_rvi's values, gain, iterations and
    table bit for bit on 1, 2 and 3 CPUs. The rows of classes that are not
    read are made in the last sweep alone, each once per action, after
    every stored kernel row is freed; "zero", which reads every class,
    makes none there. build_kernels and the catch-up build both cover every
    distinct row once with pieces of the one form; build_kernels numbers
    the rows as the factors do and, like the catch-up of "zero", has no
    rest."""
    space = mdp.StateSpace(CATCH_UP_CASES[case])
    values, gain, iterations, actions = full_grid_rvi(space)
    read = mdp._read_classes(space)
    made, stored = [], []
    theta_blocks = mdp._theta_blocks

    def recorded(factors, action, grid):
        mats = theta_blocks(factors, action, grid)
        if factors is space.factors:
            if all(np.isin(g, r).all() for g, r in zip(grid, read)):
                stored.extend(weakref.ref(mat.data) for mat in mats)
            else:
                assert all(ref() is None for ref in stored), "a stored row is alive"
                made.append((tuple(map(tuple, grid)), action))
        return mats

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mdp, "TABLE_CHUNK", 4)
        mp.setattr(mdp, "_worker_count", lambda: workers)
        every, catch_up = mdp.build_kernels(space), mdp._kernels(space, read)
        mp.setattr(mdp, "_theta_blocks", recorded)
        vt, pt = mdp.solve_optimal_policy(space)
    for kernels in (every, catch_up):
        assert_pieces_cover_the_rows(kernels, space.factors.n_rows)
    np.testing.assert_array_equal(every.row_of, space.factors.row_of)
    assert every.rest == ()
    assert (catch_up.rest == ()) == (case == "zero")
    assert vt.values.tobytes() == values.tobytes()
    assert vt.gain.hex() == gain.hex()
    assert vt.iterations == iterations
    np.testing.assert_array_equal(pt.action_index, actions)
    assert len(made) == len(set(made))
    pieces = {grid for grid, _ in made}
    rows = sum(np.prod([len(g) for g in grid]) for grid in pieces)
    assert 2 * rows == space.factors.n_rows - 2 * np.prod([len(r) for r in read])
    assert len(made) == len(pieces) * len(space.action_set)
    assert (rows == 0) == (case == "zero")


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
