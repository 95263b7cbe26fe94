"""Properties of transition tables, checked through `table.json` text: built
tables validate clean and serialize back to the same bytes from any order
of their keys, which are the document nested from the columns; sampling
picks the row the columns' inverse CDF picks, and each row about as often
as its probability says; the value-iteration solution is a fixed point of
the Bellman backup; a fault injected into the text is reported by validate
at its state, action and entry; mutated text only ever raises
PromoGymError."""

import json
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from promo_gym.envcore import RngStream
from promo_gym.errors import PromoGymError
from promo_gym.frozen_lake import make_frozen_lake
from promo_gym.promoenv import GRID_WIDTH, PromoGridSpec, build_promo_mdp
from promo_gym.solve import value_iteration
from promo_gym.tables import deserialize, serialize, step_sample, validate
from test_learner_properties import valid_tables

LAKES = [serialize(make_frozen_lake(slippery)) for slippery in (False, True)]

_reward = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    st.sampled_from([0.0, -0.0, -1.0, 20.0]),
)


@st.composite
def grid_specs(draw) -> PromoGridSpec:
    rows = draw(st.integers(1, 5))
    columns = st.frozensets(st.integers(0, GRID_WIDTH - 1), min_size=1)
    avail = {r: draw(columns) for r in range(rows)}
    cells = [(r, c) for r in range(rows) for c in sorted(avail[r])]
    everywhere = st.tuples(st.integers(0, rows - 1), st.integers(0, GRID_WIDTH - 1))
    return PromoGridSpec(
        rows=rows,
        avail=avail,
        goals=draw(st.frozensets(st.sampled_from(cells), max_size=4)),
        initial_states=draw(st.frozensets(everywhere, min_size=1, max_size=4)),
        step_reward=draw(_reward),
        forecast_fail_reward=draw(_reward),
        goal_reward=draw(_reward),
    )


table_texts = st.one_of(
    st.sampled_from(LAKES),
    grid_specs().map(lambda spec: serialize(build_promo_mdp(spec))),
)


@settings(deadline=None)
@given(text=table_texts, data=st.data())
def test_built_tables_validate_clean_and_round_trip_byte_for_byte(text, data):
    """The text loads to the same table with its state and action keys in
    any order."""
    doc = json.loads(text)
    states = data.draw(st.permutations(list(doc["P"].items())))
    doc["P"] = {s: dict(data.draw(st.permutations(list(actions.items()))))
                for s, actions in states}
    table = deserialize(json.dumps(doc, indent=1))
    assert validate(table) == []
    assert serialize(table) == text


def column_document(table) -> str:
    """table.json text nested straight from the columns: each pair's rows
    are the slice starts[k]:starts[k + 1] of the zipped columns."""
    doc = {
        "n_states": table.n_states,
        "n_actions": table.n_actions,
        "initial_distribution": {
            str(s): float(p) for s, p in sorted(table.initial_distribution.items())
        },
    }
    if table.layout is not None:
        doc["layout"] = {"rows": table.layout[0], "width": table.layout[1]}
    rows = list(zip(table.probability.tolist(), table.next_state.tolist(),
                    table.reward.tolist(), table.done.tolist()))
    starts = table.starts.tolist()
    n = table.n_actions
    doc["P"] = {str(s): {str(a): rows[starts[s * n + a]:starts[s * n + a + 1]]
                         for a in range(n)}
                for s in range(table.n_states)}
    return json.dumps(doc, indent=1)


@settings(deadline=None)
@given(text=table_texts)
def test_serialize_writes_the_document_nested_from_the_columns(text):
    table = deserialize(text)
    assert serialize(table) == column_document(table)


class CountingStream:
    """An RngStream that counts its uniform draws."""

    def __init__(self, seed: int):
        self.stream = RngStream(seed)
        self.draws = 0

    def random(self) -> float:
        self.draws += 1
        return self.stream.random()


@settings(deadline=None)
@given(text=table_texts, seed=st.integers(0, 2**64 - 1))
def test_step_sample_picks_the_row_of_the_columns_inverse_cdf(text, seed):
    table = deserialize(text)
    rng, reference = CountingStream(seed), RngStream(seed)
    starts = table.starts.tolist()
    for k in range(len(starts) - 1):
        first, stop = starts[k], starts[k + 1]
        before = rng.draws
        outcome = step_sample(table, *divmod(k, table.n_actions), rng)
        if stop - first == 1:
            assert rng.draws == before
            row = first
        else:
            assert rng.draws == before + 1
            u = reference.random()
            cdf = np.cumsum(table.probability[first:stop])
            hits = np.flatnonzero(u < cdf)
            row = first + int(hits[0]) if len(hits) else stop - 1
        assert (outcome.probability, outcome.next_state, outcome.reward,
                outcome.done) == (table.probability[row], table.next_state[row],
                                  table.reward[row], table.done[row])


# Hoeffding (JASA 58, 1963): N draws put a row's frequency further than
# sqrt(ln(2 / delta) / 2N) from its probability with chance below delta
DRAWS = 4_000
DELTA = 1e-9
HOEFFDING = math.sqrt(math.log(2 / DELTA) / (2 * DRAWS))


@settings(max_examples=50, deadline=None)
@given(drawn=valid_tables(), seed=st.integers(0, 2**64 - 1))
def test_step_sample_draws_each_row_as_often_as_its_probability(drawn, seed):
    table = deserialize(serialize(drawn))
    rng = RngStream(seed)
    for k, rows in enumerate(table.pairs):
        if len(rows) < 2:
            continue
        s, a = divmod(k, table.n_actions)
        counts = dict.fromkeys(map(id, rows), 0)  # equal rows are counted apart
        for _ in range(DRAWS):
            counts[id(step_sample(table, s, a, rng))] += 1
        for row in rows:
            assert abs(counts[id(row)] / DRAWS - row.probability) <= HOEFFDING, (k, row)


@settings(deadline=None)
@given(text=table_texts, gamma=st.floats(min_value=0.0, max_value=0.99))
def test_value_iteration_solution_is_a_fixed_point(text, gamma):
    solution = value_iteration(deserialize(text), gamma)
    assert solution.converged
    V = solution.V.tolist()
    for s, actions in json.loads(text)["P"].items():
        for a, rows in actions.items():
            backup = sum(p * (r + (0.0 if done else gamma * V[nxt]))
                         for p, nxt, r, done in rows)
            q = solution.Q[int(s), int(a)]
            assert math.isclose(backup, q, rel_tol=1e-9, abs_tol=1e-9), (s, a)
    assert solution.V.tolist() == solution.Q.max(axis=1).tolist()


# fault kind -> the values it writes and the column it writes them to
FAULTS = {
    "probability": (0, [0.0, -0.25, 1.5, 2.0, math.nan, math.inf]),
    "next-state": (1, ["n_states", "n_states+7", -1, -40]),
    "reward": (2, [math.nan, math.inf, -math.inf]),
}


@settings(deadline=None)
@given(text=table_texts, data=st.data(),
       kind=st.sampled_from(sorted(FAULTS) + ["mass"]))
def test_injected_fault_is_reported_at_its_coordinates(text, data, kind):
    doc = json.loads(text)
    s = data.draw(st.sampled_from(sorted(doc["P"], key=int)))
    a = data.draw(st.sampled_from(sorted(doc["P"][s], key=int)))
    rows = doc["P"][s][a]
    i = data.draw(st.integers(0, len(rows) - 1))
    where = f"state {s}, action {a}"
    if kind == "mass":
        rows[i][0] /= 2  # still in (0, 1], but the pair's mass falls short of 1
        expected = f"{where}: probability mass "
    else:
        column, values = FAULTS[kind]
        value = data.draw(st.sampled_from(values))
        if value == "n_states":
            value = doc["n_states"]
        elif value == "n_states+7":
            value = doc["n_states"] + 7
        rows[i][column] = value
        expected = f"{where}, entry {i}: {kind.replace('-', ' ')} "
    report = validate(deserialize(json.dumps(doc, indent=1)))
    assert any(v.startswith(expected) for v in report), (expected, report)
    assert all(v.startswith(where + ",") or v.startswith(where + ":")
               for v in report), report


def _leaves(node, path=()):
    """Paths to every value in a JSON document, containers included."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _leaves(child, path + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _leaves(child, path + (index,))


REPLACEMENTS = [10**400, -10**400, 2**63, 2**64, -1, 0, 1, 1.5, 1e308, math.inf,
                math.nan, True, False, None, "", "x", "1", [], [1], {}, {"0": 1}]


# integers beyond float range as a probability, a reward and an initial
# probability, and one beyond the index type as a next state
@settings(deadline=None)
@example(slippery=False, where=("P", "0", "0", 0, 0), value=10**400)
@example(slippery=False, where=("P", "0", "0", 0, 2), value=10**400)
@example(slippery=False, where=("initial_distribution", "0"), value=10**400)
@example(slippery=False, where=("P", "0", "0", 0, 1), value=2**64)
@given(slippery=st.booleans(), where=st.integers(min_value=0),
       value=st.sampled_from(REPLACEMENTS))
def test_mutated_document_only_raises_promo_gym_error(slippery, where, value):
    doc = json.loads(LAKES[slippery])
    if not isinstance(where, tuple):
        paths = list(_leaves(doc))[1:]
        where = paths[where % len(paths)]
    node = doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    try:
        validate(deserialize(json.dumps(doc)))
    except PromoGymError:
        pass


_edit = st.tuples(st.integers(min_value=0), st.integers(0, 3),
                  st.sampled_from(list('0123456789-.eE+"[]{},: ') + ["NaN", "1e999"]))


@settings(deadline=None)
@given(text=table_texts, edits=st.lists(_edit, min_size=1, max_size=4))
def test_mutated_text_only_raises_promo_gym_error(text, edits):
    for position, deleted, inserted in edits:
        position %= len(text)
        text = text[:position] + inserted + text[position + deleted:]
    try:
        validate(deserialize(text))
    except PromoGymError:
        pass
