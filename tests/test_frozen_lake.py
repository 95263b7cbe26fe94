from promo_gym.frozen_lake import DOWN, LEFT, MAP_4X4, RIGHT, UP, make_frozen_lake
from promo_gym.tables import validate


def tile(state: int) -> str:
    return MAP_4X4[state // 4][state % 4]


class TestConstruction:
    def test_shape_and_validity(self):
        for slippery in (False, True):
            table = make_frozen_lake(slippery)
            assert table.n_states == 16
            assert table.n_actions == 4
            assert validate(table) == []
            assert table.layout == (4, 4)
            assert table.initial_distribution == {0: 1.0}

    def test_right_from_start(self):
        table = make_frozen_lake(slippery=False)
        [e] = table.pair(0, RIGHT)
        assert (e.probability, e.next_state, e.reward, e.done) == (1.0, 1, 0.0, False)

    def test_entering_goal_pays_one(self):
        table = make_frozen_lake(slippery=False)
        [e] = table.pair(14, RIGHT)
        assert (e.probability, e.next_state, e.reward, e.done) == (1.0, 15, 1.0, True)

    def test_offgrid_moves_clamp(self):
        table = make_frozen_lake(slippery=False)
        [e] = table.pair(0, LEFT)
        assert e.next_state == 0
        [e] = table.pair(0, UP)
        assert e.next_state == 0
        [e] = table.pair(3, RIGHT)
        assert e.next_state == 3

    def test_terminals_absorb(self):
        table = make_frozen_lake(slippery=False)
        for s in (5, 7, 11, 12, 15):
            for a in range(4):
                [e] = table.pair(s, a)
                assert (e.probability, e.next_state, e.reward, e.done) == (
                    1.0, s, 0.0, True,
                )

    def test_rewards_only_on_goal_entry(self):
        table = make_frozen_lake(slippery=False)
        for s in range(16):
            for a in range(4):
                for e in table.pair(s, a):
                    if e.reward:
                        assert e.next_state == 15 and tile(s) == "F"


class TestSlippery:
    def test_three_way_split(self):
        table = make_frozen_lake(slippery=True)
        entries = table.pair(0, DOWN)
        assert len(entries) == 3
        assert all(abs(e.probability - 1 / 3) < 1e-12 for e in entries)
        # down from state 0 slips left/down/right -> next states 0, 4, 1
        assert [e.next_state for e in entries] == [0, 4, 1]

    def test_slip_directions_are_perpendicular(self):
        table = make_frozen_lake(slippery=True)
        # from state 10 moving UP: slip set is right, up, left
        nexts = [e.next_state for e in table.pair(10, UP)]
        assert nexts == [11, 6, 9]
