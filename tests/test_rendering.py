import pytest

from promo_gym.envcore import RngStream
from promo_gym.errors import InvalidState, NoLayout
from promo_gym.learner import EpisodeTrace, TraceStep
from promo_gym.rendering import render_trace
from promo_gym.tables import TabularEnv, TransitionTable


def one_step_trace(state, action, reward, next_state, done) -> EpisodeTrace:
    step = TraceStep(state, action, float(reward), next_state, done)
    return EpisodeTrace(steps=[step], rewards=[float(reward)], truncated=not done)


def marker_position(grid_lines: list[str]) -> tuple[int, int]:
    for r, line in enumerate(grid_lines):
        col = line.find("@")
        if col != -1:
            return r, col // 4  # cells are 4 characters wide
    raise AssertionError("no marker found")


class TestRenderTrace:
    def test_increase_step_moves_marker_down_one_row(self, reference_table):
        text = render_trace(one_step_trace(35, 2, -1, 45, False), reference_table)
        assert text.splitlines()[0].startswith("Mon Tue Wed Thu Fri Sat Sun A7")
        blocks = text.split("\n")
        # frame 1: rows 2..6 (after header and start line); frame 2 after note
        first_grid = blocks[2:7]
        assert marker_position(first_grid) == (3, 5)
        note = blocks[7]
        assert note.startswith("step 1: increase")
        assert "reward=-1" in note and "total=-1" in note
        second_grid = blocks[8:13]
        assert marker_position(second_grid) == (4, 5)

    def test_empty_trace_prints_header_only(self, reference_table):
        empty = EpisodeTrace(steps=[], rewards=[], truncated=False)
        text = render_trace(empty, reference_table)
        assert text == "Mon Tue Wed Thu Fri Sat Sun A7  A8  A9"

    def test_trace_without_recorded_steps_is_not_an_empty_trace(self, reference_table):
        unrecorded = EpisodeTrace(steps=None, rewards=[-1.0], truncated=True)
        with pytest.raises(TypeError):
            render_trace(unrecorded, reference_table)

    def test_goal_forecast_flagged(self, reference_table):
        text = render_trace(one_step_trace(24, 3, 20, 24, True), reference_table)
        note = text.split("\n")[7]
        assert note == "step 1: forecast  reward=20  total=20  FORECAST ✓"

    def test_goal_cells_marked(self, reference_table):
        text = render_trace(one_step_trace(35, 1, -1, 25, False), reference_table)
        first_grid = text.split("\n")[2:7]
        assert first_grid[2][4 * 4] == "G"  # goal at row 2, col 4

    def test_state_out_of_range(self, reference_table):
        with pytest.raises(InvalidState):
            render_trace(one_step_trace(99, 0, -1, 35, False), reference_table)

    def test_non_promo_table_uses_numeric_labels(self, lake_table):
        text = render_trace(one_step_trace(0, 2, 0, 1, False), lake_table)
        lines = text.splitlines()
        assert lines[0].startswith("0   1   2   3")
        assert "step 1: 2 " in text


def start_cells(table) -> list[str]:
    """The cells of the start frame of a one-step trace from the state
    reset draws: every 4th character of each grid line."""
    start = TabularEnv(table).reset(RngStream(0))
    rows = table.layout[0]
    frame = render_trace(one_step_trace(start, 0, 0, start, False), table).splitlines()
    lines = frame[2:2 + rows]
    assert all(set(line[1::4] + line[2::4] + line[3::4]) <= {" "} for line in lines)
    return [line[::4] for line in lines]


class TestRenderGrid:
    def test_frozen_lake_start_marker(self, lake_table):
        cells = start_cells(lake_table)
        assert len(cells) == 4
        assert all(len(row) == 4 for row in cells)
        assert cells[0][0] == "@"

    def test_promo_marker_row3_col5(self, reference_table):
        cells = start_cells(reference_table)  # starts at 35
        assert cells[3][5] == "@"
        assert len(cells) == 5 and all(len(row) == 10 for row in cells)

    @pytest.mark.parametrize("layout", [None, (0, 0), (0, 1), (1, 0)],
                             ids=["none", "0x0", "0x1", "1x0"])
    def test_no_layout_errors(self, layout):
        table = TransitionTable.compile(1, 1, [[(1.0, 0, 0.0, True)]], {0: 1.0},
                                        layout)
        with pytest.raises(NoLayout):
            render_trace(one_step_trace(0, 0, 0, 0, True), table)
