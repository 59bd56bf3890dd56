"""Simulated GUI subsystem."""

import numpy as np
import pytest

from repro.errors import GuiError
from repro.sim.gui import GuiSubsystem


@pytest.fixture
def gui():
    return GuiSubsystem()


def test_show_creates_window_and_stores_image(gui):
    gui.show("w", np.ones((2, 2)))
    window = gui.window("w")
    assert window is not None
    assert window.shown_count == 1
    assert np.array_equal(window.image, np.ones((2, 2)))


def test_show_twice_counts(gui):
    gui.show("w", 1)
    gui.show("w", 2)
    assert gui.window("w").shown_count == 2
    assert gui.draw_operations == 2


def test_move_window_requires_existing(gui):
    with pytest.raises(GuiError):
        gui.move_window("ghost", 1, 1)
    gui.named_window("w")
    gui.move_window("w", 5, 6)
    assert (gui.window("w").x, gui.window("w").y) == (5, 6)


def test_set_title_creates_window(gui):
    gui.set_title("w", "hello")
    assert gui.window("w").title == "hello"


def test_destroy_all(gui):
    gui.named_window("a")
    gui.named_window("b")
    assert gui.destroy_all() == 2
    assert gui.windows == {}


def test_connection_tracking(gui):
    assert not gui.is_connected(3)
    gui.connect(3)
    assert gui.is_connected(3)
    assert not gui.is_connected(4)


def test_key_queue_fifo(gui):
    gui.queue_keys("sq")
    assert gui.poll_key() == "s"
    assert gui.poll_key() == "q"
    assert gui.poll_key() == ""


def test_recent_files_most_recent_first_no_duplicates(gui):
    gui.add_recent_file("/a")
    gui.add_recent_file("/b")
    gui.add_recent_file("/a")
    assert gui.recent_files == ["/a", "/b"]
