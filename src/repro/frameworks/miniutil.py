"""miniutil — small companion frameworks the evaluated apps also use.

pandas / json / matplotlib (the Table 2 footnote: these need the hybrid
analysis because their flows hide behind indirect calls: a parser-engine
table, a codec hook and a plotting backend, each picked at run time), a
numpy I/O surface, Pillow (whose CVE-2020-10378 drives the MComix3 case study), and
a minimal GTK (the ``Gtk::RecentManager`` state the MComix3 attack wants
to leak).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.core.apitypes import APIType
from repro.frameworks._oplib import (
    FILE_LOAD_SYSCALLS,
    GUI_INIT_SYSCALLS,
    GUI_SYSCALLS,
    PROCESSING_SYSCALLS,
    STORE_SYSCALLS,
    declare,
)
from repro.frameworks.base import (
    ExecutionContext,
    Framework,
    Mat,
    StatefulKind,
)

PANDAS = Framework("pandas", version="1.2")
JSONLIB = Framework("json", version="stdlib")
MATPLOTLIB = Framework("matplotlib", version="3.4")
NUMPYLIB = Framework("numpy", version="1.20")
PILLOW = Framework("pillow", version="8.1")
GTK = Framework("gtk", version="3.24")

_SAMPLE_CSV = "/testdata/util/table.csv"
_SAMPLE_JSON = "/testdata/util/config.json"
_SAMPLE_NPY = "/testdata/util/array.npy"
_SAMPLE_IMG = "/testdata/util/photo.png"


def _ensure_sample_files(ctx: ExecutionContext) -> None:
    fs = ctx.kernel.fs
    if not fs.exists(_SAMPLE_CSV):
        fs.write_file(_SAMPLE_CSV, [["name", "score"], ["a", 1.0], ["b", 2.0]])
    if not fs.exists(_SAMPLE_JSON):
        fs.write_file(_SAMPLE_JSON, {"threshold": 0.5, "labels": ["x", "y"]})
    if not fs.exists(_SAMPLE_NPY):
        rng = np.random.default_rng(61)
        fs.write_file(_SAMPLE_NPY, rng.normal(size=(6, 6)))
    if not fs.exists(_SAMPLE_IMG):
        rng = np.random.default_rng(62)
        fs.write_file(_SAMPLE_IMG, rng.integers(0, 256, size=(12, 12, 3)).astype(np.float64))


#: Each utility API passes its framework and full qualname.
_add = partial(declare, base_cost_ns=30_000)


# ----------------------------------------------------------------------
# pandas
# ----------------------------------------------------------------------


class _PythonEngine:
    """A pandas engine: tables are parsed, built and written through it."""

    def read(self, ctx: ExecutionContext, path: str) -> Any:
        return ctx.read_file(path)

    def build(self, ctx: ExecutionContext, nbytes: int) -> None:
        ctx.mem_compute(nbytes=nbytes)

    def write(self, ctx: ExecutionContext, path: str, rows: List[list]) -> None:
        ctx.write_file(path, rows)


#: pandas looks its engine up by name at run time.
_ENGINES = {"python": _PythonEngine()}


def _read_csv(ctx: ExecutionContext, path: str) -> List[list]:
    payload = ctx.guard(_ENGINES["python"].read(ctx, path))
    return [list(row) for row in payload]


def _csv_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    _ensure_sample_files(ctx)
    return ((_SAMPLE_CSV,), {})


_add(
    PANDAS, "read_csv", _read_csv, APIType.LOADING,
    syscalls=FILE_LOAD_SYSCALLS,
    qualname="pd.read_csv",
    example=_csv_example,
    doc="Parse a CSV file (flows behind indirect parser dispatch).",
)


def _dataframe(ctx: ExecutionContext, rows: Any) -> List[list]:
    rows = ctx.guard(rows)
    _ENGINES["python"].build(ctx, 64)
    return [list(r) for r in rows]


_add(
    PANDAS, "DataFrame", _dataframe, APIType.PROCESSING,
    syscalls=PROCESSING_SYSCALLS,
    qualname="pd.DataFrame",
    example=lambda ctx: (([["a", 1.0]],), {}),
    doc="Build a table in memory.",
)


def _to_csv(ctx: ExecutionContext, rows: Any, path: str) -> None:
    rows = ctx.guard(rows)
    _ENGINES["python"].write(ctx, path, [list(r) for r in rows])


_add(
    PANDAS, "to_csv", _to_csv, APIType.STORING,
    syscalls=STORE_SYSCALLS,
    qualname="pd.DataFrame.to_csv",
    example=lambda ctx: (([["a", 1.0]], "/out/util/out.csv"), {}),
    doc="Write a table to a CSV file.",
)


# ----------------------------------------------------------------------
# json
# ----------------------------------------------------------------------


class _JSONCodec:
    """json's default codec; ``cls=`` hooks in another one at run time."""

    def load(self, ctx: ExecutionContext, path: str) -> Any:
        return ctx.read_file(path)

    def dump(self, ctx: ExecutionContext, obj: Any, path: str) -> None:
        ctx.write_file(path, obj)

    def decode(self, ctx: ExecutionContext, text: str) -> None:
        ctx.mem_compute(nbytes=len(str(text)))


_CODEC = _JSONCodec()


def _json_load(ctx: ExecutionContext, path: str) -> Any:
    return ctx.guard(_CODEC.load(ctx, path))


def _json_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    _ensure_sample_files(ctx)
    return ((_SAMPLE_JSON,), {})


_add(
    JSONLIB, "load", _json_load, APIType.LOADING,
    syscalls=FILE_LOAD_SYSCALLS,
    qualname="json.load",
    example=_json_example,
    doc="Parse a JSON file (recursive-descent: opaque to static analysis).",
)


def _json_dump(ctx: ExecutionContext, obj: Any, path: str) -> None:
    _CODEC.dump(ctx, ctx.guard(obj), path)


_add(
    JSONLIB, "dump", _json_dump, APIType.STORING,
    syscalls=STORE_SYSCALLS,
    qualname="json.dump",
    example=lambda ctx: (({"k": 1}, "/out/util/out.json"), {}),
    doc="Serialize an object to a JSON file.",
)


def _json_loads(ctx: ExecutionContext, text: str) -> Any:
    _CODEC.decode(ctx, text)
    return {"parsed": str(ctx.guard(text))}


_add(
    JSONLIB, "loads", _json_loads, APIType.PROCESSING,
    syscalls=PROCESSING_SYSCALLS,
    qualname="json.loads",
    example=lambda ctx: (('{"k": 1}',), {}),
    doc="Parse a JSON string already in memory.",
)


# ----------------------------------------------------------------------
# matplotlib
# ----------------------------------------------------------------------

_FIGURE_STATE: Dict[str, Any] = {}


class _AggBackend:
    """A pyplot backend: pyplot draws, shows and saves through it."""

    def draw(self, ctx: ExecutionContext, nbytes: int) -> None:
        ctx.mem_compute(nbytes=nbytes)

    def show(self, ctx: ExecutionContext, pixels: np.ndarray) -> None:
        ctx.gui_show("matplotlib-figure", pixels)

    def print_figure(self, ctx: ExecutionContext, path: str,
                     pixels: np.ndarray) -> None:
        ctx.write_file(path, pixels)


#: The active backend, switched at run time (``matplotlib.use``).
_BACKEND = _AggBackend()


def _plt_plot(ctx: ExecutionContext, values: Any) -> Dict[str, Any]:
    values = ctx.guard(values)
    series = np.atleast_1d(np.asarray(
        values.data if hasattr(values, "data") else values, dtype=np.float64
    ))
    _BACKEND.draw(ctx, int(series.nbytes))
    figure = {"series": series.copy()}
    _FIGURE_STATE["current"] = figure
    return figure


_add(
    MATPLOTLIB, "plot", _plt_plot, APIType.PROCESSING,
    syscalls=PROCESSING_SYSCALLS,
    qualname="plt.plot",
    stateful=StatefulKind.GUI_STATE,
    example=lambda ctx: ((np.arange(8, dtype=np.float64),), {}),
    doc="Draw a line into the in-memory figure.",
)


def _plt_show(ctx: ExecutionContext) -> None:
    figure = _FIGURE_STATE.get("current", {"series": np.zeros(1)})
    _BACKEND.show(ctx, np.asarray(figure["series"]).copy())


_add(
    MATPLOTLIB, "show", _plt_show, APIType.VISUALIZING,
    syscalls=GUI_SYSCALLS,
    init_syscalls=GUI_INIT_SYSCALLS,
    qualname="plt.show",
    stateful=StatefulKind.GUI_STATE,
    example=lambda ctx: ((), {}),
    doc="Display the current figure.",
)


def _plt_savefig(ctx: ExecutionContext, path: str) -> None:
    figure = _FIGURE_STATE.get("current", {"series": np.zeros(1)})
    _BACKEND.print_figure(ctx, path, np.asarray(figure["series"]).copy())


_add(
    MATPLOTLIB, "savefig", _plt_savefig, APIType.STORING,
    syscalls=STORE_SYSCALLS,
    qualname="plt.savefig",
    stateful=StatefulKind.GUI_STATE,
    example=lambda ctx: (("/out/util/figure.png",), {}),
    doc="Render the current figure to a file.",
)


# ----------------------------------------------------------------------
# numpy I/O
# ----------------------------------------------------------------------


def _np_load(ctx: ExecutionContext, path: str) -> Mat:
    payload = ctx.guard(ctx.read_file(path))
    return Mat(np.asarray(payload).copy())


def _npy_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    _ensure_sample_files(ctx)
    return ((_SAMPLE_NPY,), {})


_add(
    NUMPYLIB, "load", _np_load, APIType.LOADING,
    syscalls=FILE_LOAD_SYSCALLS,
    qualname="np.load",
    example=_npy_example,
    doc="Load a .npy array.",
)

_add(
    NUMPYLIB, "fromfile", _np_load, APIType.LOADING,
    syscalls=FILE_LOAD_SYSCALLS,
    qualname="np.fromfile",
    example=_npy_example,
    doc="Read raw binary data into an array.",
)


def _np_save(ctx: ExecutionContext, path: str, array: Any) -> None:
    array = ctx.guard(array)
    ctx.write_file(path, np.asarray(
        array.data if hasattr(array, "data") else array
    ).copy())


_add(
    NUMPYLIB, "save", _np_save, APIType.STORING,
    syscalls=STORE_SYSCALLS,
    qualname="np.save",
    example=lambda ctx: (("/out/util/out.npy", np.ones((3, 3))), {}),
    doc="Write an array to a .npy file.",
)


def _np_einsum(ctx: ExecutionContext, array: Any) -> Mat:
    array = ctx.guard(array)
    arr = np.atleast_2d(np.asarray(
        array.data if hasattr(array, "data") else array, dtype=np.float64
    ))
    ctx.mem_compute(nbytes=int(arr.nbytes))
    return Mat(arr @ arr.T)


_add(
    NUMPYLIB, "einsum", _np_einsum, APIType.PROCESSING,
    syscalls=PROCESSING_SYSCALLS,
    qualname="np.einsum",
    example=lambda ctx: ((np.ones((3, 3)),), {}),
    doc="Contract arrays in memory.",
)


# ----------------------------------------------------------------------
# Pillow
# ----------------------------------------------------------------------


def _image_open(ctx: ExecutionContext, path: str) -> Mat:
    payload = ctx.guard(ctx.read_file(path))
    ctx.kernel.gui.add_recent_file(path)
    return Mat(np.asarray(
        payload.data if hasattr(payload, "data") else payload
    ).copy())


def _img_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    _ensure_sample_files(ctx)
    return ((_SAMPLE_IMG,), {})


_add(
    PILLOW, "Image_open", _image_open, APIType.LOADING,
    syscalls=FILE_LOAD_SYSCALLS,
    qualname="PIL.Image.open",
    base_cost_ns=60_000,
    example=_img_example,
    doc="Decode an image file (records it in the recent-files list).",
)


def _image_resize(ctx: ExecutionContext, image: Any, factor: float = 0.5) -> Mat:
    image = ctx.guard(image)
    arr = np.asarray(image.data if hasattr(image, "data") else image, dtype=np.float64)
    step = max(int(round(1.0 / max(factor, 0.01))), 1)
    result = arr[::step, ::step].copy()
    ctx.mem_compute(nbytes=int(result.nbytes))
    return Mat(result)


_add(
    PILLOW, "Image_resize", _image_resize, APIType.PROCESSING,
    syscalls=PROCESSING_SYSCALLS,
    qualname="PIL.Image.resize",
    example=lambda ctx: ((Mat(np.ones((8, 8))),), {}),
    doc="Resample an image in memory.",
)


def _image_save(ctx: ExecutionContext, image: Any, path: str) -> None:
    image = ctx.guard(image)
    ctx.write_file(path, np.asarray(
        image.data if hasattr(image, "data") else image
    ).copy())


_add(
    PILLOW, "Image_save", _image_save, APIType.STORING,
    syscalls=STORE_SYSCALLS,
    qualname="PIL.Image.save",
    example=lambda ctx: ((Mat(np.ones((4, 4))), "/out/util/photo-out.png"), {}),
    doc="Encode an image to a file.",
)


def _image_show(ctx: ExecutionContext, image: Any) -> None:
    image = ctx.guard(image)
    ctx.gui_show("pillow-viewer", np.asarray(
        image.data if hasattr(image, "data") else image
    ).copy())


_add(
    PILLOW, "Image_show", _image_show, APIType.VISUALIZING,
    syscalls=GUI_SYSCALLS,
    init_syscalls=GUI_INIT_SYSCALLS,
    qualname="PIL.Image.show",
    example=lambda ctx: ((Mat(np.ones((4, 4))),), {}),
    doc="Display an image in the default viewer.",
)


# ----------------------------------------------------------------------
# GTK
# ----------------------------------------------------------------------


def _recent_manager_add(ctx: ExecutionContext, path: str) -> None:
    ctx.gui_write(label="recent-files", nbytes=len(path))
    ctx.kernel.gui.add_recent_file(path)


_add(
    GTK, "RecentManager_add_item", _recent_manager_add, APIType.VISUALIZING,
    syscalls=GUI_SYSCALLS,
    init_syscalls=GUI_INIT_SYSCALLS,
    qualname="Gtk.RecentManager.add_item",
    stateful=StatefulKind.GUI_STATE,
    example=lambda ctx: (("/home/user/comic.cbz",), {}),
    doc="Record a file in the GTK recent-files registry.",
)


def _recent_manager_get_items(ctx: ExecutionContext) -> List[str]:
    ctx.gui_access(label="recent-files")
    return list(ctx.kernel.gui.recent_files)


_add(
    GTK, "RecentManager_get_items", _recent_manager_get_items, APIType.VISUALIZING,
    syscalls=GUI_SYSCALLS,
    init_syscalls=GUI_INIT_SYSCALLS,
    qualname="Gtk.RecentManager.get_items",
    stateful=StatefulKind.GUI_STATE,
    example=lambda ctx: ((), {}),
    doc="Read the GTK recent-files registry.",
)


def _gtk_window_show(ctx: ExecutionContext, image: Any) -> None:
    image = ctx.guard(image)
    ctx.gui_show("gtk-window", np.asarray(
        image.data if hasattr(image, "data") else image
    ).copy())


_add(
    GTK, "Window_show", _gtk_window_show, APIType.VISUALIZING,
    syscalls=GUI_SYSCALLS,
    init_syscalls=GUI_INIT_SYSCALLS,
    qualname="Gtk.Window.show",
    stateful=StatefulKind.GUI_STATE,
    example=lambda ctx: ((Mat(np.ones((4, 4))),), {}),
    doc="Show the main GTK window.",
)
