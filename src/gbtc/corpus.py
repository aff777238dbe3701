"""Bundled example graphs used by tests and the corpus sweep."""

from __future__ import annotations

import json

from .graph_core import Graph, graph_from_data

BUNDLED = (
    "hgraph",
    "random10",
    "spider",
    "star3",
    "star4",
    "star5",
    "theta",
)


def load_bundled(name: str) -> Graph:
    if name not in BUNDLED:
        raise KeyError(f"no bundled graph named {name!r}")
    # imported here: on Python 3.12 and later importlib.resources imports
    # inspect and typing, which every other command would pay for
    from importlib import resources

    data = resources.files("gbtc.data").joinpath(f"{name}.json").read_text("utf-8")
    return graph_from_data(json.loads(data))
