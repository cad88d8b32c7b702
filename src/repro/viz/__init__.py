"""Plain-text rendering of 2-D torus placements (Fig. 1 reproduction)."""

from repro.viz.ascii_art import render_placement_2d, render_figure1

__all__ = ["render_placement_2d", "render_figure1"]
