"""Bilinear resampling by precomputed taps.

A resample reads each output pixel from the four input pixels around
one coordinate per axis. ``tap_plan`` turns the two axes' coordinates
into four taps and ``resize`` sums them in the order of
``scipy.ndimage``'s order-1 spline interpolation with mode "nearest",
so a plan fed the coordinates ndimage computes gives its numbers bit
for bit, signed zeros included; the one exception is a zoom to an
unchanged shape, where ndimage returns its input as it is, so an input
-0.0 stays -0.0 where the taps sum to +0.0. Preprocessing feeds it the
corner-aligned coordinates of ``map_coordinates`` on a ``linspace``
grid, and the profile backgrounds those of ``zoom`` in grid mode.
"""

import numpy as np


def _axis_taps(coord, n):
    """(index, weight) of the low and the high tap of each coordinate.

    The taps are floor(c) and floor(c) + 1, each clamped to [0, n - 1];
    the weights are 1 - (c - floor(c)) and one minus that. The
    coordinates themselves are not clamped.
    """
    lo = np.floor(coord)
    w_lo = 1.0 - (coord - lo)
    lo = lo.astype(np.intp)
    return (np.clip(lo, 0, n - 1), w_lo), (np.clip(lo + 1, 0, n - 1), 1.0 - w_lo)


def tap_plan(row_coord, in_h, col_coord, in_w):
    """Read-only taps resampling an (in_h, in_w) plane at the rows
    ``row_coord`` and the columns ``col_coord`` (input pixel units).

    Four (flat index, row weight, column weight) triples in row-major
    tap order, each with one row per output pixel in C order (the
    weights as (out_h * out_w, 1) columns).
    """
    out_h, out_w = len(row_coord), len(col_coord)
    plan = []
    for rows, w_row in _axis_taps(row_coord, in_h):
        for cols, w_col in _axis_taps(col_coord, in_w):
            tap = ((rows[:, None] * in_w + cols).ravel(),
                   np.repeat(w_row, out_w)[:, None], np.tile(w_col, out_h)[:, None])
            for arr in tap:
                arr.flags.writeable = False
            plan.append(tap)
    return tuple(plan)


def resize(pixels, plan):
    """Apply a tap plan to an (H*W, K) array, one row per input pixel
    and one column per plane: (out_h * out_w, K).

    Per output value this is ndimage's sum in its order: 0.0 plus, tap
    by tap, value * row weight * column weight. Holding the planes of a
    pixel in one row makes each tap gather whole rows.
    """
    total = np.zeros((plan[0][0].size, pixels.shape[1]))
    for idx, w_row, w_col in plan:
        v = np.take(pixels, idx, axis=0)
        v *= w_row
        v *= w_col
        total += v
    return total
