"""Text of spectral lines given as columns: line ``values``, contributor
offsets ``starts`` and (N, 2) int64 ``contributors`` rows (k, n), the layout
of ``assembler.AssembledSpectrum``. The spectrum and multiplicity reports
share these writers: CSV rows ``value,multiplicity,k:n;k:n;...`` and the JSON
records ``{value, mult, contributors: [{k, n}]}``.
"""

from __future__ import annotations

import numpy as np

LINE_HEADER = "value,multiplicity,contributors"


def line_columns(line) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The columns (values, starts, contributors) of one ``SpectrumLine``."""
    return (np.array([line.value]), np.array([0, line.multiplicity]),
            np.array(line.contributors, dtype=np.int64).reshape(-1, 2))


def _decimal(x: np.ndarray) -> np.ndarray:
    """The decimal text of each int64 of x as ASCII codes, one row per
    character position: sign, then digits right-aligned, NUL where blank."""
    rest = np.abs(x)
    width = len(str(rest.max(initial=0)))
    text = np.zeros((width + 1, len(x)), dtype=np.uint8)
    text[0][x < 0] = ord("-")
    for row in range(width, 0, -1):
        # a leading zero stays blank; the units digit always shows
        text[row] = np.where((rest > 0) | (row == width), rest % 10 + ord("0"), 0)
        rest = rest // 10
    return text


def line_rows(values, starts, contributors) -> list[str]:
    """The CSV rows of the lines. The contributor text of every line is
    formatted at once, into one string that each row slices."""
    digits = _decimal(contributors.ravel())  # k and n of each row, in turn
    width = len(digits)
    # per contributor: ';', the text of k, then that of n (n >= 0, so its
    # blank sign takes the ':')
    text = np.full((len(contributors), 1 + 2 * width), ord(";"), dtype=np.uint8)
    text[:, 1:] = digits.T.reshape(len(contributors), 2 * width)
    text[starts[:-1][starts[1:] > starts[:-1]], 0] = 0  # no ';' before a line's first
    text[:, 1 + width] = ord(":")
    filled = text != 0
    chars = text[filled].tobytes().decode("ascii")
    bounds = np.r_[0, np.cumsum(filled.sum(axis=1))][starts].tolist()
    return [f"{value!r},{mult},{chars[a:b]}" for value, mult, a, b in
            zip(values.tolist(), np.diff(starts).tolist(), bounds, bounds[1:])]


def line_dicts(values, starts, contributors) -> list[dict]:
    """The JSON records of the lines."""
    pairs = contributors.tolist()
    bounds = starts.tolist()
    return [{"value": value, "mult": b - a,
             "contributors": [{"k": k, "n": n} for k, n in pairs[a:b]]}
            for value, a, b in zip(values.tolist(), bounds, bounds[1:])]
