"""Text of spectral lines given as columns: line ``values``, contributor
offsets ``starts`` and (N, 2) int64 ``contributors`` rows (k, n), the layout
of ``assembler.AssembledSpectrum``. The spectrum and multiplicity reports
share these writers: CSV rows ``value,multiplicity,k:n;k:n;...`` and the JSON
records ``{value, mult, contributors: [{k, n}]}``.

``report_json`` is the JSON writer of every report: ``json.dumps(payload,
sort_keys=True, indent=2)``, except that a spectrum's ``lines``, given as
columns, are written straight from the columns, to the same bytes that
dumping the ``line_dicts`` records gives, with no dict per contributor and
no pass of json's pure-Python indenting encoder over them.
"""

from __future__ import annotations

import json

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


def report_json(payload: dict) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2)``. A ``lines`` entry
    given as a tuple of columns (values, starts, contributors) stands for
    their ``line_dicts`` records, and is written in place from the columns."""
    columns = payload.get("lines")
    if not isinstance(columns, tuple):
        return json.dumps(payload, sort_keys=True, indent=2)
    # the only top-level key "lines": deeper keys are indented further, and
    # a newline inside a string is escaped
    head, tail = json.dumps({**payload, "lines": []}, sort_keys=True,
                            indent=2).split('\n  "lines": []')
    values, starts, contributors = columns
    if len(values) == 0:
        return f'{head}\n  "lines": []{tail}'
    pad = ["\n" + "  " * level for level in range(1, 6)]
    one = f'{pad[3]}{{{pad[4]}"k": %d,{pad[4]}"n": %d{pad[3]}}}'
    bounds = starts.tolist()
    # json's own float text, NaN and Infinity included
    floats = json.dumps(values.tolist())[1:-1].split(", ")
    # a template of the whole list, with a %d for each k and n in row order
    # (no other text holds a '%'), filled at once
    template = "[" + ",".join(
        f'{pad[1]}{{{pad[2]}"contributors": '
        + (f'[{",".join([one] * (b - a))}{pad[2]}]' if b > a else "[]")
        + f',{pad[2]}"mult": {b - a},{pad[2]}"value": {value}{pad[1]}}}'
        for value, a, b in zip(floats, bounds, bounds[1:])) + pad[0] + "]"
    return f'{head}\n  "lines": {template % tuple(contributors.ravel().tolist())}{tail}'
