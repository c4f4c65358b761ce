"""Plain csv.writer emission: the test oracle of polyxport.harness.write_csv.

Every row goes through csv.writer with QUOTE_MINIMAL, one cell at a time:
a float as repr(float(x)), an integer as str(int(x)), anything else as
str(x).
"""
import csv

import numpy as np


def _fmt(x):
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(c) for c in row])
