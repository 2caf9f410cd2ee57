"""The one CSV writer behind every artifact.

Floats are written with 17 significant digits, so they round-trip exactly;
rows end in \\r\\n, as csv.writer ends them; only text cells get csv quoting.
"""

from __future__ import annotations

import csv

_CELL_FORMATS = {"d": "%d", "g": "%.17g", "s": None}


def write_csv(path, header, rows, kinds: str, preamble: str = ""):
    """Write preamble (verbatim), the header row, then rows to path.

    kinds has one code per column: "d" an integer, "g" a float, "s" text.
    Rows of a table without text columns go through one %-format string
    built here; text cells need csv quoting, so such tables use csv.writer.
    """
    formats = [_CELL_FORMATS[k] for k in kinds]
    with open(path, "w", newline="") as fh:
        fh.write(preamble)
        writer = csv.writer(fh)
        writer.writerow(header)
        if None in formats:
            writer.writerows([v if f is None else f % v
                              for f, v in zip(formats, row, strict=True)] for row in rows)
        else:
            line = ",".join(formats) + "\r\n"
            fh.writelines(line % tuple(row) for row in rows)
