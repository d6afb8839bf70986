"""The bytes of every JSON and CSV artifact, by one set of rules.

JSON: indent 2, sorted keys, a trailing newline. CSV: UTF-8, rows end in
"\\n", and a row whose first field (the identifier column of every glp CSV)
holds a bare "\\r", which readers take for a line end, has every field
quoted. Other rows quote only what the csv module must.
"""

from __future__ import annotations

import csv
import json


def write_json(path, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        plain = csv.writer(fh, lineterminator="\n").writerow
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL).writerow
        plain(header)
        for row in rows:
            if "\r" in row[0]:
                quoted(row)
            else:
                plain(row)
