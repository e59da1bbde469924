"""Read the shipped step tables of the worked examples back into int rows.

A table has a header line, then one line per step, "   i | w w ... w", with
a "*" after the merged value.  Row 0 is the weights and the last row is the
total.
"""

from huffwyth import cli

STEMS = [stem for stem, _, _ in cli._EXAMPLES]


def fixture_rows(stem: str) -> tuple[tuple[int, ...], ...]:
    """Return the rows of fixtures/<stem>.txt as int tuples, markers stripped."""
    lines = cli._fixture_text(stem).splitlines()[1:]
    return tuple(tuple(int(w.rstrip("*")) for w in line.split("|")[1].split())
                 for line in lines)
