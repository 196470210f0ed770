"""The one writer and reader behind the package's CSV formats (BER, PEP and ratio curves)."""

__all__ = ["csv_text", "csv_rows"]


def _field(v) -> str:
    """repr for a float (it reads back as the same float), 0 or 1 for a bool, str otherwise."""
    return repr(float(v)) if isinstance(v, float) else str(int(v) if isinstance(v, bool) else v)


def csv_text(header: str, rows) -> str:
    """A CSV document: header, then one line per row of fields, each line ending in a newline.

    Floats are written with repr, booleans as 0 or 1, and ints and strings with str.
    """
    return "".join(f"{line}\n" for line in [header] + [",".join(map(_field, r)) for r in rows])


def csv_rows(text: str, header: str, types: tuple) -> list[list]:
    """The converted fields of each data row of a CSV document that must start with header.

    types holds one converter per column, such as float or int. Blank lines
    are skipped. A different header or a row whose field count differs from
    the header's raises ValueError naming the line; a field its converter
    rejects raises ValueError naming the line and the column.
    """
    lines = [(i, ln.strip()) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or lines[0][1] != header:
        raise ValueError(f"unexpected CSV header: {[ln for _, ln in lines[:1]]}")
    names = header.split(",")
    rows = []
    for i, ln in lines[1:]:
        fields = ln.split(",")
        if len(fields) != len(names):
            raise ValueError(
                f"CSV line {i}: expected {len(names)} fields, got {len(fields)}: {ln!r}"
            )
        row = []
        for name, convert, field in zip(names, types, fields):
            try:
                row.append(convert(field))
            except ValueError:
                raise ValueError(
                    f"CSV line {i}, column {name!r}: cannot read {field!r} as {convert.__name__}"
                ) from None
        rows.append(row)
    return rows
