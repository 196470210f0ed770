"""The one reader behind the package's CSV formats (BER, PEP and ratio curves)."""

__all__ = ["csv_rows"]


def csv_rows(text: str, header: str) -> list[list[str]]:
    """The fields of each data row of a CSV document that must start with header.

    Blank lines are skipped. A different header, or a row whose field count
    differs from the header's, raises ValueError naming the line.
    """
    lines = [(i, ln.strip()) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or lines[0][1] != header:
        raise ValueError(f"unexpected CSV header: {[ln for _, ln in lines[:1]]}")
    width = header.count(",") + 1
    rows = []
    for i, ln in lines[1:]:
        fields = ln.split(",")
        if len(fields) != width:
            raise ValueError(f"CSV line {i}: expected {width} fields, got {len(fields)}: {ln!r}")
        rows.append(fields)
    return rows
