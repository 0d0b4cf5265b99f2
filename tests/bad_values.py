"""The bad alphabet of the exit-code fuzz (``tests/test_cli.py``) and of
its library twins: the strings a command line passes, and the values they
read as."""

BAD_TEXT = ["nan", "inf", "-inf", "-1", "0", "4.0", "1e400", str(2**64), "", "word", "1e-300"]


def as_number(text):
    """``text`` as an int, else as a float, else unchanged."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


# Every bad string, then each one that reads as a number as that number, then None.
BAD = [*BAD_TEXT, *(as_number(t) for t in BAD_TEXT if as_number(t) is not t), None]
