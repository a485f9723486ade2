"""Exception types shared across the package, and the text reader that turns
an undecodable input file into one of them. Non-fatal data problems are not
exceptions: ingest and render log them as warnings named by the record."""


class ConfigError(ValueError):
    """A setting, flag, or derived shape is inconsistent with the contract."""


class ProtocolError(ValueError):
    """Dataset cannot support the requested split/evaluation protocol."""


def read_text(path, error) -> str:
    """The utf-8 text of a file; bytes that do not decode raise `error`, naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error("%s: not utf-8 text (byte %d)" % (path, exc.start)) from None
