"""Workload script I/O: (virtual time, interface, request payload) entries."""

from __future__ import annotations

from ..model import dumps_canonical, read_records, write_lines
from ..templating import EntryRequest


def save_workload(entries: list, path) -> None:
    write_lines(path, (dumps_canonical({"at_us": at_us, "line": request.line,
                                        "payload": request.payload})
                       for at_us, request in entries))


def _entry(rec) -> tuple:
    at_us, line, payload = rec["at_us"], rec["line"], rec["payload"]
    if type(at_us) is not int:  # a bool is no time, a float would be cut
        raise ValueError(f"at_us must be an integer, got {at_us!r}")
    if not isinstance(line, str):
        raise ValueError(f"line must be a string, got {line!r}")
    if not isinstance(payload, dict):
        raise ValueError(f"payload must be an object, got {payload!r}")
    for key, value in payload.items():
        if isinstance(value, (list, dict)):
            raise ValueError(f"payload value of {key!r} must not be a list or "
                             f"object, got {value!r}")
    return at_us, EntryRequest(line, payload)


def load_workload(path):
    """(at_us, EntryRequest) for each entry of a workload file, read one line
    at a time. An entry holds an integer at_us, a string line and an object
    payload whose values are neither lists nor objects, and the entries must
    be in time order: one whose at_us is before the previous entry's raises
    ValueError at its line, as a malformed one does."""
    last_us = None
    for where, rec in read_records(path, "workload"):
        try:
            at_us, request = _entry(rec)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{where}: {exc}") from exc
        if last_us is not None and at_us < last_us:
            raise ValueError(f"{where}: at_us {at_us} is before the previous "
                             f"entry's {last_us}; entries must be in time order")
        last_us = at_us
        yield at_us, request
