"""Workload script I/O: (virtual time, interface, request payload) entries."""

from __future__ import annotations

from typing import Iterable

from ..model import (INTEGER, OBJECT, STRING, dumps_canonical, read_records,
                     write_lines)
from ..templating import EntryRequest, check_entry_payload


def save_workload(entries: Iterable, path) -> None:
    write_lines(path, (dumps_canonical({"at_us": at_us, "line": request.line,
                                        "payload": request.payload})
                       for at_us, request in entries))


WORKLOAD_FIELDS = {"at_us": INTEGER, "line": STRING, "payload": OBJECT}


def load_workload(path):
    """(at_us, EntryRequest) for each entry of a workload file, read one line
    at a time. An entry holds an integer at_us, a string line and an object
    payload whose values are neither lists nor objects, and the entries must
    be in time order: one whose at_us is before the previous entry's raises
    ValueError at its line, as a malformed one does."""
    last_us = None
    for where, rec in read_records(path, "workload", WORKLOAD_FIELDS):
        at_us, payload = rec["at_us"], rec["payload"]
        try:
            check_entry_payload(payload)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        if last_us is not None and at_us < last_us:
            raise ValueError(f"{where}: at_us {at_us} is before the previous "
                             f"entry's {last_us}; entries must be in time order")
        last_us = at_us
        yield at_us, EntryRequest(rec["line"], payload)
