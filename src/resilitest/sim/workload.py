"""Workload script I/O: (virtual time, interface, request payload) entries."""

from __future__ import annotations

from ..model import dumps_canonical, read_records, write_lines
from ..templating import EntryRequest


def save_workload(entries: list, path) -> None:
    write_lines(path, (dumps_canonical({"at_us": at_us, "line": request.line,
                                        "payload": request.payload})
                       for at_us, request in entries))


def load_workload(path) -> list:
    entries = []
    for where, rec in read_records(path, "workload"):
        try:
            entries.append((int(rec["at_us"]),
                            EntryRequest(rec["line"], dict(rec["payload"]))))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{where}: {exc}") from exc
    return entries
