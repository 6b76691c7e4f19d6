"""Writing web logs to disk.

The synthetic workloads exist so the pipeline can run without the
paper's proprietary logs — but downstream users have real log files,
and tests want round-trips.  :func:`save_log` streams a
:class:`WebLog` to an NCSA common/combined file, which
:func:`repro.weblog.parser.load_clf` and the CLIs read back.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from repro.weblog.parser import WebLog

__all__ = ["save_log"]


def save_log(
    log: WebLog,
    path: Union[str, Path],
    combined: bool = True,
) -> int:
    """Write ``log`` to ``path`` in NCSA (combined) format.

    Entries are written in their current order (call
    :meth:`WebLog.sort_by_time` first for a chronological file).
    Returns the number of lines written.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with open(path, "w") as handle:
        for entry in log.entries:
            handle.write(entry.to_clf(combined=combined) + "\n")
            count += 1
    return count
