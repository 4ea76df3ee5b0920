"""Record which functions of one source tree run, in every process.

Python imports ``sitecustomize`` at start-up from the first ``sys.path``
entry that has one, so putting this directory on ``PYTHONPATH`` loads the
hook into the process and into every child it starts (``spawn`` workers and
subprocesses alike; a ``fork`` child inherits it).  It does nothing unless
``CENSUS_DIR`` (where to write) and ``CENSUS_ROOT`` (whose functions to
count) are set.

Each function seen for the first time is written at once, one
``<file>:<first line>`` per line, to ``CENSUS_DIR/<pid>.txt`` with a
single ``os.write``: a worker that is killed, or that exits through
``os._exit`` without running ``atexit``, has still recorded what it ran.
Stdlib only: it runs before anything else is importable.
"""

import os
import sys
import threading

_DIR = os.environ.get("CENSUS_DIR")
_ROOT = os.environ.get("CENSUS_ROOT")

if _DIR and _ROOT:
    _root = os.path.realpath(_ROOT)
    _seen = set()
    _lock = threading.Lock()
    _out = [None, -1]  # [pid, fd]: a fork child opens a file of its own

    def _write(line: bytes) -> None:
        with _lock:
            pid = os.getpid()
            if _out[0] != pid:
                _out[1] = os.open(
                    os.path.join(_DIR, f"{pid}.txt"),
                    os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644,
                )
                _out[0] = pid
            os.write(_out[1], line)

    def _profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        # Not the code object itself: equal code objects of two files (the
        # same body at the same line) would hide one another.
        site = (code.co_filename, code.co_firstlineno)
        if site in _seen:
            return
        _seen.add(site)
        path = os.path.realpath(code.co_filename)
        if path.startswith(_root):
            _write(f"{path}:{code.co_firstlineno}\n".encode())

    sys.setprofile(_profile)
    threading.setprofile(_profile)
