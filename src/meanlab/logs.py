"""The package's log records.  It logs at INFO and DEBUG alone, which no
handler shows until logging is configured, and configuring it imports
``logging``: until then ``log`` drops each record unbuilt."""

import sys


def log(name: str, level: str, msg: str, *args) -> None:
    """Log ``msg % args`` at ``level``, "info" or "debug", on the logger
    ``name`` as the caller's function and line, once ``logging`` is imported."""
    logging = sys.modules.get("logging")
    if logging is not None:
        getattr(logging.getLogger(name), level)(msg, *args, stacklevel=2)
