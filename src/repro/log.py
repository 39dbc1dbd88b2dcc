"""Structured logging for the reproduction framework.

``src/`` ran silent for its first two PRs; once runs can crash, resume
and quarantine bad records, silence makes recovery undebuggable. This
module gives every component a namespaced logger that emits *events with
fields* rather than prose:

>>> log = get_logger("store")
>>> log.info("checkpoint saved", stage="attacks", bytes=123, sha="ab..")

Handlers are configured once, at the program edge (the CLI's
``--verbose`` / ``--log-json`` flags call :func:`configure_logging`);
library code only ever calls :func:`get_logger`. With no configuration
the root ``repro`` logger carries a ``NullHandler``, so importing the
library never spams a host application — standard library etiquette.

Two output shapes share the same records:

* console (default): ``HH:MM:SS LEVEL logger: event key=value ...``
* JSON lines (``--log-json``): one object per record with sorted keys,
  machine-parseable for post-mortems of a crashed run.
"""

from __future__ import annotations

import json
import logging
import sys
import time
from typing import Any, Dict, IO, Optional

#: Root of the library's logger namespace.
ROOT_LOGGER = "repro"

_FIELDS_ATTR = "repro_fields"


class JsonLineFormatter(logging.Formatter):
    """One JSON object per record: ts, level, logger, event, fields."""

    def format(self, record: logging.LogRecord) -> str:
        payload: Dict[str, Any] = {
            "ts": round(record.created, 3),
            "level": record.levelname.lower(),
            "logger": record.name,
            "event": record.getMessage(),
        }
        fields = getattr(record, _FIELDS_ATTR, None)
        if fields:
            payload.update(fields)
        if record.exc_info:
            payload["exception"] = self.formatException(record.exc_info)
        return json.dumps(payload, sort_keys=True, default=str)


class ConsoleFormatter(logging.Formatter):
    """Human-readable line with trailing ``key=value`` fields."""

    def format(self, record: logging.LogRecord) -> str:
        stamp = time.strftime("%H:%M:%S", time.localtime(record.created))
        line = (
            f"{stamp} {record.levelname:<7} {record.name}: "
            f"{record.getMessage()}"
        )
        fields = getattr(record, _FIELDS_ATTR, None)
        if fields:
            rendered = " ".join(
                f"{key}={_render_value(value)}"
                for key, value in fields.items()
            )
            line = f"{line} {rendered}"
        if record.exc_info:
            line = f"{line}\n{self.formatException(record.exc_info)}"
        return line


def _render_value(value: Any) -> str:
    text = str(value)
    return repr(text) if " " in text else text


class StructuredLogger:
    """Thin wrapper over :class:`logging.Logger` taking keyword fields.

    ``log.info("stage completed", stage="attacks", attempts=2)`` attaches
    the fields to the record so both formatters render them; any stdlib
    handler attached to the ``repro`` hierarchy still works unmodified.
    """

    def __init__(
        self,
        logger: logging.Logger,
        bound: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.logger = logger
        self._bound: Dict[str, Any] = dict(bound or {})

    @property
    def name(self) -> str:
        return self.logger.name

    def bind(self, **fields: Any) -> "StructuredLogger":
        """A child logger that stamps *fields* onto every record.

        The supervision machinery logs many lines that all belong to one
        (stage, attempt) coordinate; binding once beats repeating
        the coordinate at every call site — and makes it impossible to
        forget on the error path, where it matters most.
        """
        merged = dict(self._bound)
        merged.update(fields)
        return StructuredLogger(self.logger, merged)

    def _log(self, level: int, event: str, fields: Dict[str, Any],
             exc_info: bool = False) -> None:
        if self.logger.isEnabledFor(level):
            if self._bound:
                merged = dict(self._bound)
                merged.update(fields)
                fields = merged
            extra = {_FIELDS_ATTR: fields} if fields else None
            self.logger.log(level, event, extra=extra, exc_info=exc_info)

    def debug(self, event: str, **fields: Any) -> None:
        self._log(logging.DEBUG, event, fields)

    def info(self, event: str, **fields: Any) -> None:
        self._log(logging.INFO, event, fields)

    def warning(self, event: str, **fields: Any) -> None:
        self._log(logging.WARNING, event, fields)

    def error(self, event: str, **fields: Any) -> None:
        self._log(logging.ERROR, event, fields)

    def exception(self, event: str, **fields: Any) -> None:
        """An error record with the traceback of the exception being
        handled."""
        self._log(logging.ERROR, event, fields, exc_info=True)


def get_logger(name: str = "") -> StructuredLogger:
    """A structured logger under the ``repro`` namespace."""
    if not name:
        qualified = ROOT_LOGGER
    elif name.startswith(ROOT_LOGGER + ".") or name == ROOT_LOGGER:
        qualified = name
    else:
        qualified = f"{ROOT_LOGGER}.{name}"
    return StructuredLogger(logging.getLogger(qualified))


#: Marker so reconfiguration replaces only handlers this module installed.
_MANAGED_ATTR = "repro_managed_handler"


def configure_logging(
    verbose: bool = False,
    json_mode: bool = False,
    stream: Optional[IO[str]] = None,
) -> logging.Logger:
    """Install (or replace) the framework's log handler; idempotent.

    Called from program entry points, never from library code. Returns
    the root ``repro`` logger so callers can tweak further if needed.
    """
    root = logging.getLogger(ROOT_LOGGER)
    for handler in list(root.handlers):
        if getattr(handler, _MANAGED_ATTR, False):
            root.removeHandler(handler)
            # Close the replaced handler so repeated configuration (a CLI
            # invoked twice in-process, a test harness) cannot stack open
            # streams or double-print through a lingering handler. The
            # default stderr stream is owned by the interpreter; close()
            # on StreamHandler only releases the handler's own resources.
            try:
                handler.close()
            except Exception:
                pass
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(
        JsonLineFormatter() if json_mode else ConsoleFormatter()
    )
    setattr(handler, _MANAGED_ATTR, True)
    root.addHandler(handler)
    root.setLevel(logging.DEBUG if verbose else logging.INFO)
    root.propagate = False
    return root


# Library etiquette: silent unless the host application configures us.
logging.getLogger(ROOT_LOGGER).addHandler(logging.NullHandler())


__all__ = [
    "ROOT_LOGGER",
    "ConsoleFormatter",
    "JsonLineFormatter",
    "StructuredLogger",
    "configure_logging",
    "get_logger",
]
