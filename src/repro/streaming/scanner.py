"""The scan engine under its other name (see :mod:`repro.streaming.service`).

``StreamScanner`` is bound to :class:`repro.streaming.ScanService`, the one
scan engine, so code that imports it from here keeps working.
"""

from .service import StreamScanner

__all__ = ["StreamScanner"]
