"""Process entry of the ``paracyl`` console script: ``cli.entry``, with the collector off from the start.

A plain import of ``cli`` turns the collector back on at its end, and the
next allocation would collect every object numpy's import made.  Turned off
here first, it stays off until ``entry`` has frozen them.
"""

import gc

gc.disable()

from .cli import entry  # noqa: E402

__all__ = ["entry"]
