"""The Gaussian window kernel (dense numpy, see ``_py``)."""

from ._py import BACKEND, HIT, KILLED, STOP_AT_ZETA, TARGET, advance_window

__all__ = ["BACKEND", "HIT", "KILLED", "STOP_AT_ZETA", "TARGET",
           "advance_window"]
