"""The Gaussian window kernel (dense numpy, see ``_py``)."""

from ._py import BACKEND, STOP_AT_ZETA, TARGET, advance_window

__all__ = ["BACKEND", "STOP_AT_ZETA", "TARGET", "advance_window"]
