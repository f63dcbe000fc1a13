"""Privacy-preserving punch cards.

A loyalty card a server can punch and later verify without ever being able
to tell one customer's card from another's. The single-group scheme lives
in `core`, the pairing-based variant whose cards can be combined at
redemption in `mergeable`, and promotions (multi-punch, expiry, pickup
claims, per-slot tickets) in `extensions`.
"""

from .core import (
    CardSecret,
    PunchResponse,
    RedeemRequest,
    RedeemStatus,
    client_punch,
    client_redeem,
    issue,
    server_punch,
    server_redeem,
    server_setup,
)
from .errors import PunchcardError
from .groups import get_group, get_pairing

__version__ = "0.1.0"

__all__ = [
    "CardSecret",
    "PunchResponse",
    "RedeemRequest",
    "RedeemStatus",
    "PunchcardError",
    "client_punch",
    "client_redeem",
    "get_group",
    "get_pairing",
    "issue",
    "server_punch",
    "server_redeem",
    "server_setup",
    "__version__",
]
