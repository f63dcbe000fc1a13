"""Exception types shared across the package."""


class PunchcardError(Exception):
    """Base class for all protocol-level errors."""


class InvalidEncoding(PunchcardError):
    """A byte string is not a canonical encoding of a group element or scalar."""


class ZeroInverse(PunchcardError):
    """Attempted to invert the zero scalar."""


class ProofRejected(PunchcardError):
    """A punch response carried a proof that does not verify; state unchanged."""


class PromotionTooLarge(PunchcardError):
    """Requested multi-punch count is outside [1, t_max]."""


class BadExpiry(PunchcardError):
    """Card secret carries a malformed, expired, or implausibly distant expiry."""


class NoSuchRedemption(PunchcardError):
    """Presented claim secret does not match any unclaimed redemption."""


class ConfigError(PunchcardError):
    """Server configuration file is missing, malformed, or inconsistent."""


class KeyStoreError(PunchcardError):
    """Server key material cannot be loaded or created."""


class DbCorruption(PunchcardError):
    """Redemption database failed integrity checks beyond normal crash recovery."""


class DbBusy(PunchcardError):
    """Redemption database is already open, by another server or purge."""


class WalletError(PunchcardError):
    """Wallet store is unreadable or an operation references a bad card."""


class WireError(PunchcardError):
    """Malformed frame or unexpected message type on the transport."""
