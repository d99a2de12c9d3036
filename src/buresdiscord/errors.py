"""Exception types raised by the numerical kernels and state constructors."""


class BuresDiscordError(Exception):
    """Base class for all library errors."""


class NotHermitian(BuresDiscordError):
    """Input matrix is not Hermitian within tolerance."""


class NotPSD(BuresDiscordError):
    """Input matrix has an eigenvalue below the allowed negative slack."""


class NotUnitary(BuresDiscordError):
    """Matrix fails the unitarity check."""


class InvalidParams(BuresDiscordError):
    """State parameters violate a constraint; the message names it."""


class NotSymmetricFamily(BuresDiscordError):
    """Operation requires the a=d, b=c X-state family."""


class PreconditionNotMet(BuresDiscordError):
    """Closed form used outside its validity domain; the message lists the failed conditions."""
