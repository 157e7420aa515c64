class GeombsError(Exception):
    """Base class for all library errors."""

    category = "error"


class ValidationError(GeombsError):
    """Malformed instance, subset, or parameter."""

    category = "validation"


class CapacityError(GeombsError):
    """Input exceeds a configured cap: the oracle's vertex cap or the PTAS
    box cap."""

    category = "capacity"


class CertificateError(GeombsError):
    """A solution fails its feasibility check; the message names a witness."""

    category = "certificate"
