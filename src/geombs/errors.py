class GeombsError(Exception):
    """Base class for all library errors."""

    category = "error"


class ValidationError(GeombsError):
    """Malformed instance, subset, or parameter."""

    category = "validation"


class CapacityError(GeombsError):
    """Input exceeds a cap: the oracle's vertex cap, or a PTAS box with more
    than 2^16 2-colorable subsets.  The command line exits 4."""

    category = "capacity"


class CertificateError(GeombsError):
    """A solution fails its feasibility check; the message names a witness."""

    category = "certificate"
