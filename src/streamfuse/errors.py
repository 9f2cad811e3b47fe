"""Exception hierarchy shared across the package."""


class StreamFuseError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(StreamFuseError):
    """Stream/schedule shapes (T, M or C) disagree."""


class OverlapEmpty(StreamFuseError):
    """Stream offsets leave no common frame range."""


class InvalidN(StreamFuseError):
    """n-best truncation parameter out of [1, M]."""


class WindowTooShort(StreamFuseError):
    """Analysis window too short for the configured time spans."""


class DegenerateData(StreamFuseError):
    """Training data covariance has insufficient rank for PCA."""


class DivergedTraining(StreamFuseError):
    """Autoencoder training loss became non-finite."""


class SettingError(StreamFuseError):
    """A fusion setting the method does not read, or one it needs and lacks.

    setting is the keyword at fault, which is also the name of its flag.
    """

    def __init__(self, setting: str, reason: str):
        super().__init__(f"{setting}: {reason}")
        self.setting, self.reason = setting, reason

    def __reduce__(self):  # args holds the message alone: pickle the two fields
        return type(self), (self.setting, self.reason)


class FormatError(StreamFuseError):
    """Base class for file-format errors."""


class BadMagic(FormatError):
    """File does not start with the expected magic bytes."""


class VersionUnsupported(FormatError):
    """File version not understood by this reader."""


class PayloadTruncated(FormatError):
    """File payload shorter than the header promises."""


class InvalidSimplex(FormatError):
    """A probability row is negative, non-finite or too far from the simplex.

    core.check_simplex raises it, for rows in a file and in memory alike.
    """
