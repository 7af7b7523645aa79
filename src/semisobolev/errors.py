"""Exception hierarchy shared by all solver modules; the CLI exits 1 on
each, naming the flags behind it (`cli.main`)."""


class SemisobolevError(Exception):
    """Base class for all errors raised by this package."""


class NoSolution(SemisobolevError):
    """The requested object does not exist (e.g. half-line soliton at |c| >= 1)."""


class ToleranceNotMet(SemisobolevError):
    """A conserved quantity or accuracy target drifted beyond its tolerance."""


class ZeroFunction(SemisobolevError):
    """An operation received a wave function with vanishing L^p norm."""


class InvalidExponent(SemisobolevError):
    """Exponent p outside [2, inf); every such p is subcritical in d = 1, 2."""


class AssumptionViolated(SemisobolevError):
    """The spectral positivity assumption fails: a p = 2 model value is not
    positive."""


class InvalidScales(SemisobolevError):
    """Partition scales must satisfy alpha >= rho > 0 and h in (0, 1), with
    h^alpha > 0 in floating point."""


class NoneAccepted(SemisobolevError):
    """No sampled partition translation passed the acceptance thresholds."""


class InvalidProfile(SemisobolevError):
    """Waveguide width profile must be finite, bounded below by a positive
    constant and have an attained maximum."""


class ConfigError(SemisobolevError):
    """Malformed run configuration; message carries the offending key."""


class LatticeOutOfRange(SemisobolevError):
    """A lattice has more nodes than the grid builder's budget or fewer than
    8 per axis, or its form's terms do not fit in floating point at this h."""
