"""Runtime guard exceptions, distinct from plain ValueError validation."""

import numpy as np


class GuardError(RuntimeError):
    """A solver guard tripped mid-run (distinct from config validation)."""


class ResolutionError(GuardError):
    """Spectral tail carries too much mass: oscillations under-resolved."""

    def __init__(self, msg, tail_fraction=None, t=None):
        super().__init__(msg)
        self.tail_fraction = tail_fraction
        self.t = t

    @classmethod
    def check(cls, frac, tail_tol, where, t=None):
        """Raise unless frac <= tail_tol; a NaN fraction fails too.  frac may
        hold one fraction per field of a stack (grid.tail_fraction): the
        first that fails raises."""
        for value in np.ravel(frac).tolist():
            if not value <= tail_tol:
                raise cls(f"spectral tail fraction {value:.3e} exceeds {tail_tol:.1e} {where}; "
                          "oscillations are unresolved on this grid", tail_fraction=value, t=t)


class SingularityError(GuardError):
    """Phase gradient exceeded the singularity threshold."""

    def __init__(self, msg, grad_max=None, t=None):
        super().__init__(msg)
        self.grad_max = grad_max
        self.t = t


class NonFiniteError(GuardError):
    """NaN or overflow detected; carries the last good snapshot."""

    def __init__(self, msg, last_state=None, t=None):
        super().__init__(msg)
        self.last_state = last_state
        self.t = t
