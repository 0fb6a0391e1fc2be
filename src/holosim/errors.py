"""Exception types shared across the simulator, and the artifact writer.

Every contract violation raises one of these rather than a bare ValueError,
so callers (and the CLI) can tell configuration mistakes from numerical
failures. Every result file goes through ``write_text``, whose contract is
"write the whole file, or raise IoError".
"""

import contextlib
import json
import os


class HolosimError(Exception):
    """Base class for all package-specific errors."""


class NonHermitianInputError(HolosimError):
    """A matrix that must be Hermitian is not, beyond tolerance."""


class NonUnitaryInputError(HolosimError):
    """A matrix that must be unitary is not, beyond tolerance."""


class DimensionMismatchError(HolosimError):
    """Operands have incompatible shapes for the requested operation."""


class OutOfRangeError(HolosimError):
    """A scalar parameter lies outside its documented domain."""


class ZeroAreaError(HolosimError):
    """An envelope with zero integral cannot be normalized to a target area."""


class BadTransitionError(HolosimError):
    """A pulse segment addresses a transition the Hamiltonian does not drive."""


class NegativeRateError(HolosimError):
    """A decay or dephasing rate is negative."""


class StepTooLargeError(HolosimError):
    """Integration step produced an unphysical state (trace or norm drift)."""


class BadShotCountError(HolosimError):
    """Shot count must be a positive integer (or None for exact values)."""


class SingularInputSpanError(HolosimError):
    """Tomography input states do not span the operator space."""


class ConvergenceFailureError(HolosimError):
    """An iterative reconstruction ran out of iterations.

    Carries the solver's latest iterate as ``best`` so the caller can
    inspect how close the solver got.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class ZeroCouplingError(HolosimError):
    """Both effective couplings of a cavity gate are zero."""


class FitDivergenceError(HolosimError):
    """A least-squares fit failed to converge or the model is degenerate."""


class RatioOutOfRangeError(HolosimError):
    """Interleaved/reference decay ratio is outside the physical range."""


class ConfigError(HolosimError):
    """A run configuration is invalid.

    ``path`` points at the offending key, e.g. ``sweep.n_epsilon``.
    """

    def __init__(self, message, path=""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


class IoError(HolosimError):
    """Filesystem problem while writing or reading run artifacts."""


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` atomically, or raise IoError naming it.

    The text lands in ``<path>.tmp`` first and replaces ``path`` in one
    rename, so a failed write leaves neither a half-written file nor the
    temp file behind.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_json(path, payload) -> None:
    """``payload`` as indented, key-sorted JSON plus a trailing newline."""
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
