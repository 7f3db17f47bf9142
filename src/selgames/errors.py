"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; plain ValueError is reserved for precondition violations that
indicate a caller bug rather than a legitimate outcome.
"""

from __future__ import annotations


class SelGamesError(Exception):
    """Base class for all package-specific errors."""


# -- ground ------------------------------------------------------------

class CapExceeded(SelGamesError):
    """Universe larger than the 16-item cap."""


class TopologyTooLarge(SelGamesError):
    """Closure of the subbasis exceeded the open-set cap."""


class NotOpen(SelGamesError):
    """A listed set is not open in the given space."""


# -- game --------------------------------------------------------------

class EmptyMove(SelGamesError):
    """A move family contains an empty move set."""


class IllegalMove(SelGamesError):
    """A strategy produced an output outside the legal set.

    Carries the offending round index in ``round_index``.
    """

    def __init__(self, round_index: int, message: str = ""):
        self.round_index = round_index
        super().__init__(message or f"illegal move at round {round_index}")


# -- solver ------------------------------------------------------------

class BudgetExceeded(SelGamesError):
    """Search node budget exhausted before the search space was."""


# -- transforms --------------------------------------------------------

class AxiomsFail(SelGamesError):
    """Translation pack does not satisfy the transfer axioms."""


class InputNotWinning(SelGamesError):
    """The strategy handed to a transfer is not winning for its game."""


class ImageNotMove(SelGamesError):
    """An item-map image is not a legal move set of the source game."""


class NotFilterBase(SelGamesError):
    """The move family is not a filter base."""


class NotUniformlyWinning(SelGamesError):
    """Strategy fails to win at some horizon in the required interval.

    ``horizon`` names the first failing horizon.
    """

    def __init__(self, horizon: int, message: str = ""):
        self.horizon = horizon
        super().__init__(message or f"strategy is not winning at horizon {horizon}")


class WitnessMissing(SelGamesError):
    """No family member contains the required union."""


class TranslationFailed(SelGamesError):
    """Transferred strategy failed post-verification (internal error)."""


# -- duality -----------------------------------------------------------

class ChoiceSpaceTooLarge(SelGamesError):
    """Transversal enumeration would exceed the hard cap."""


# -- orders ------------------------------------------------------------

class CarrierTooLarge(SelGamesError):
    """Brute-force oracle refused: distinguished subfamily too large."""


# -- harness -----------------------------------------------------------

class NoNeighborhood(SelGamesError):
    """A family member has no proper open superset."""


class NoCovers(SelGamesError):
    """The family admits no covers, so the game cannot be built."""


class CoverEnumerationTruncated(SelGamesError):
    """Minimal-cover enumeration hit its bound; the move list would be partial."""


class InvalidCount(SelGamesError):
    """Fuzz instance count must be at least 1."""


class ScenarioFormatError(SelGamesError):
    """Scenario or companion file does not match the documented schema."""
