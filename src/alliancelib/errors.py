"""Exception hierarchy shared by all alliancelib modules."""

from functools import wraps


class AllianceError(Exception):
    """Base class for every error raised by this package."""


class SelfLoop(AllianceError):
    pass


class DuplicateEdge(AllianceError):
    pass


class UnknownVertex(AllianceError):
    pass


class FrozenGraph(AllianceError):
    pass


class TooLarge(AllianceError):
    """An exhaustive oracle was asked to run beyond its hard guard."""


class InvalidInstance(AllianceError):
    pass


class DegreeTooHigh(AllianceError):
    pass


class MalformedDiagram(AllianceError):
    pass


class UnknownChord(AllianceError):
    pass


class ChordsDoNotCross(AllianceError):
    pass


class ParseError(AllianceError):
    pass


class BadParams(AllianceError):
    pass


def reader(parse):
    """Make `parse` fail only with ParseError: a ValueError (a field int()
    cannot read) or an AllianceError (an instance its constructor rejects)
    raised inside becomes a ParseError with the same message."""

    @wraps(parse)
    def read(*args, **kwargs):
        try:
            return parse(*args, **kwargs)
        except ParseError:
            raise
        except (ValueError, AllianceError) as exc:
            raise ParseError(str(exc)) from exc

    return read
