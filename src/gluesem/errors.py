"""Exception types shared across the package."""


class GlueError(Exception):
    """Base class for all errors raised by this package."""


class _SyntaxError(GlueError):
    """Malformed text; the message ends with the offset when one is known."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


# --- meaning language ---

class TermError(GlueError):
    pass


class UnboundVariable(TermError):
    pass


class TypeMismatch(TermError):
    pass


class ExtensionOfNonIntension(TermError):
    pass


class TermSyntaxError(_SyntaxError, TermError):
    pass


# --- f-structures ---

class FStructureError(GlueError):
    pass


class FStructureSyntaxError(_SyntaxError, FStructureError):
    pass


class DuplicateLabel(FStructureError):
    pass


class DuplicateAttribute(FStructureError):
    pass


class CyclicStructure(FStructureError):
    pass


class UnknownLabel(FStructureError):
    pass


class MissingAttribute(FStructureError):
    pass


class AtomicValueOnPath(FStructureError):
    pass


# --- glue formulas ---

class GlueFormulaError(GlueError):
    pass


class GlueSyntaxError(_SyntaxError, GlueFormulaError):
    pass


class OpenVariable(GlueFormulaError):
    pass


class AtomTypeMismatch(GlueFormulaError):
    pass


class TensorInConclusion(GlueFormulaError):
    pass


# --- lexicon / scenarios ---

class LexiconError(GlueError):
    pass


class PredMismatch(LexiconError):
    pass


# --- prover ---

class ProverError(GlueError):
    pass


class NonPatternUnification(ProverError):
    """A unification problem fell outside the higher-order pattern fragment."""


class NotProvable(ProverError):
    def __init__(self, message, limit_hit=False):
        super().__init__(message)
        self.limit_hit = limit_hit


class InvalidStep(ProverError):
    """An independent proof check rejected one step of a proof tree."""

    def __init__(self, path, reason):
        super().__init__(f"invalid {'.'.join(map(str, path)) or 'root'} step: {reason}")
        self.path = tuple(path)
        self.reason = reason
