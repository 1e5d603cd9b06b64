"""Exception types shared by the whole package."""


class StagError(Exception):
    """Base class for all library errors."""


class ParseError(StagError):
    def __init__(self, line, reason):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class Disconnected(StagError):
    pass


class TooLarge(StagError):
    pass


class TooManyTrees(StagError):
    pass


class NotAStag(StagError):
    def __init__(self, reason):
        self.reason = reason
        super().__init__(reason)


class NotMinimal(StagError):
    pass


class ValidationFailed(StagError):
    pass
