"""Exception types shared across the package."""


class ChartDomainError(ValueError):
    """A point (or a stencil around it) lies outside the open chart."""


class DegenerateGeometryError(ChartDomainError):
    """The metric is numerically singular: the point sits within the guard
    margin of the chart boundary, where 1/p entries of g blow up."""


class SingularGramError(RuntimeError):
    """The constraint Gram matrix is not invertible, typically because the
    constraints are redundant or a gradient vanishes."""

    def __init__(self, names, condition_number):
        self.names = tuple(names)
        self.condition_number = float(condition_number)
        super().__init__(
            "singular constraint Gram matrix for {%s} (condition estimate %.3e)"
            % (", ".join(self.names), self.condition_number)
        )


class ConfigError(ValueError):
    """Invalid command-line run configuration."""
