"""Exception types shared across the package."""


class ChartDomainError(ValueError):
    """A point lies outside the open chart."""


class DegenerateGeometryError(ChartDomainError):
    """Raised by the ChartPoint guard: the point would sit closer than
    BOUNDARY_MARGIN to the chart boundary, where the 1/p entries of the
    metric and its inverse blow up."""


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
