"""Environmental-assisted correction of continuous-variable Gaussian channels."""

__version__ = "0.1.0"
