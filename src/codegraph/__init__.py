"""Grassmann graphs, non-degenerate code graphs, and the exhaustive
classification of their embeddings, at desk scale over small prime fields."""

__version__ = "0.1.0"
