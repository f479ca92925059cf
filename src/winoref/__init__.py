"""Self-supervised refinement of a masked language model for zero-shot
pronoun disambiguation, with perturbation-token conditioning, a windowed
token-matching similarity metric and a masked-candidate scorer."""

__version__ = "0.1.0"
