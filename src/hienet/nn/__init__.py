"""Autodiff tensor, layers, Adam, finite-difference checks and checkpoints."""
