"""Desk-scale lab for evolution-triangle multimodal retrieval attacks on
synthetic image-text tasks with toy differentiable encoders."""

__version__ = "0.1.0"
