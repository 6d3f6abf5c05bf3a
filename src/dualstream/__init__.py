"""Divergence-gated retrieval with attention-difference knowledge filtering
and shared/private mixed-attention fusion on a small from-scratch transformer."""

__version__ = "0.1.0"
