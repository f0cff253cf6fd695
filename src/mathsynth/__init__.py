"""Batch pipeline that turns a difficulty-annotated math corpus into graded training data.

Stages: embed and pair similar seed problems across difficulty levels,
synthesize harder (hybrid) and intermediate (decomposed) variants, verify
them against a fixed rubric, generate gated long-form solutions, and export
curriculum-staged SFT files. See the cli module for the command-line entry
point and the README for file formats.
"""
from __future__ import annotations

__version__ = "0.1.0"

__all__ = [
    "cli",
    "config",
    "corpus",
    "curriculum",
    "jsonl",
    "pairing",
    "prompts",
    "providers",
    "quality",
    "solver",
    "synthesis",
]
