"""Deterministic frame-stepped fighting engine."""
