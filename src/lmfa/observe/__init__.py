"""Observation pipeline: rasterize, annotate, window, describe, encode."""
