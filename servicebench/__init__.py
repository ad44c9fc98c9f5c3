"""Calibrated end-to-end and per-layer benchmark of the dispatch service."""
