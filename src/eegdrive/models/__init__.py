"""Classifiers and the training loop."""
