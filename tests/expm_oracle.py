"""Test oracle for exponentials: the general matrix exponential, for
non-normal input and as a second opinion on ``nk.exp_tangent``."""

import scipy.linalg


def expm(x):
    """Matrix exponential of a square matrix, or of each slice of a stack,
    by scipy's scaling-and-squaring Pade implementation."""
    return scipy.linalg.expm(x)
