"""Seeded stream derivation: determinism and independence."""
import numpy as np

from pvashape.core import SeededRng


def test_same_stream_twice_is_identical():
    a = SeededRng(7).derive(0).generator().random(1000)
    b = SeededRng(7).derive(0).generator().random(1000)
    assert np.array_equal(a, b)


def test_sibling_streams_differ():
    a = SeededRng(7).derive(0).generator().random(1000)
    b = SeededRng(7).derive(1).generator().random(1000)
    assert np.any(a != b)


def test_different_seeds_differ():
    a = SeededRng(7).derive(0).generator().random(1000)
    b = SeededRng(8).derive(0).generator().random(1000)
    assert np.any(a != b)


def test_derivation_is_path_dependent():
    a = SeededRng(7).derive(0).derive(1).generator().random(100)
    b = SeededRng(7).derive(1).derive(0).generator().random(100)
    assert np.any(a != b)


def test_child_stream_starts_at_draw_zero():
    parent = SeededRng(3)
    parent.generator().random(50)
    a = parent.derive(2).generator().random(10)
    b = SeededRng(3).derive(2).generator().random(10)
    assert np.array_equal(a, b)

