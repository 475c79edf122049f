"""Tests for the byte units."""

from repro.util.units import GIB, KIB, MIB


def test_byte_constants():
    assert KIB == 1024
    assert MIB == 1024 * KIB
    assert GIB == 1024 * MIB
