"""Byte units.

Costs in this library are expressed in **simulated milliseconds** and sizes
in **bytes**; these constants keep magic numbers out of the cost models.
"""

from __future__ import annotations

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB
