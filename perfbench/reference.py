"""A fixed pure-Python program that gauges how fast the host runs right now.

run.py times it in each round next to the command and divides the command's
wall time by this program's.  Like the commands it starts a fresh
interpreter and imports numpy; then it spends most of its second in Fraction
arithmetic and dict updates, so a busy neighbour slows both alike.  It
imports nothing from the code under test: a change to fockforms cannot move
it.
"""

from fractions import Fraction

import numpy


def work(n=40000):
    table = {}
    total = Fraction(0)
    for i in range(1, n):
        a = Fraction(i, i % 97 + 1)
        b = Fraction(i % 13 + 1, i % 7 + 2)
        total += a * b - Fraction(1, i % 11 + 1)
        key = (i % 251, i % 17)
        table[key] = table.get(key, Fraction(0)) + b
        if i % 500 == 0:  # keep the numbers small, so every run does equal work
            total = Fraction(total.numerator % 1000003, total.denominator % 1009 + 1)
    return (len(table), int(numpy.arange(2000, dtype=numpy.int64).sum()),
            total.numerator % 1000003, total.denominator % 1000003)


if __name__ == "__main__":
    print(*work())
