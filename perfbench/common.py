"""Helpers shared by the benchmark runner and its worker process.

Times are scaled to a nominal processor speed (see calibrate).

Exact values cross the process boundary as digests, so a table of numbers
with tens of thousands of digits can be compared bit for bit without
printing it."""
from __future__ import annotations

import hashlib
import math
import signal
from fractions import Fraction
from time import perf_counter


def _int_bytes(n: int) -> bytes:
    return n.to_bytes(n.bit_length() // 8 + 1, "little", signed=True)


def exact_digest(values) -> str:
    """sha256 over a sequence of (ar, ai, br, bi, m) tuples of Fractions and
    an int radicand, the components of a + b*sqrt(m) with Gaussian-rational
    a = ar + i ai and b = br + i bi.  m is normalised to 1 when b = 0."""
    h = hashlib.sha256()
    for ar, ai, br, bi, m in values:
        if not (br or bi):
            m = 1
        for q in (ar, ai, br, bi):
            q = Fraction(q)
            h.update(_int_bytes(q.numerator))
            h.update(b"/")
            h.update(_int_bytes(q.denominator))
            h.update(b",")
        h.update(_int_bytes(m))
        h.update(b";")
    return h.hexdigest()


def cplx(pair) -> complex:
    """complex from a JSON [re, im] pair."""
    return complex(pair[0], pair[1])


# The processor of a shared machine drifts between speeds for tens of
# seconds at a time (on a 2-vCPU Xeon VM a fixed loop swung between 33 and
# 56 ms).
# A calibration loop of pure-Python integer, float and Fraction arithmetic is
# timed between requests, and each measured time is scaled to the nominal
# speed at which the loop takes CALIBRATION_NOMINAL_S.  Raw times are kept.
CALIBRATION_NOMINAL_S = 4e-4


def _calibration_loop() -> int:
    acc, x, q = 0, 1.0, Fraction(1, 3)
    for i in range(200):
        acc += i * i % 7
        x = x * 1.000001 + 0.5
        q = q + Fraction(i % 5, 7)
    return acc + int(x) + q.numerator


def calibrate() -> float:
    """Fastest of three runs of the calibration loop, in seconds."""
    best = math.inf
    for _ in range(3):
        start = perf_counter()
        _calibration_loop()
        best = min(best, perf_counter() - start)
    return best


def scaled(seconds: float, cal_before: float, cal_after: float) -> float:
    """A time measured between two calibrations, at the nominal speed."""
    return seconds * 2 * CALIBRATION_NOMINAL_S / (cal_before + cal_after)


class SpeedClock:
    """Times regions of code at the nominal speed.

    From creation to close, a SIGALRM every TICK_S seconds times the
    calibration loop.  A region is scaled piece by piece by the speed
    measured around each piece, so a region of seconds follows the drift; a
    short region takes the latest measurement.  The time spent calibrating
    is left out of the region's time."""

    TICK_S = 0.1

    def __init__(self):
        self.cal = calibrate()
        self.inside = False
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.TICK_S, self.TICK_S)

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def _tick(self, signum, frame) -> None:
        if not self.inside:
            self.cal = calibrate()
            return
        piece = perf_counter() - self.mark
        cal = calibrate()
        self.raw += piece
        self.nominal += scaled(piece, self.cal, cal)
        self.cal = cal
        self.mark = perf_counter()

    def start(self) -> None:
        self.raw = self.nominal = 0.0
        self.mark = perf_counter()
        self.inside = True

    def stop(self) -> tuple:
        """(nominal seconds, raw seconds) of the region."""
        self.inside = False
        piece = perf_counter() - self.mark
        self.raw += piece
        self.nominal += scaled(piece, self.cal, self.cal)
        return self.nominal, self.raw
