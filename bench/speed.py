"""Machine speed, sampled with fixed calibration code, so that measured
times can be given at one reference speed.

Each vCPU of a VM shared with other tenants switches between a fast
state and states up to about 1.9x slower, in spells from a fraction of a
second to minutes; the program's wall and CPU time follow it. Fixed
calibration code run next to the measured code slows by about the same
factor, so

    reference time = measured time * (calibration time at the reference
                     speed) / (calibration time nearby)

stays put while the machine state changes. The calibrations are fixed
code in the benchmark's own files and do not import the program, so a
change to the program moves the measured time and not them. How much a
state slows code depends on the kind of code, so each measurement is
paired with a calibration of its own kind:

* ``arithmetic_burst``, complex arithmetic on small objects, for long
  CLI runs, which spend most of their time evaluating terms;
* ``cli_burst``, argument parsing and JSON output with the standard
  library, for short CLI runs, which spend most of theirs there;
* ``IMPORT_CODE``, run in a fresh interpreter, which imports standard
  modules and creates dataclasses, for the import of the program.

``Sampler.start`` runs bursts on a real-time timer (for a whole CLI run
in one process); ``Sampler.maybe_tick`` runs one when the last
is ``PERIOD_S`` old (between short jobs, where a timer signal could hit
a job near the recursion limit). ``Sampler.converter`` converts
intervals and leaves out the bursts inside them.
"""

import time

# seconds between a sampler's bursts
PERIOD_S = 0.1
# bursts either side whose median gives the speed at a moment
SMOOTH = 2
# each calibration's time at the reference speed: about the fastest
# state of a 2-vCPU Intel Xeon VM at 2.0 GHz
REF_ARITHMETIC_S = 0.0014
REF_CLI_S = 0.0010
REF_IMPORT_S = 0.042

# for ``python -S -c``: prints the seconds it takes to import standard
# modules that a CLI uses and create dataclasses, as an import of the
# program does
IMPORT_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import argparse, dataclasses, enum, fractions, json, re\n"
    "for _ in range(8):\n"
    "    @dataclasses.dataclass(frozen=True)\n"
    "    class Record:\n"
    "        name: str\n"
    "        value: complex = 0j\n"
    "        index: int = 0\n"
    "        ok: bool = True\n"
    "parser = argparse.ArgumentParser(prog='calibrate')\n"
    "parser.add_subparsers(dest='command').add_parser('run').add_argument('expr')\n"
    "print(repr(time.perf_counter() - t0))\n"
)


class _Pair:
    """Two complex numbers with componentwise ring operations: the same
    kind of work as the program's term evaluation."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def add(self, other):
        return _Pair(self.a + other.a, self.b + other.b)

    def mul(self, other):
        return _Pair(self.a * other.a, self.b * other.b)

    def scale(self, k):
        return _Pair(self.a * k, self.b * k)

    def size(self):
        return abs(self.a) + abs(self.b)


def arithmetic_burst() -> float:
    """Run the arithmetic calibration once; returns its wall time in
    seconds."""
    t0 = time.perf_counter()
    acc = _Pair(1 + 0j, 1 + 0j)
    step = _Pair(0.3 + 0.4j, 0.3 - 0.4j)
    for n in range(1, 1000):
        term = _Pair(1 + 0j, 1 + 0j).add(step.scale(1.0 / (n * n)))
        acc = acc.mul(term)
        if acc.size() > 1e6:
            acc = acc.scale(1e-6)
    return time.perf_counter() - t0


def cli_burst() -> float:
    """Run the argument-parsing and JSON calibration once; returns its
    wall time in seconds."""
    import argparse
    import json

    t0 = time.perf_counter()
    for _ in range(3):
        parser = argparse.ArgumentParser(prog="calibrate")
        command = parser.add_subparsers(dest="command").add_parser("run")
        command.add_argument("--tol", type=float, default=1e-10)
        command.add_argument("--window", type=int, default=8)
        command.add_argument("--max-terms", type=int, default=1000)
        command.add_argument("--json", action="store_true")
        command.add_argument("expr")
        args = parser.parse_args(["run", "--tol", "1e-6", "--window", "4", "--json",
                                  "--", "1/n^2"])
        json.dumps({"args": vars(args), "values": [[1.5, -2.25], [0.1, 3e10]]}, indent=2)
    return time.perf_counter() - t0


class Sampler:
    """Calibration bursts over a stretch of time, and the conversion of
    intervals in that stretch to reference time."""

    def __init__(self, burst, ref_s: float):
        """``burst`` runs one calibration and returns its seconds, which
        are ``ref_s`` at the reference speed."""
        self._burst, self._ref_s = burst, ref_s
        # (start, end) perf_counter seconds of each burst, in order
        self.bursts: list[tuple[float, float]] = []
        self._last = -1e30
        self._saved = None

    def tick(self) -> None:
        t0 = time.perf_counter()
        dt = self._burst()
        self.bursts.append((t0, t0 + dt))
        self._last = t0 + dt

    def maybe_tick(self) -> None:
        if time.perf_counter() - self._last >= PERIOD_S:
            self.tick()

    def start(self) -> None:
        """Burst now and then on SIGALRM, 0.5 to 1.5 ``PERIOD_S`` apart at
        random, so that the bursts do not keep step with load on the
        machine that comes and goes with a fixed period."""
        import signal

        self.tick()
        self._saved = signal.signal(signal.SIGALRM, self._alarm)
        self._arm()

    def _arm(self) -> None:
        import signal

        jitter = time.perf_counter_ns() // 1000 % 1000 / 1000.0
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S * (0.5 + jitter))

    def _alarm(self, *_signal_args) -> None:
        self.tick()
        self._arm()

    def stop(self) -> None:
        import signal

        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        self.tick()

    def burst_s(self) -> float:
        return sum(end - start for start, end in self.bursts)

    def _gaps(self):
        """(start, end, burst time there) of each stretch between bursts."""
        durs = [end - start for start, end in self.bursts]
        smooth = []
        for k in range(len(durs)):
            near = sorted(durs[max(0, k - SMOOTH):k + SMOOTH + 1])
            smooth.append(near[len(near) // 2])
        return [(self.bursts[k][1], self.bursts[k + 1][0], 0.5 * (smooth[k] + smooth[k + 1]))
                for k in range(len(self.bursts) - 1)]

    def converter(self):
        """A function ``(t0, t1) -> (seconds measured, seconds at the
        reference speed)`` for intervals inside the sampled stretch,
        bursts left out of both."""
        import bisect

        gaps = self._gaps()
        ref_s = self._ref_s
        if not gaps:
            raise RuntimeError("need two bursts around the measured code")
        starts = [g[0] for g in gaps]

        def convert(t0: float, t1: float) -> tuple[float, float]:
            raw = ref = 0.0
            k = max(0, bisect.bisect_right(starts, t0) - 1)
            while k < len(gaps) and gaps[k][0] < t1:
                start, end, dur = gaps[k]
                part = min(end, t1) - max(start, t0)
                if part > 0:
                    raw += part
                    ref += part * ref_s / dur
                k += 1
            if raw <= 0:
                raise RuntimeError("interval lies outside the sampled stretch")
            return raw, ref

        return convert
