"""Profiles that count how often a computation evaluates them on radius arrays."""

import numpy as np

from electrovac import RadialProfile

PROFILES = ("A", "V", "Emag", "Psi")


class CountingProfile(RadialProfile):
    """Delegates every evaluation to base and counts, per entry point
    (value, d1, d2, jet), the calls made on radius arrays; scalar calls are
    not counted. ``calls`` keeps (entry point, radius array) of each counted
    call in order, ``jet_radii`` the radius array of each counted jet call,
    and ``scalar_calls`` (entry point, radius) of each scalar call in order."""

    def __init__(self, base: RadialProfile, counts: dict):
        super().__init__(base.jet, domain=base.domain, mode=base.mode)
        self.base, self.counts = base, counts
        self.calls, self.scalar_calls = [], []

    @property
    def jet_radii(self):
        return [r for name, r in self.calls if name == "jet"]

    def _count(self, name, r):
        if np.ndim(r) > 0:
            self.counts[name] = self.counts.get(name, 0) + 1
            self.calls.append((name, np.array(r, dtype=float)))
        else:
            self.scalar_calls.append((name, r))

    def value(self, r):
        self._count("value", r)
        return self.base.value(r)

    __call__ = value

    def d1(self, r):
        self._count("d1", r)
        return self.base.d1(r)

    def d2(self, r):
        self._count("d2", r)
        return self.base.d2(r)

    def jet(self, r):
        self._count("jet", r)
        return self.base.jet(r)


def counting_data(data):
    """Copy of data whose profiles count their array evaluations; returns
    (copy, counts) with counts[name][entry point] -> calls."""
    counts = {name: {} for name in PROFILES if getattr(data, name) is not None}
    copy = data.replace(**{
        name: CountingProfile(getattr(data, name), counts[name]) for name in counts})
    return copy, counts


def counting_joint_data(data):
    """Copy of data as counting_data's, with data's joint jet kept and the
    radius array of each joint call recorded; returns (copy, counts, radii)."""
    radii = []

    def joint(r, inner=data.joint_jet):
        radii.append(np.array(r, dtype=float))
        return inner(r)

    copy, counts = counting_data(data)
    return copy.replace(joint=joint), counts, radii
