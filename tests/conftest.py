from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

import qmonogamy.concurrence
from qmonogamy.concurrence import MarginalTable


@pytest.fixture
def table_work(monkeypatch):
    """Record the work of every ``MarginalTable``.

    ``fills`` holds each fill's stack size; ``marginals[k]`` counts the qubit
    subsets traced for fill k, and ``gathers[k]`` the ``np.take`` calls that
    gathered its amplitude blocks; ``spectra[k]`` holds the stacks of pair matrices
    that fill k passed to ``lambda_spectra``, and ``factors[k]`` the stacks of
    factors it passed to ``_factor_spectra``, directly or through ``lambda_spectra``.
    """
    work = SimpleNamespace(fills=[], marginals=[], gathers=[], spectra=[], factors=[])
    tables = []  # every table, kept alive so that no two share an id
    owner = {}  # id of a table, and of its amplitude stack -> its fill's index
    fill, marginals, take = MarginalTable.__init__, MarginalTable._marginals, np.take
    spectra, kernel = qmonogamy.concurrence.lambda_spectra, qmonogamy.concurrence._factor_spectra

    def counted_fill(self, amplitudes):
        owner[id(self)] = len(work.fills)
        work.fills.append(len(amplitudes))
        work.marginals.append(Counter())
        work.gathers.append(0)
        work.spectra.append([])
        work.factors.append([])
        fill(self, amplitudes)
        tables.append(self)
        owner[id(self.amplitudes)] = owner[id(self)]

    def counted_marginals(self, keeps, *args, **kwargs):
        work.marginals[owner[id(self)]].update(keeps)
        return marginals(self, keeps, *args, **kwargs)

    def counted_take(a, *args, **kwargs):
        if id(a) in owner:
            work.gathers[owner[id(a)]] += 1
        return take(a, *args, **kwargs)

    def counted_spectra(rho):
        work.spectra[-1].append(rho.copy())
        return spectra(rho)

    def counted_kernel(factor):
        work.factors[-1].append(factor.copy())
        return kernel(factor)

    monkeypatch.setattr(MarginalTable, "__init__", counted_fill)
    monkeypatch.setattr(MarginalTable, "_marginals", counted_marginals)
    monkeypatch.setattr(np, "take", counted_take)
    monkeypatch.setattr(qmonogamy.concurrence, "lambda_spectra", counted_spectra)
    monkeypatch.setattr(qmonogamy.concurrence, "_factor_spectra", counted_kernel)
    return work
