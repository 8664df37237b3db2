from collections import Counter
from types import SimpleNamespace

import pytest

import qmonogamy.concurrence
from qmonogamy.concurrence import MarginalTable


@pytest.fixture
def table_work(monkeypatch):
    """Record the work of every ``MarginalTable``.

    ``fills`` holds each fill's stack size; ``marginals[k]`` counts the qubit
    subsets traced for fill k; ``spectra[k]`` holds the stacks of pair matrices
    that fill k passed to ``lambda_spectra``, and ``factors[k]`` the stacks of
    factors it passed to ``_factor_spectra``, directly or through ``lambda_spectra``.
    """
    work = SimpleNamespace(fills=[], marginals=[], spectra=[], factors=[])
    owner = {}  # id of a table -> its fill's index
    fill, marginal = MarginalTable.__init__, MarginalTable._marginal
    spectra, kernel = qmonogamy.concurrence.lambda_spectra, qmonogamy.concurrence._factor_spectra

    def counted_fill(self, states):
        states = list(states)
        owner[id(self)] = len(work.fills)
        work.fills.append(len(states))
        work.marginals.append(Counter())
        work.spectra.append([])
        work.factors.append([])
        fill(self, states)

    def counted_marginal(self, keep, *args):
        work.marginals[owner[id(self)]][keep] += 1
        return marginal(self, keep, *args)

    def counted_spectra(rho):
        work.spectra[-1].append(rho.copy())
        return spectra(rho)

    def counted_kernel(factor):
        work.factors[-1].append(factor.copy())
        return kernel(factor)

    monkeypatch.setattr(MarginalTable, "__init__", counted_fill)
    monkeypatch.setattr(MarginalTable, "_marginal", counted_marginal)
    monkeypatch.setattr(qmonogamy.concurrence, "lambda_spectra", counted_spectra)
    monkeypatch.setattr(qmonogamy.concurrence, "_factor_spectra", counted_kernel)
    return work
