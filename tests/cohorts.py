"""The tests' one way to build a small cohort: rows of
``(id, covariates, arm, time, event)`` passed to ``Cohort.from_columns`` as
columns."""

from typing import NamedTuple

from cemlogrank import Cohort


class Row(NamedTuple):
    """One subject's fields, unchecked: ``Cohort.from_columns`` checks them."""

    id: int | str
    covariates: tuple[float, ...]
    arm: int
    observed_time: float
    event: bool


def cohort_of(rows, horizon: float) -> Cohort:
    """The cohort of ``rows``, each ``(id, covariates, arm, time, event)``,
    in their order."""
    return Cohort.from_columns(*zip(*rows), horizon)
