"""Every single-trajectory solver by its algorithm name, as a stepper of
:func:`neurocpd.driver.drive`."""

from .baselines import HALS, MUR
from .dtpnn import ARMIJO, EXPLICIT, SEMI_IMPLICIT
from .flow import BARRIER, FLOW
from .tensor_ops import KruskalModel

STEPPERS = {
    "flow": FLOW,
    "dtpnn-explicit": EXPLICIT,
    "dtpnn-armijo": ARMIJO,
    "dtpnn-semiimplicit": SEMI_IMPLICIT,
    "barrier-flow": BARRIER,
    "hals": HALS,
    "mur": MUR,
}


def _check_params(kind: str, params: dict) -> None:
    """Refuse a key that is not a setting of the solver ``kind``, or a value
    its state refuses. The problem's order is not known before its tensor is
    read, so the state is made at a one-entry model of as many factors as a
    per-factor setting lists (three without one)."""
    stepper = STEPPERS[kind]
    if unknown := set(params) - stepper.params:
        raise ValueError(f"unknown params for {kind}: {sorted(unknown)}")
    try:
        order = len(params.get("time_constants", params.get("lambdas", ()))) or 3
    except TypeError:  # not a list: the state refuses it
        order = 3
    stepper.make_state(KruskalModel([[[1.0]]] * order), dict(params), 0)
