"""Every single-trajectory solver by its algorithm name, as a stepper of
:func:`neurocpd.driver.drive`."""

from .baselines import HALS, MUR
from .dtpnn import STEPPERS as DTPNN_STEPPERS
from .flow import BARRIER, FLOW

STEPPERS = {
    "flow": FLOW,
    "dtpnn-explicit": DTPNN_STEPPERS["explicit"],
    "dtpnn-armijo": DTPNN_STEPPERS["armijo"],
    "dtpnn-semiimplicit": DTPNN_STEPPERS["semi_implicit"],
    "barrier-flow": BARRIER,
    "hals": HALS,
    "mur": MUR,
}
