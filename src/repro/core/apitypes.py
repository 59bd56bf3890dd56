"""API types and framework states (Sections 3.2 and 4.4.3).

FreePart categorizes framework APIs into four types following the typical
workflow of a data-processing application, plus a *type-neutral* category
for memory-to-memory utility APIs whose effective type depends on the
calling context (Section 4.2, "Type-neutral Framework APIs").

At runtime the framework is always in one of five states; the state is
simply the type of the last framework API invoked (Initialization before
any call).  State transitions drive the temporal memory-permission
enforcement of Fig. 3.
"""

from __future__ import annotations

import enum
from typing import Optional


class APIType(enum.Enum):
    """The four framework API categories (+ neutral)."""

    LOADING = "data_loading"
    PROCESSING = "data_processing"
    VISUALIZING = "visualizing"
    STORING = "storing"
    NEUTRAL = "neutral"

    @property
    def is_concrete(self) -> bool:
        """True for the four real types; False for NEUTRAL."""
        return self is not APIType.NEUTRAL


#: The four concrete types in pipeline order.
CONCRETE_TYPES = (
    APIType.LOADING,
    APIType.PROCESSING,
    APIType.VISUALIZING,
    APIType.STORING,
)


class FrameworkState(enum.Enum):
    """The five framework states of Section 4.4.3."""

    INITIALIZATION = "initialization"
    LOADING = "data_loading"
    PROCESSING = "data_processing"
    VISUALIZING = "visualizing"
    STORING = "storing"

    @classmethod
    def for_api_type(cls, api_type: APIType) -> "FrameworkState":
        """The state entered when an API of ``api_type`` is invoked."""
        try:
            return STATE_OF_TYPE[api_type]
        except KeyError:
            raise ValueError(
                f"{api_type} does not map to a framework state; neutral APIs "
                "run in the current state"
            ) from None


#: The state each concrete API type moves the framework into.
STATE_OF_TYPE = {
    APIType.LOADING: FrameworkState.LOADING,
    APIType.PROCESSING: FrameworkState.PROCESSING,
    APIType.VISUALIZING: FrameworkState.VISUALIZING,
    APIType.STORING: FrameworkState.STORING,
}

#: The inverse: the API type whose calls a state stands for.
_TYPE_OF_STATE = {state: kind for kind, state in STATE_OF_TYPE.items()}


def state_label(state: FrameworkState) -> str:
    """The origin-state label recorded on buffers created in ``state``."""
    return state.value


def api_type_of_state(state: FrameworkState) -> Optional[APIType]:
    """Inverse of :meth:`FrameworkState.for_api_type` (None for init)."""
    return _TYPE_OF_STATE.get(state)
