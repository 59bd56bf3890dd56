"""API hooking façade (the LD_PRELOAD stand-in, Section 4.3).

The runtime dispatches through ``gateway.call("opencv", "imread", ...)``;
this module provides the interposition layer that makes hooked code look
like the original program (Fig. 10-a): a :class:`FrameworkNamespace` is a
drop-in module object whose attribute accesses resolve to hooked API
stubs, so application code reads

::

    cv2 = hook(gateway, "opencv")
    frame = cv2.imread("/in/img.png")
    cv2.imshow("w", cv2.GaussianBlur(frame))

exactly like the unpartitioned source, while every call is transparently
redirected to the right agent process.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.core.gateway import ApiGateway
from repro.frameworks.registry import get_framework


class HookedApi:
    """One hooked API stub: calling it issues the RPC."""

    __slots__ = ("_gateway", "_framework", "_name", "doc")

    def __init__(self, gateway: ApiGateway, framework: str, name: str) -> None:
        self._gateway = gateway
        self._framework = framework
        self._name = name
        #: The hooked API's documentation, from its spec.
        self.doc = get_framework(framework).get(name).spec.doc

    @property
    def qualname(self) -> str:
        return get_framework(self._framework).get(self._name).spec.qualname

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        return self._gateway.call(self._framework, self._name, *args, **kwargs)

    def __repr__(self) -> str:
        return f"<hooked {self.qualname}>"


class FrameworkNamespace:
    """A module-like object exposing a framework's hooked APIs."""

    def __init__(self, gateway: ApiGateway, framework: str) -> None:
        # Validate eagerly so typos fail at hook time, not call time.
        get_framework(framework)
        self._gateway = gateway
        self._framework = framework
        self._stubs: Dict[str, HookedApi] = {}

    def __getattr__(self, name: str) -> HookedApi:
        if name.startswith("_"):
            raise AttributeError(name)
        stub = self._stubs.get(name)
        if stub is None:
            framework = get_framework(self._framework)
            if name not in framework:
                raise AttributeError(
                    f"framework {self._framework!r} has no API named {name!r}"
                )
            stub = HookedApi(self._gateway, self._framework, name)
            self._stubs[name] = stub
        return stub

    def __dir__(self) -> List[str]:
        return sorted(get_framework(self._framework).api_names)

    def __repr__(self) -> str:
        return (
            f"<FrameworkNamespace {self._framework!r} via "
            f"{type(self._gateway).__name__}>"
        )


def hook(gateway: ApiGateway, framework: str) -> FrameworkNamespace:
    """Hook one framework's API surface through ``gateway``."""
    return FrameworkNamespace(gateway, framework)
