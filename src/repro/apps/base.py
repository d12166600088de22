"""Application registry used by the evaluation harness (Section 6.1)."""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Dict

from repro.core.constraints import AccessPattern
from repro.isa.program import ActiveProgram


@dataclasses.dataclass(frozen=True)
class AppSpec:
    """Descriptor of an exemplar application.

    Attributes:
        name: short identifier used in experiment output.
        elastic: whether the app's memory demand is elastic.
        program_factory: builds the compact active program.
        pattern_factory: builds the allocation-request pattern.
    """

    name: str
    elastic: bool
    program_factory: Callable[[], ActiveProgram]
    pattern_factory: Callable[[], AccessPattern]

    def program(self) -> ActiveProgram:
        return self._program

    def pattern(self) -> AccessPattern:
        return self._pattern

    # Both immutable, from constant listings: built on first use, then shared.
    @functools.cached_property
    def _program(self) -> ActiveProgram:
        return self.program_factory()

    @functools.cached_property
    def _pattern(self) -> AccessPattern:
        return self.pattern_factory()


def _registry() -> Dict[str, AppSpec]:
    from repro.apps.cache import cache_pattern, cache_query_program
    from repro.apps.cheetah_lb import lb_pattern, lb_selection_program
    from repro.apps.heavy_hitter import heavy_hitter_pattern, heavy_hitter_program

    specs = (
        AppSpec(
            name="cache",
            elastic=True,
            program_factory=cache_query_program,
            pattern_factory=cache_pattern,
        ),
        AppSpec(
            name="heavy-hitter",
            elastic=False,
            program_factory=heavy_hitter_program,
            pattern_factory=heavy_hitter_pattern,
        ),
        AppSpec(
            name="load-balancer",
            elastic=False,
            program_factory=lb_selection_program,
            pattern_factory=lb_pattern,
        ),
    )
    return {spec.name: spec for spec in specs}


#: The three applications of the paper's evaluation, by name.
EXEMPLAR_APPS: Dict[str, AppSpec] = _registry()


def app_by_name(name: str) -> AppSpec:
    try:
        return EXEMPLAR_APPS[name]
    except KeyError:
        raise KeyError(
            f"unknown app {name!r}; choose from {sorted(EXEMPLAR_APPS)}"
        ) from None
