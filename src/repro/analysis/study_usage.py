"""Study 1: framework-API usage across 56 popular applications
(Section 4.1, Fig. 6, Table 3).

The paper manually analyzes 56 GitHub-popular data-processing programs
and finds that (a) all of them follow the loading → processing →
visualizing/storing pipeline (some looping back to loading), and (b)
each application uses only a handful of *vulnerable* APIs per type
(Table 3).  The application list is not published, so this module
synthesizes a 56-program corpus whose aggregate statistics match every
number in Table 3 and whose stage sequences exhibit the Fig. 6 patterns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from repro.analysis.study_cves import VULNERABLE_API_POOLS
from repro.core.apitypes import APIType

CORPUS_SIZE = 56

#: Stage sequences observed in the study (Fig. 6): a linear pipeline, a
#: looping variant (video apps repeat loading+processing), and a
#: no-GUI variant that stores instead of visualizing.
PIPELINE_SHAPES = (
    ("loading", "processing", "visualizing"),
    ("loading", "processing", "storing"),
    ("loading", "processing", "visualizing", "storing"),
    ("loading", "processing", "loading", "processing", "storing"),
    ("loading", "processing", "loading", "processing", "visualizing"),
)

_STAGE_RANK = {"loading": 0, "processing": 1, "visualizing": 2, "storing": 2}


@dataclass(frozen=True)
class StudyApp:
    """One program of the usage study."""

    app_id: int
    name: str
    stages: Tuple[str, ...]
    #: vulnerable APIs used, keyed by (framework, api_type).
    vulnerable_used: Tuple[Tuple[str, APIType, str], ...] = ()

    def vulnerable_count(self, framework: str, api_type: APIType) -> int:
        return sum(
            1 for fw, t, _ in self.vulnerable_used
            if fw == framework and t is api_type
        )

    def vulnerable_count_type(self, api_type: APIType) -> int:
        return sum(1 for _, t, _ in self.vulnerable_used if t is api_type)


def follows_pipeline(stages: Sequence[str]) -> bool:
    """Fig. 6 check: stages only move forward, except loops back to
    loading (video apps repeat load+process)."""
    previous = -1
    for stage in stages:
        rank = _STAGE_RANK.get(stage)
        if rank is None:
            return False
        if rank < previous and rank != 0:
            return False
        previous = rank
    return True


def _usage_plan() -> Dict[Tuple[str, APIType], List[Tuple[int, int]]]:
    """(framework, type) → [(app_id, how many vulnerable APIs)] chosen so
    the Table 3 aggregates come out exactly:

    * OpenCV  loading avg .6/max 1/1 distinct; processing .2/1/1
    * TF      loading .3/2/2; processing 2.3/12/24
    * Pillow  loading .4/2/2; visualizing .5/1/1
    * NumPy   loading .1/1/1; processing .4/1/1
    * Totals  loading 1.4/5/6; processing 2.9/14/26
    """
    plan: Dict[Tuple[str, APIType], List[Tuple[int, int]]] = {}
    # App 0 is the maximal app: 5 vulnerable loading APIs (1 OpenCV +
    # 2 TF + 2 Pillow) and 14 vulnerable processing APIs (1 OpenCV +
    # 12 TF + 1 NumPy) — the Table 3 "Max" row witnesses.
    plan[("opencv", APIType.LOADING)] = [(0, 1)] + [(i, 1) for i in range(2, 35)]
    plan[("opencv", APIType.PROCESSING)] = [(0, 1)] + [(i, 1) for i in range(2, 12)]
    plan[("tensorflow", APIType.LOADING)] = (
        [(0, 2), (1, 2)] + [(i, 1) for i in range(2, 15)]
    )
    # TF processing: total usage 2.3 * 56 ≈ 129 = 12 + 21*5 + 12*1.
    plan[("tensorflow", APIType.PROCESSING)] = (
        [(0, 12)]
        + [(i, 5) for i in range(1, 22)]
        + [(i, 1) for i in range(22, 34)]
    )
    plan[("pillow", APIType.LOADING)] = (
        [(0, 2), (1, 2)] + [(i, 1) for i in range(15, 33)]
    )
    plan[("pillow", APIType.VISUALIZING)] = [(i, 1) for i in range(0, 28)]
    plan[("numpy", APIType.LOADING)] = [(1, 1)] + [(i, 1) for i in range(33, 38)]
    plan[("numpy", APIType.PROCESSING)] = [(0, 1)] + [(i, 1) for i in range(1, 22)]
    return plan


def build_corpus() -> List[StudyApp]:
    """The 56 synthesized study applications."""
    plan = _usage_plan()
    per_app: Dict[int, List[Tuple[str, APIType, str]]] = {
        app_id: [] for app_id in range(CORPUS_SIZE)
    }
    for (framework, api_type), assignments in plan.items():
        pool = VULNERABLE_API_POOLS.get((framework, api_type), ())
        for app_id, count in assignments:
            for index in range(count):
                # Offset by app id so the corpus collectively covers the
                # whole vulnerable-API pool (Table 3's Total column).
                if pool:
                    api = pool[(app_id + index) % len(pool)]
                else:
                    api = f"{framework}.api{index}"
                per_app[app_id].append((framework, api_type, api))
    apps: List[StudyApp] = []
    for app_id in range(CORPUS_SIZE):
        shape = PIPELINE_SHAPES[app_id % len(PIPELINE_SHAPES)]
        apps.append(StudyApp(
            app_id=app_id,
            name=f"study-app-{app_id:02d}",
            stages=shape,
            vulnerable_used=tuple(per_app[app_id]),
        ))
    return apps


@dataclass(frozen=True)
class Table3Cell:
    """Avg / Max / Total for one (framework, api_type)."""

    average: float
    maximum: int
    total_distinct: int


def table3(corpus: List[StudyApp]) -> Dict[Tuple[str, APIType], Table3Cell]:
    """Compute Table 3 from the corpus."""
    frameworks = ("opencv", "tensorflow", "pillow", "numpy")
    types = (APIType.LOADING, APIType.PROCESSING,
             APIType.VISUALIZING, APIType.STORING)
    cells: Dict[Tuple[str, APIType], Table3Cell] = {}
    for framework in frameworks:
        for api_type in types:
            counts = [app.vulnerable_count(framework, api_type) for app in corpus]
            distinct: Set[str] = set()
            for app in corpus:
                distinct.update(
                    api for fw, t, api in app.vulnerable_used
                    if fw == framework and t is api_type
                )
            cells[(framework, api_type)] = Table3Cell(
                average=sum(counts) / len(corpus),
                maximum=max(counts),
                total_distinct=len(distinct),
            )
    return cells


def table3_totals(corpus: List[StudyApp]) -> Dict[APIType, Table3Cell]:
    """The Table 3 "Total" row (summed across frameworks)."""
    types = (APIType.LOADING, APIType.PROCESSING,
             APIType.VISUALIZING, APIType.STORING)
    totals: Dict[APIType, Table3Cell] = {}
    for api_type in types:
        counts = [app.vulnerable_count_type(api_type) for app in corpus]
        distinct: Set[str] = set()
        for app in corpus:
            distinct.update(
                (fw, api) for fw, t, api in app.vulnerable_used if t is api_type
            )
        totals[api_type] = Table3Cell(
            average=sum(counts) / len(corpus),
            maximum=max(counts),
            total_distinct=len(distinct),
        )
    return totals


def all_follow_pipeline(corpus: List[StudyApp]) -> bool:
    """The Study 1 headline: every analyzed program is pipeline-shaped."""
    return all(follows_pipeline(app.stages) for app in corpus)
