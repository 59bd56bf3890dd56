"""The 23 evaluation applications (Table 6).

Each row of Table 6 is transcribed into an :class:`AppSpec`; the schedule
builder (``repro.apps.catalog``) assembles a call-site schedule matching
the row's unique/total counts per API type, with the sample's
CVE-carrying APIs (Table 5) always included.  OMRChecker (sample 8) has a
hand-written application in ``repro.apps.omrchecker`` with the motivating
example's critical data; :func:`make_app` routes to it.

Two cells of the published table are ambiguous in the text (rows 10 and
11 print six numbers for eight columns); we place the trailing pair under
*storing*, which matches Caffe's lack of visualizing APIs.
"""

from __future__ import annotations

from typing import Dict, List

from repro.apps.base import Application, AppSpec, PipelineApp, TypeCounts
from repro.apps.catalog import build_schedule

_K = 1024
_M = 1024 * 1024


def _spec(
    sample_id: int,
    name: str,
    main: str,
    lang: str,
    sloc: int,
    size: int,
    loading: tuple,
    processing: tuple,
    visualizing: tuple,
    storing: tuple,
    description: str,
    secondary: tuple = (),
) -> AppSpec:
    return AppSpec(
        sample_id=sample_id,
        name=name,
        main_framework=main,
        language=lang,
        sloc=sloc,
        size_bytes=size,
        description=description,
        loading=TypeCounts(*loading),
        processing=TypeCounts(*processing),
        visualizing=TypeCounts(*visualizing),
        storing=TypeCounts(*storing),
        secondary_frameworks=secondary,
    )


APP_SPECS: Dict[int, AppSpec] = {
    spec.sample_id: spec
    for spec in (
        _spec(1, "Face_classification", "opencv", "Python", 7_082, 280 * _K,
              (4, 4), (5, 10), (4, 4), (1, 1),
              "Face, emotion, gender detection",
              secondary=("tensorflow",)),
        _spec(2, "FaceTracker", "opencv", "C/C++", 3_012, 588 * _K,
              (2, 5), (19, 99), (3, 3), (3, 6),
              "Real-time deformable face tracking"),
        _spec(3, "Face_Recognition", "opencv", "Python", 3_205, int(14.8 * _M),
              (1, 8), (5, 26), (3, 15), (2, 3),
              "Face recognition application"),
        _spec(4, "lbpcascade_anime", "opencv", "Python", 6_671, 224 * _K,
              (1, 1), (4, 4), (3, 3), (1, 1),
              "Image classification/object detection"),
        _spec(5, "EyeLike", "opencv", "C/C++", 742, 44 * _K,
              (5, 5), (21, 100), (4, 18), (1, 2),
              "Webcam based pupil tracking"),
        _spec(6, "Video-to-ascii", "opencv", "Python", 483, 48 * _K,
              (4, 7), (2, 2), (1, 1), (0, 0),
              "Plays videos in terminal"),
        _spec(7, "Libfacedetection", "opencv", "C/C++", 14_016, int(8.8 * _M),
              (4, 6), (14, 62), (4, 4), (1, 1),
              "Library for face detection"),
        _spec(8, "OMRChecker", "opencv", "Python", 1_797, int(6.2 * _M),
              (2, 4), (42, 88), (4, 5), (1, 1),
              "Grading application",
              secondary=("pandas", "json", "matplotlib")),
        _spec(9, "EmoRecon", "caffe", "Python", 1_773, 53 * _K,
              (6, 10), (11, 32), (5, 6), (1, 1),
              "Real-time emotion recognition",
              secondary=("opencv",)),
        _spec(10, "Openpose", "caffe", "C/C++", 459_373, int(6.8 * _M),
              (10, 12), (44, 171), (0, 0), (2, 2),
              "Real-time person keypoint detection",
              secondary=("opencv",)),
        _spec(11, "MTCNN", "caffe", "Python", 425, 129 * _K,
              (1, 1), (11, 18), (0, 0), (2, 2),
              "MTCNN face detector",
              secondary=("opencv",)),
        _spec(12, "SiamMask", "pytorch", "Python", 39_999, int(1.4 * _M),
              (2, 9), (19, 103), (4, 10), (2, 11),
              "Object tracking and segmentation",
              secondary=("opencv",)),
        _spec(13, "CycleGAN-pix2pix", "pytorch", "Python", 1_963, int(7.64 * _M),
              (5, 7), (50, 103), (0, 0), (1, 2),
              "Image-to-image translation",
              secondary=("opencv",)),
        _spec(14, "FAIRSEQ", "pytorch", "Python", 39_800, int(5.9 * _M),
              (8, 19), (20, 65), (0, 0), (4, 4),
              "Sequence modeling toolkit",
              secondary=("opencv",)),
        _spec(15, "PyTorch-GAN", "pytorch", "Python", 6_199, int(31.1 * _M),
              (3, 105), (41, 1_747), (0, 0), (1, 37),
              "PyTorch implementation of GANs",
              secondary=("opencv",)),
        _spec(16, "YOLO-V3", "pytorch", "Python", 2_759, int(1.98 * _M),
              (3, 9), (68, 254), (3, 3), (2, 6),
              "PyTorch implementation of YOLOv3",
              secondary=("opencv",)),
        _spec(17, "StarGAN", "pytorch", "Python", 740, int(2.07 * _M),
              (1, 2), (32, 105), (0, 0), (1, 4),
              "PyTorch implementation of StarGAN",
              secondary=("opencv",)),
        _spec(18, "EfficientNet", "pytorch", "Python", 2_554, int(2.48 * _M),
              (4, 8), (37, 86), (0, 0), (2, 2),
              "PyTorch implementation of EfficientNet",
              secondary=("opencv",)),
        _spec(19, "Semantic-Seg", "pytorch", "Python", 3_699, int(5.53 * _M),
              (2, 2), (136, 304), (0, 0), (1, 3),
              "Semantic segmentation/scene parsing",
              secondary=("opencv",)),
        _spec(20, "DCGAN-TensorFlow", "tensorflow", "Python", 3_142, int(67.4 * _M),
              (3, 6), (54, 137), (0, 0), (1, 1),
              "TensorFlow implementation of DCGAN"),
        _spec(21, "See-in-the-Dark", "tensorflow", "Python", 610, 836 * _K,
              (1, 8), (31, 244), (0, 0), (2, 10),
              "Learning-to-See-in-the-Dark (CVPR'18)"),
        _spec(22, "CapsNet", "tensorflow", "Python", 679, 486 * _K,
              (1, 8), (43, 108), (0, 0), (4, 6),
              "TensorFlow implementation of CapsNet"),
        _spec(23, "Style-Transfer", "tensorflow", "Python", 731, 1 * _M,
              (3, 4), (37, 61), (0, 0), (3, 5),
              "Add styles from images to any photo",
              secondary=("opencv",)),
    )
}

SAMPLE_IDS = tuple(sorted(APP_SPECS))


def get_spec(sample_id: int) -> AppSpec:
    """The Table 6 row for one evaluation sample id."""
    try:
        return APP_SPECS[sample_id]
    except KeyError:
        raise KeyError(f"no evaluation sample {sample_id}") from None


def make_app(sample_id: int) -> Application:
    """Instantiate one evaluation application."""
    spec = get_spec(sample_id)
    if sample_id == 8:
        from repro.apps.omrchecker import OMRCheckerApp

        return OMRCheckerApp()
    return PipelineApp(spec, build_schedule(spec))


def all_apps() -> List[Application]:
    """Instantiate all 23 evaluation applications."""
    return [make_app(sample_id) for sample_id in SAMPLE_IDS]


def used_api_objects(app: Application):
    """The FrameworkAPI objects an app's schedule references."""
    from repro.frameworks.registry import get_api

    seen = set()
    apis = []
    for site in app.schedule:
        key = (site.framework, site.api)
        if key not in seen:
            seen.add(key)
            apis.append(get_api(site.framework, site.api))
    # The engine can introduce helper calls (capture/classifier ctors).
    for framework, name in (
        ("opencv", "VideoCapture"),
        ("opencv", "CascadeClassifier"),
    ):
        key = (framework, name)
        if key not in seen:
            seen.add(key)
            apis.append(get_api(framework, name))
    return apis
