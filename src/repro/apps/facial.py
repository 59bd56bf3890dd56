"""The facial-recognition program of Fig. 10 (the design walkthrough).

A faithful transcription of the paper's example host program: open the
camera, construct a classifier, load user profiles (host code, critical
data), then loop — fetch frame, grayscale, resize, equalize, detect,
notify a server about detections, show the frame, save it on 's', quit
on 'q'.
"""

from __future__ import annotations

from repro.apps.base import Application, AppResult, AppSpec, ArgSpec, CallSite, TypeCounts, Workload
from repro.core.apitypes import APIType
from repro.core.gateway import ApiGateway
from repro.errors import FrameworkCrash
from repro.sim.kernel import SimKernel

USERPROFILE_TAG = "userprofile"
USERPROFILE_PATH = "/config/userprofile.xml"
CLASSIFIER_PATH = "/config/classifier.xml"

FACIAL_SPEC = AppSpec(
    sample_id=100,
    name="facial-recognition",
    main_framework="opencv",
    language="C/C++",
    sloc=21,
    size_bytes=44 * 1024,
    description="Fig. 10 facial recognition walkthrough program",
    loading=TypeCounts(2, 2),
    processing=TypeCounts(5, 5),
    visualizing=TypeCounts(3, 3),
    storing=TypeCounts(1, 1),
)

_SCHEDULE = (
    CallSite("opencv", "VideoCapture", ArgSpec.SOURCE_NONE, APIType.LOADING, loop=False),
    CallSite("opencv", "CascadeClassifier", ArgSpec.NONE, APIType.PROCESSING, loop=False),
    CallSite("opencv", "CascadeClassifier_load", ArgSpec.SOURCE_PATH, APIType.LOADING, loop=False),
    CallSite("opencv", "VideoCapture_read", ArgSpec.SOURCE_CAMERA, APIType.LOADING),
    CallSite("opencv", "cvtColor", ArgSpec.UNARY, APIType.PROCESSING),
    CallSite("opencv", "resize", ArgSpec.UNARY, APIType.PROCESSING),
    CallSite("opencv", "equalizeHist", ArgSpec.UNARY, APIType.PROCESSING),
    CallSite("opencv", "CascadeClassifier_detectMultiScale", ArgSpec.DETECT, APIType.PROCESSING),
    CallSite("opencv", "imshow", ArgSpec.SHOW, APIType.VISUALIZING),
    CallSite("opencv", "pollKey", ArgSpec.GUI_ONLY, APIType.VISUALIZING),
    CallSite("opencv", "imwrite", ArgSpec.SINK, APIType.STORING),
    CallSite("opencv", "destroyAllWindows", ArgSpec.GUI_ONLY, APIType.VISUALIZING, loop=False),
)


class FacialRecognitionApp(Application):
    """The Fig. 10 program, written against the gateway interface."""

    def __init__(self) -> None:
        super().__init__(FACIAL_SPEC)

    @property
    def schedule(self):
        return _SCHEDULE

    def setup(self, kernel: SimKernel, workload: Workload) -> None:
        kernel.fs.write_file(
            USERPROFILE_PATH,
            {"alice": {"age": 31, "phone": "555-0100"},
             "bob": {"age": 44, "phone": "555-0101"}},
        )
        kernel.fs.write_file(
            CLASSIFIER_PATH, {"threshold": 150.0, "min_area": 2}
        )
        kernel.devices.camera._frame_limit = workload.items
        kernel.devices.camera.rewind()
        if workload.keys:
            kernel.gui.queue_keys(workload.keys)

    def run(self, gateway: ApiGateway, workload: Workload) -> AppResult:
        result = AppResult()
        capture = gateway.call("opencv", "VideoCapture", 0)          # line 1
        cascade = gateway.call("opencv", "CascadeClassifier")        # line 3
        gateway.call("opencv", "CascadeClassifier_load", cascade, CLASSIFIER_PATH)
        profiles = gateway.host_read_file(USERPROFILE_PATH)          # line 4
        gateway.host_alloc(USERPROFILE_TAG, profiles)

        while True:                                                  # line 5
            try:
                frame = gateway.call("opencv", "VideoCapture_read", capture)
            except FrameworkCrash:
                result.crashes_survived += 1
                continue
            if frame is None:
                break
            gray = gateway.call("opencv", "cvtColor", frame)         # line 7
            small = gateway.call("opencv", "resize", gray)           # line 8
            equalized = gateway.call("opencv", "equalizeHist", small)
            faces = gateway.call(                                    # line 10
                "opencv", "CascadeClassifier_detectMultiScale",
                cascade, equalized,
            )
            for face in faces:                                       # lines 11-13
                gateway.send("server", {"notification": "face", "rect": face})
            try:
                gateway.call("opencv", "imshow", "camera", frame)    # line 14
            except FrameworkCrash:
                result.crashes_survived += 1
            key = gateway.call("opencv", "pollKey")                  # line 15
            if key == "s":
                gateway.call(
                    "opencv", "imwrite",
                    f"/out/facial/frame-{result.items_processed}.png", frame,
                )
            elif key == "q":                                         # line 17
                gateway.call("opencv", "destroyAllWindows")
                break
            result.items_processed += 1
        result.outputs["profiles"] = gateway.host_read(USERPROFILE_TAG)
        return result
