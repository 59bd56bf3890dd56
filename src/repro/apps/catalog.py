"""Call-site repertoires and the Table 6 schedule builder.

Each framework contributes a *pipeline-safe* repertoire per API type —
call sites the generic :class:`~repro.apps.base.PipelineApp` engine can
execute with its standard argument conventions.  The builder assembles a
deterministic schedule matching a Table 6 row's unique/total counts,
always placing the sample's CVE-carrying APIs first so every attack of
Table 5 has its delivery path.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.attacks.cves import cves_for_sample
from repro.core.apitypes import APIType
from repro.apps.base import AppSpec, ArgSpec, CallSite, TypeCounts

Entry = Tuple[str, str, ArgSpec]  # (framework, api, argspec)


def _unary(framework: str, names: Iterable[str]) -> List[Entry]:
    return [(framework, name, ArgSpec.UNARY) for name in names]


_OPENCV_UNARY = [
    # rectangle/putText lead the repertoire: they are the hot-loop
    # annotation APIs of the motivating example (Fig. 4) and must be in
    # every schedule that draws on OpenCV processing.
    "rectangle", "putText",
    "GaussianBlur", "blur", "medianBlur", "bilateralFilter", "boxFilter",
    "erode", "dilate", "morphologyEx", "threshold", "adaptiveThreshold",
    "inRange", "Canny", "Sobel", "Scharr", "Laplacian", "filter2D",
    "sepFilter2D", "pyrDown", "pyrUp", "resize", "warpAffine",
    "warpPerspective", "remap", "undistort", "flip", "rotate", "transpose",
    "normalize", "equalizeHist", "calcHist", "bitwise_not", "LUT",
    "drawContours", "moments", "HoughLines", "HoughCircles", "cornerHarris",
    "goodFeaturesToTrack", "distanceTransform", "floodFill", "integral",
    "dft", "idft", "line", "circle",
    "BackgroundSubtractorMOG2_apply", "connectedComponents", "PCACompute",
    "convertScaleAbs", "copyMakeBorder", "findContours", "kmeans",
    "minMaxLoc", "mean", "meanStdDev", "reduce", "split", "merge",
    "solve", "invert",
]

_OPENCV_BINARY = [
    "addWeighted", "add", "subtract", "multiply", "divide", "absdiff",
    "bitwise_and", "bitwise_or", "bitwise_xor", "compareHist",
    "matchTemplate", "calcOpticalFlowFarneback", "calcOpticalFlowPyrLK",
    "gemm", "getPerspectiveTransform",
]

_OPLIB_UNARY = [
    "abs", "exp", "log", "sqrt", "square", "negative", "sign", "floor",
    "ceil", "round", "sin", "cos", "tanh", "sigmoid", "relu", "softplus",
    "reciprocal", "clamp", "erf",
    "sum", "mean", "max", "min", "argmax", "argmin", "std", "var", "prod",
    "norm", "median", "cumsum", "count_nonzero",
    "reshape", "transpose", "flatten", "squeeze", "unsqueeze", "concat",
    "stack", "split", "pad", "tile", "flip", "roll", "sort", "unique",
    "broadcast",
    "conv2d", "conv3d", "avg_pool", "max_pool", "batch_norm", "layer_norm",
    "instance_norm", "dropout", "linear", "embedding", "softmax",
    "log_softmax", "cross_entropy", "mse_loss", "nll_loss", "leaky_relu",
    "elu", "gelu", "upsample", "pixel_shuffle", "grid_sample", "interpolate",
]

_OPLIB_BINARY = [
    "add", "sub", "mul", "div", "pow", "maximum", "minimum", "matmul",
    "dot", "where_gt",
]

_TORCH_EXTRA_UNARY = [
    "tensor", "from_numpy", "randn_like", "cat", "chunk", "topk", "argsort",
    "gather", "masked_fill", "bmm", "einsum", "detach", "item", "numel",
    "combinations", "Module_forward", "backward", "optimizer_step",
    "zero_grad", "clip_grad_norm",
]

_TF_EXTRA_UNARY = [
    "convert_to_tensor", "constant", "Variable", "one_hot", "cast",
    "expand_dims_batch", "reduce_all", "image_resize",
    "image_rgb_to_grayscale", "image_per_image_standardization",
    "keras_Model_fit", "keras_Model_predict", "estimator_DNNClassifier_train",
    "Session_run",
]

_CAFFE_EXTRA = [
    ("caffe", "Forward", ArgSpec.DETECT),
    ("caffe", "Backward", ArgSpec.DETECT),
    ("caffe", "Solver_step", ArgSpec.DETECT),
]

# Caffe only registers the UNARY_OPS + NN_OPS families.
_CAFFE_OPS = {
    "abs", "exp", "log", "sqrt", "square", "negative", "sign", "floor",
    "ceil", "round", "sin", "cos", "tanh", "sigmoid", "relu", "softplus",
    "reciprocal", "clamp",
    "conv2d", "conv3d", "avg_pool", "max_pool", "batch_norm", "layer_norm",
    "instance_norm", "dropout", "linear", "embedding", "softmax",
    "log_softmax", "cross_entropy", "mse_loss", "nll_loss", "leaky_relu",
    "elu", "gelu", "upsample", "interpolate",
}


REPERTOIRES: Dict[str, Dict[APIType, List[Entry]]] = {
    "opencv": {
        APIType.LOADING: [
            ("opencv", "imread", ArgSpec.SOURCE_PATH),
            ("opencv", "VideoCapture_read", ArgSpec.SOURCE_CAMERA),
            ("opencv", "cvLoad", ArgSpec.SOURCE_PATH),
            ("opencv", "imreadmulti", ArgSpec.SOURCE_PATH),
            ("opencv", "FileStorage_read", ArgSpec.SOURCE_PATH),
            ("opencv", "readOpticalFlow", ArgSpec.SOURCE_PATH),
            ("opencv", "VideoCapture_grab", ArgSpec.SOURCE_CAMERA),
        ],
        APIType.PROCESSING: (
            [("opencv", "CascadeClassifier_detectMultiScale", ArgSpec.DETECT)]
            + _unary("opencv", _OPENCV_UNARY)
            + [("opencv", name, ArgSpec.BINARY) for name in _OPENCV_BINARY]
            + [
                ("opencv", "cvtColor", ArgSpec.UNARY),
                ("opencv", "copyTo", ArgSpec.UNARY),
                ("opencv", "getStructuringElement", ArgSpec.NONE),
                ("opencv", "getRotationMatrix2D", ArgSpec.NONE),
                ("opencv", "CascadeClassifier", ArgSpec.NONE),
            ]
        ),
        APIType.VISUALIZING: [
            ("opencv", "imshow", ArgSpec.SHOW),
            ("opencv", "pollKey", ArgSpec.GUI_ONLY),
            ("opencv", "namedWindow", ArgSpec.WINDOW_NAME),
            ("opencv", "waitKey", ArgSpec.GUI_ONLY),
            ("opencv", "moveWindow", ArgSpec.WINDOW_NAME),
            ("opencv", "setWindowTitle", ArgSpec.WINDOW_NAME),
            ("opencv", "destroyAllWindows", ArgSpec.GUI_ONLY),
            ("opencv", "getMouseWheelDelta", ArgSpec.GUI_ONLY),
            ("opencv", "selectROI", ArgSpec.SHOW),
        ],
        APIType.STORING: [
            ("opencv", "imwrite", ArgSpec.SINK),
            ("opencv", "writeOpticalFlow", ArgSpec.SINK),
            ("opencv", "imwritemulti", ArgSpec.SINK_LIST),
        ],
    },
    "pytorch": {
        APIType.LOADING: [
            ("pytorch", "load", ArgSpec.SOURCE_PATH),
            ("pytorch", "datasets_MNIST", ArgSpec.SOURCE_DIR),
            ("pytorch", "DataLoader", ArgSpec.UNARY),
            ("pytorch", "datasets_ImageFolder", ArgSpec.SOURCE_DIR),
            ("pytorch", "hub_load", ArgSpec.SOURCE_NONE),
            ("pytorch", "model_zoo_load_url", ArgSpec.SOURCE_NONE),
            ("pytorch", "datasets_CIFAR10", ArgSpec.SOURCE_DIR),
        ],
        APIType.PROCESSING: (
            _unary("pytorch", _TORCH_EXTRA_UNARY)
            + _unary("pytorch", _OPLIB_UNARY)
            + [("pytorch", name, ArgSpec.BINARY) for name in _OPLIB_BINARY]
        ),
        APIType.VISUALIZING: [],
        APIType.STORING: [
            ("pytorch", "save", ArgSpec.SINK_OBJ),
            ("pytorch", "SummaryWriter", ArgSpec.NONE),
            ("pytorch", "onnx_export", ArgSpec.SINK_OBJ),
            ("numpy", "save", ArgSpec.SINK),
        ],
    },
    "tensorflow": {
        APIType.LOADING: [
            ("tensorflow", "keras_models_load_model", ArgSpec.SOURCE_PATH),
            ("tensorflow", "image_dataset_from_directory", ArgSpec.SOURCE_DIR),
            ("tensorflow", "data_TFRecordDataset", ArgSpec.SOURCE_PATH),
            ("tensorflow", "train_load_checkpoint", ArgSpec.SOURCE_PATH),
            ("tensorflow", "utils_get_file", ArgSpec.SOURCE_NONE),
        ],
        APIType.PROCESSING: (
            _unary("tensorflow", _TF_EXTRA_UNARY)
            + _unary("tensorflow", _OPLIB_UNARY)
            + [("tensorflow", name, ArgSpec.BINARY) for name in _OPLIB_BINARY]
        ),
        APIType.VISUALIZING: [],
        APIType.STORING: [
            ("tensorflow", "preprocessing_image_save_img", ArgSpec.SINK),
            ("tensorflow", "Model_save_weights", ArgSpec.SINK_OBJ),
            ("tensorflow", "train_Checkpoint_save", ArgSpec.SINK_OBJ),
            ("numpy", "save", ArgSpec.SINK),
        ],
    },
    "caffe": {
        APIType.LOADING: [
            ("caffe", "ReadProtoFromTextFile", ArgSpec.SOURCE_PATH),
            ("caffe", "ReadProtoFromBinaryFile", ArgSpec.SOURCE_PATH),
            ("caffe", "hdf5_load_nd_dataset", ArgSpec.SOURCE_PATH),
            ("caffe", "ReadImageToDatum", ArgSpec.SOURCE_PATH),
        ],
        APIType.PROCESSING: (
            list(_CAFFE_EXTRA)
            + [("caffe", "CopyTrainedLayersFrom", ArgSpec.BINARY)]
            + _unary("caffe", [n for n in _OPLIB_UNARY
                               if n not in ("erf", "grid_sample", "pixel_shuffle")
                               and n in _CAFFE_OPS])
        ),
        APIType.VISUALIZING: [],
        APIType.STORING: [
            ("caffe", "hdf5_save_string", ArgSpec.SINK),
            ("caffe", "WriteProtoToTextFile", ArgSpec.SINK_OBJ),
            ("caffe", "Snapshot", ArgSpec.SINK_OBJ),
        ],
    },
}

#: Argspec of known CVE-carrying APIs (for placement by the builder).
_ARGSPEC_OVERRIDES: Dict[Tuple[str, str], ArgSpec] = {
    ("opencv", "imread"): ArgSpec.SOURCE_PATH,
    ("opencv", "imshow"): ArgSpec.SHOW,
    ("opencv", "CascadeClassifier_detectMultiScale"): ArgSpec.DETECT,
    ("pillow", "Image_open"): ArgSpec.SOURCE_PATH,
}


def repertoire(
    frameworks: Sequence[str], api_type: APIType
) -> List[Entry]:
    """Merged pipeline-safe entries of the given frameworks for one type."""
    entries: List[Entry] = []
    seen = set()
    for name in frameworks:
        table = REPERTOIRES.get(name, {})
        for entry in table.get(api_type, []):
            key = (entry[0], entry[1])
            if key not in seen:
                seen.add(key)
                entries.append(entry)
    return entries


def _mandatory_entries(spec: AppSpec, api_type: APIType) -> List[Entry]:
    """CVE-carrying APIs this sample must call, in registry order."""
    entries: List[Entry] = []
    seen = set()
    for record in cves_for_sample(spec.sample_id):
        if record.api_type is not api_type:
            continue
        key = (record.framework, record.api_name)
        if key in seen:
            continue
        seen.add(key)
        argspec = _ARGSPEC_OVERRIDES.get(key)
        if argspec is None:
            argspec = (
                ArgSpec.SOURCE_PATH if api_type is APIType.LOADING
                else ArgSpec.UNARY
            )
        entries.append((record.framework, record.api_name, argspec))
    return entries


def build_schedule(spec: AppSpec) -> List[CallSite]:
    """Assemble a schedule matching the spec's Table 6 counts."""
    frameworks = (spec.main_framework,) + spec.secondary_frameworks
    schedule: List[CallSite] = []
    for api_type in (
        APIType.LOADING, APIType.PROCESSING,
        APIType.VISUALIZING, APIType.STORING,
    ):
        counts = spec.counts_for(api_type)
        if counts.unique == 0:
            continue
        candidates = _mandatory_entries(spec, api_type)
        seen = {(c[0], c[1]) for c in candidates}
        for entry in repertoire(frameworks, api_type):
            if (entry[0], entry[1]) not in seen:
                seen.add((entry[0], entry[1]))
                candidates.append(entry)
        if len(candidates) < counts.unique:
            raise ValueError(
                f"{spec.name}: need {counts.unique} unique "
                f"{api_type.value} APIs but only {len(candidates)} available"
            )
        chosen = candidates[: counts.unique]
        sites = _distribute(chosen, counts, api_type)
        schedule.extend(sites)
    return schedule


def _distribute(
    chosen: List[Entry], counts: TypeCounts, api_type: APIType
) -> List[CallSite]:
    """Turn unique entries + a total into concrete call sites."""
    totals = [1] * len(chosen)
    extra = counts.total - len(chosen)
    index = 0
    while extra > 0:
        totals[index % len(chosen)] += 1
        index += 1
        extra -= 1
    sites: List[CallSite] = []
    for position, ((framework, api, argspec), site_count) in enumerate(
        zip(chosen, totals)
    ):
        for copy in range(site_count):
            loop = True
            if api_type is APIType.LOADING:
                # Exactly one loading site feeds the main loop (the input
                # reader); the rest are initialization loads (models,
                # configs, datasets).
                loop = position == 0 and copy == 0
            sites.append(CallSite(
                framework=framework, api=api, argspec=argspec,
                api_type=api_type, loop=loop,
            ))
    return sites
