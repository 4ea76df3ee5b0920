"""SSD-specific operators: multibox priors, box decoding and NMS.

The object-detection model in the evaluation (SSD with a ResNet-50 base,
512x512 input) appends a detection head to the convolutional trunk:
anchor (prior) generation, class-score/box-regression reshaping, box decoding
against the anchors, and non-maximum suppression.  The paper points out that
OpenVINO excludes this "multibox detection" stage from its timing (Table 2
footnote); our baseline model of OpenVINO reproduces that by skipping the
cost of these operators.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "multibox_prior",
    "decode_boxes",
    "non_max_suppression",
    "multibox_detection",
]


def multibox_prior(
    feature_shape: Tuple[int, int],
    image_size: int,
    sizes: Sequence[float],
    ratios: Sequence[float],
) -> np.ndarray:
    """Generate anchor boxes for one feature map.

    Args:
        feature_shape: (height, width) of the feature map.
        image_size: input image size in pixels (boxes are normalized to [0,1]).
        sizes: anchor scales as a fraction of the image size.
        ratios: anchor aspect ratios.

    Returns:
        Array of shape (H*W*num_anchors, 4) with boxes as
        (cx, cy, w, h), normalized.
    """
    del image_size  # boxes are normalized; image size kept for API parity
    height, width = feature_shape
    num_anchors = len(sizes) + len(ratios) - 1
    boxes = np.zeros((height, width, num_anchors, 4), dtype=np.float32)
    for i in range(height):
        cy = (i + 0.5) / height
        for j in range(width):
            cx = (j + 0.5) / width
            anchor = 0
            for k, size in enumerate(sizes):
                ratio = ratios[0] if ratios else 1.0
                if k > 0:
                    ratio = ratios[0]
                w = size * np.sqrt(ratio)
                h = size / np.sqrt(ratio)
                boxes[i, j, anchor] = (cx, cy, w, h)
                anchor += 1
            for ratio in ratios[1:]:
                size = sizes[0]
                w = size * np.sqrt(ratio)
                h = size / np.sqrt(ratio)
                boxes[i, j, anchor] = (cx, cy, w, h)
                anchor += 1
    return boxes.reshape(-1, 4)


def decode_boxes(
    anchors: np.ndarray,
    loc_preds: np.ndarray,
    variances: Tuple[float, float, float, float] = (0.1, 0.1, 0.2, 0.2),
) -> np.ndarray:
    """Decode box regressions against anchors (SSD parameterization).

    Args:
        anchors: (A, 4) anchors as (cx, cy, w, h).
        loc_preds: (N, A, 4) predicted offsets (dx, dy, dw, dh).

    Returns:
        (N, A, 4) decoded boxes as corner coordinates (x1, y1, x2, y2),
        clipped to [0, 1].
    """
    acx, acy, aw, ah = anchors[:, 0], anchors[:, 1], anchors[:, 2], anchors[:, 3]
    dx, dy, dw, dh = (
        loc_preds[..., 0],
        loc_preds[..., 1],
        loc_preds[..., 2],
        loc_preds[..., 3],
    )
    cx = dx * variances[0] * aw + acx
    cy = dy * variances[1] * ah + acy
    w = np.exp(np.clip(dw * variances[2], -10, 10)) * aw
    h = np.exp(np.clip(dh * variances[3], -10, 10)) * ah
    boxes = np.stack(
        [cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0], axis=-1
    )
    return np.clip(boxes, 0.0, 1.0)


def _iou(box: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """Intersection-over-union of one box against many (corner format)."""
    x1 = np.maximum(box[0], boxes[:, 0])
    y1 = np.maximum(box[1], boxes[:, 1])
    x2 = np.minimum(box[2], boxes[:, 2])
    y2 = np.minimum(box[3], boxes[:, 3])
    inter = np.clip(x2 - x1, 0, None) * np.clip(y2 - y1, 0, None)
    area_a = (box[2] - box[0]) * (box[3] - box[1])
    area_b = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
    union = area_a + area_b - inter
    return np.divide(inter, union, out=np.zeros_like(union), where=union > 0)


def non_max_suppression(
    boxes: np.ndarray,
    scores: np.ndarray,
    iou_threshold: float = 0.45,
    max_detections: int = 100,
) -> List[int]:
    """Greedy NMS returning the indices of kept boxes, best score first."""
    order = np.argsort(-scores)
    keep: List[int] = []
    suppressed = np.zeros(len(boxes), dtype=bool)
    for idx in order:
        if suppressed[idx]:
            continue
        keep.append(int(idx))
        if len(keep) >= max_detections:
            break
        ious = _iou(boxes[idx], boxes)
        suppressed |= ious > iou_threshold
        suppressed[idx] = True
    return keep


def multibox_detection(
    class_probs: np.ndarray,
    loc_preds: np.ndarray,
    anchors: np.ndarray,
    score_threshold: float = 0.01,
    iou_threshold: float = 0.45,
    max_detections: int = 100,
) -> np.ndarray:
    """Full SSD detection output: decode, threshold and NMS per class.

    Args:
        class_probs: (N, num_classes + 1, A) softmax scores; class 0 is
            background.
        loc_preds: (N, A, 4) box regressions.
        anchors: (A, 4) anchors in center format.

    Returns:
        (N, max_detections, 6) detections as
        (class_id, score, x1, y1, x2, y2); unused slots are filled with -1.
    """
    batch = class_probs.shape[0]
    num_classes = class_probs.shape[1] - 1
    decoded = decode_boxes(anchors, loc_preds)
    output = np.full((batch, max_detections, 6), -1.0, dtype=np.float32)
    for n in range(batch):
        detections: List[Tuple[float, int, np.ndarray]] = []
        for cls in range(1, num_classes + 1):
            scores = class_probs[n, cls]
            mask = scores > score_threshold
            if not np.any(mask):
                continue
            cls_boxes = decoded[n][mask]
            cls_scores = scores[mask]
            keep = non_max_suppression(cls_boxes, cls_scores, iou_threshold, max_detections)
            for idx in keep:
                detections.append((float(cls_scores[idx]), cls - 1, cls_boxes[idx]))
        detections.sort(key=lambda item: -item[0])
        for slot, (score, cls_id, box) in enumerate(detections[:max_detections]):
            output[n, slot, 0] = cls_id
            output[n, slot, 1] = score
            output[n, slot, 2:6] = box
    return output
