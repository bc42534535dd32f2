"""Step-by-step introspection of a caption pass.

A trace reads one teacher-forced pass (``CaptionModel.forced``) over a
caption without gradients and under zero selection noise: over a gold
caption, or over the model's own greedy caption.  It records, per step
and per decoder unit, the controller's module weights, the noise-free
soft weights, and every attention distribution over regions, and the
step's predicted token, the argmax of its word distribution.  The JSON
document follows docs/trace.schema.json; the SVG renderer draws the
module weights as a colored grid, one column per generated word.
"""

from __future__ import annotations

from xml.sax.saxutils import escape

import numpy as np

from .config import FULL_MODULES as MODULE_ORDER
from .decoder import BOS_ID, _check_distribution, greedy_decode, strip_sequence
from .tensor import no_grad

MODULE_COLORS = {
    "object": "#d62728",
    "attribute": "#1f77b4",
    "relation": "#9467bd",
    "function": "#222222",
}


def _unit_dict(tr, t):
    """Step t of a unit's trace over a one-caption pass."""
    def row(value):
        return None if value is None else [float(w) for w in value[t, 0]]

    return {"weights": row(tr.weights), "soft": row(None if tr.soft is None else tr.soft.data),
            "alphas": {name: row(alpha) for name, alpha in sorted(tr.alphas.items())}}


def _trace(model, vocab, scene, enc, inputs, targets=None, labels=None):
    """Run the input tokens of one caption through one teacher-forced pass,
    recording every step; the caller holds ``no_grad``.  Returns the trace
    document, which the caller completes with its kind, slot and words."""
    dist, traces = model.forced([inputs], enc) if inputs else (None, [])
    steps = []
    for t, tok in enumerate(inputs):
        p = dist.data[t]
        _check_distribution(p, t)
        steps.append({
            "t": t,
            "input_token": vocab.tokens[tok],
            "target_token": None if targets is None else vocab.tokens[targets[t]],
            "predicted_token": vocab.tokens[int(np.argmax(p))],
            "target_label": None if labels is None else MODULE_ORDER[labels[t]],
            "units": [_unit_dict(tr, t) for tr in traces],
        })
    return {
        "scene_id": scene.scene_id,
        "strategy": model.cfg.strategy,
        "m_units": len(model.units),
        "modules": (list(MODULE_ORDER) if model.cfg.single_module is None
                    else [model.cfg.single_module]),
        "steps": steps,
    }


def trace_example(model, corpus, synth, example) -> dict:
    """Teacher-forced replay of one gold caption."""
    scene = next(s for s in corpus.scenes if s.scene_id == example.scene_id)
    ids = example.token_ids
    with no_grad():
        doc = _trace(model, corpus.vocab, scene, model.encode(*synth.features(scene)),
                     ids[:-1], targets=ids[1:], labels=example.labels)
    doc.update({"kind": "teacher_forced", "slot": example.slot, "words": list(example.words)})
    return doc


def trace_generated(model, corpus, synth, scene, max_len: int = 16) -> dict:
    """Greedy decode, then the teacher-forced replay of its caption."""
    with no_grad():
        enc = model.encode(*synth.features(scene))
        (tokens,) = greedy_decode(model, enc, max_len)
        # fed BOS, then each token it emitted but the last
        doc = _trace(model, corpus.vocab, scene, enc, ([BOS_ID] + tokens)[:len(tokens)])
    doc.update({"kind": "generated", "slot": None,
                "words": corpus.vocab.decode(strip_sequence(tokens))})
    return doc


# -- SVG ------------------------------------------------------------------

_CELL_W = 52
_CELL_H = 22
_LEFT = 86
_TOP = 34
_UNIT_GAP = 30


def _svg_text(x, y, s, size=11, anchor="middle", fill="#111111"):
    return (f'<text x="{x}" y="{y}" font-size="{size}" text-anchor="{anchor}" '
            f'fill="{fill}" font-family="sans-serif">{escape(s)}</text>')


def render_svg(doc: dict, all_units: bool = False) -> str:
    """Module-weight grid: one column per step, one row per module.

    Units without a controller (single-module traces) render their one
    module at full strength.  By default only the last unit, the one
    feeding the word head, is drawn.
    """
    steps = doc["steps"]
    modules = doc["modules"]
    unit_ids = (list(range(doc["m_units"])) if all_units
                else [doc["m_units"] - 1])
    n_cols = len(steps)
    rows_per_unit = len(modules)
    block_h = rows_per_unit * _CELL_H + _UNIT_GAP
    width = _LEFT + max(n_cols, 1) * _CELL_W + 20
    height = _TOP + len(unit_ids) * block_h + 30

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        _svg_text(_LEFT, 16,
                  f'scene {doc["scene_id"]} [{doc["kind"]}, {doc["strategy"]}]',
                  size=12, anchor="start"),
    ]
    for block, unit_id in enumerate(unit_ids):
        top = _TOP + block * block_h
        parts.append(_svg_text(6, top + _CELL_H, f"unit {unit_id + 1}",
                               size=11, anchor="start"))
        for r, module in enumerate(modules):
            y = top + r * _CELL_H
            parts.append(_svg_text(_LEFT - 6, y + _CELL_H - 7, module,
                                   size=10, anchor="end",
                                   fill=MODULE_COLORS[module]))
            for c, step in enumerate(steps):
                unit = step["units"][unit_id]
                if unit["weights"] is None:
                    weight = 1.0
                else:
                    weight = unit["weights"][MODULE_ORDER.index(module)]
                opacity = 0.08 + 0.92 * max(0.0, min(1.0, weight))
                x = _LEFT + c * _CELL_W
                parts.append(
                    f'<rect x="{x}" y="{y}" width="{_CELL_W - 2}" '
                    f'height="{_CELL_H - 2}" fill="{MODULE_COLORS[module]}" '
                    f'fill-opacity="{opacity:.3f}"><title>'
                    f'{escape(module)} w={weight:.3f}</title></rect>')
        label_y = top + rows_per_unit * _CELL_H + 14
        for c, step in enumerate(steps):
            x = _LEFT + c * _CELL_W + (_CELL_W - 2) / 2
            parts.append(_svg_text(x, label_y, step["predicted_token"], size=10))
            if step["target_token"] is not None:
                parts.append(_svg_text(x, label_y + 13, step["target_token"],
                                       size=9, fill="#777777"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
