"""AlterOpLayout: assign blocked layouts to convolutions and insert transforms.

This pass implements the core graph-level idea of section 3.2 (Figure 2):

* every convolution that received a schedule is switched to consume
  ``NCHW[ic_bn]c`` and produce ``NCHW[oc_bn]c``;
* its kernel weights are pre-transformed to ``OIHW[ic_bn]i[oc_bn]o`` via a
  ``layout_transform`` node marked ``compile_time`` (folded away entirely when
  parameter values are bound);
* ``LayoutTransform`` nodes are inserted on data edges *only where needed*:
  before the first convolution, between convolutions whose blocked layouts
  disagree, on the mismatching operand of ``elemwise_add``/``concat``, and
  before layout-dependent operations such as ``flatten``;
* layout-oblivious and layout-tolerant operators simply propagate whatever
  layout their producer emits.

The pass reads the specs it is given (the graph must already be inferred,
as stage 1 of the compiler leaves it) and re-infers the whole graph once at
the end, since it changes the conv specs and adds transforms without any.

With ``hoist_transforms=False`` the pass instead reproduces the *un-hoisted*
behaviour that the paper's "Layout Opt." ablation row (Table 3) measures: each
convolution individually transforms its input from the default layout and its
output back, so the blocked layout never flows across operator boundaries.
"""

from __future__ import annotations

import itertools
from typing import Dict

from ...ops.registry import LayoutCategory, registry
from ...schedule.template import ConvSchedule
from ...tensor.layout import Layout
from ..graph import Graph
from ..node import Node, NodeKind
from ..shape_infer import infer_shapes
from .pass_manager import GraphPass

__all__ = ["AlterOpLayout"]


class AlterOpLayout(GraphPass):
    """Apply per-convolution schedules and manage layout flow through the graph."""

    name = "alter_op_layout"

    def __init__(
        self,
        schedules: Dict[str, ConvSchedule],
        hoist_transforms: bool = True,
    ) -> None:
        #: Mapping from conv2d node name to its chosen schedule.
        self.schedules = dict(schedules)
        #: When False, transforms are kept inside each convolution (the
        #: "Layout Opt." ablation); when True they are hoisted and elided
        #: across the graph ("Transform Elim." and beyond).
        self.hoist_transforms = hoist_transforms
        self.num_transforms_inserted = 0

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _insert_transform(self, node_input: Node, src_layout: str, dst_layout: str,
                          compile_time: bool = False) -> Node:
        """Create a layout_transform node converting ``node_input``'s output.

        Names are numbered per run, so a graph's transform names (and its
        pickled bytes) do not depend on what the process compiled before.
        """
        return Node(
            NodeKind.OP,
            name=f"layout_transform_{next(self._transform_ids)}",
            op="layout_transform",
            inputs=[node_input],
            attrs={
                "src_layout": src_layout,
                "dst_layout": dst_layout,
                "compile_time": compile_time,
            },
        )

    def _rewire_data_input(self, node: Node, index: int, desired_layout: str,
                           layouts: Dict[int, str]) -> None:
        """Ensure input ``index`` of ``node`` arrives in ``desired_layout``."""
        producer = node.inputs[index]
        current = layouts.get(id(producer), self._default_layout(producer))
        if current == desired_layout:
            return
        transform = self._insert_transform(producer, current, desired_layout)
        node.set_input(index, transform)
        layouts[id(transform)] = desired_layout
        self.num_transforms_inserted += 1

    @staticmethod
    def _default_layout(node: Node) -> str:
        if node.spec is not None:
            return str(node.spec.layout)
        return "NCHW"

    # ------------------------------------------------------------------ #
    # main pass
    # ------------------------------------------------------------------ #
    def run(self, graph: Graph) -> Graph:
        self.num_transforms_inserted = 0
        self._transform_ids = itertools.count()
        #: current output layout per node id, as a layout string
        layouts: Dict[int, str] = {}

        for node in graph.topological_order():
            if node.is_input or node.is_constant:
                layouts[id(node)] = self._default_layout(node)
                continue

            if node.op == "conv2d" and node.name in self.schedules:
                self._alter_conv(graph, node, layouts)
                continue

            if node.op == "layout_transform":
                layouts[id(node)] = str(node.attrs["dst_layout"])
                continue

            op_def = registry.get(node.op)
            if op_def.category is LayoutCategory.DEPENDENT or node.op == "conv2d":
                # Layout-dependent ops (and un-scheduled convs, which only
                # have an NCHW kernel) require the default layout on every
                # 4-D feature-map input.
                for index, producer in enumerate(node.inputs):
                    current = layouts.get(id(producer), self._default_layout(producer))
                    layout_obj = Layout(current) if current else None
                    if layout_obj is not None and layout_obj.is_blocked:
                        canonical = str(layout_obj.canonical)
                        self._rewire_data_input(node, index, canonical, layouts)
                layouts[id(node)] = self._default_layout(node)
                continue

            if node.op in ("elemwise_add", "concat"):
                self._unify_input_layouts(node, layouts)
                continue

            # Layout-oblivious / tolerant single-data-input operators simply
            # propagate the producer's layout.
            producer = node.inputs[0]
            layouts[id(node)] = layouts.get(id(producer), self._default_layout(producer))

        # The network-level output stays in the default layout (Figure 2).
        for index, output in enumerate(list(graph.outputs)):
            layout = layouts.get(id(output), self._default_layout(output))
            layout_obj = Layout(layout)
            if layout_obj.is_blocked:
                transform = self._insert_transform(output, layout, str(layout_obj.canonical))
                graph.outputs[index] = transform
                self.num_transforms_inserted += 1

        # The conv specs changed and the new transforms have none: the one
        # inference of stage 3.
        infer_shapes(graph)
        return graph

    # ------------------------------------------------------------------ #
    # per-op handling
    # ------------------------------------------------------------------ #
    def _alter_conv(self, graph: Graph, node: Node, layouts: Dict[int, str]) -> None:
        schedule = self.schedules[node.name]
        node.attrs["schedule"] = schedule
        node.attrs["out_layout"] = schedule.output_layout
        node.attrs["data_layout"] = schedule.input_layout

        # Data edge.
        self._rewire_data_input(node, 0, schedule.input_layout, layouts)

        # Weight edge: pre-transform at compile time.
        weight = node.inputs[1]
        weight_layout = layouts.get(id(weight), self._default_layout(weight))
        if weight_layout != schedule.weight_layout:
            transform = self._insert_transform(
                weight, weight_layout, schedule.weight_layout, compile_time=True
            )
            node.set_input(1, transform)
            layouts[id(transform)] = schedule.weight_layout

        layouts[id(node)] = schedule.output_layout
        if not self.hoist_transforms:
            # Un-hoisted mode ("Layout Opt." ablation): immediately convert
            # the output back to the default layout so downstream operators
            # never see blocked data.  Consumers are rewired right away (never
            # ``back`` itself, which consumes ``node``); the traversal
            # operates on a snapshot so the new node is not revisited.
            back = self._insert_transform(node, schedule.output_layout, "NCHW")
            graph.replace_node(node, back)
            layouts[id(back)] = "NCHW"
            self.num_transforms_inserted += 1

    def _unify_input_layouts(self, node: Node, layouts: Dict[int, str]) -> None:
        """Force all inputs of elemwise_add/concat into one layout."""
        input_layouts = [
            layouts.get(id(producer), self._default_layout(producer))
            for producer in node.inputs
        ]
        target = input_layouts[0]
        target_obj = Layout(target)

        if node.op == "concat" and target_obj.is_blocked:
            # Concatenation along the channel axis of a blocked tensor is only
            # valid when every input's channel count divides the block size;
            # otherwise fall back to the canonical layout for all inputs.
            block = target_obj.block_factor("C")
            for producer in node.inputs:
                channels = producer.spec.axis_extent("C") if producer.spec else 0
                if block and channels % block:
                    target = str(target_obj.canonical)
                    target_obj = Layout(target)
                    break

        for index, current in enumerate(input_layouts):
            if current != target:
                self._rewire_data_input(node, index, target, layouts)
        layouts[id(node)] = target

