package plan

import (
	apiv1 "repro/internal/api/v1"
)

// ExplainInput is the execution context an EXPLAIN rendering reflects:
// what the scan operator actually reads for this answer — the full
// table ("table") or a weighted sample ("sample"), how many rows, and
// for autoscaled samples the key and CV goal.
type ExplainInput struct {
	Source    string  // "table" or "sample"
	Rows      int     // rows the scan reads
	SampleKey string  // sample scans only
	TargetCV  float64 // autoscaled sample scans only
}

// Explain renders the plan as the wire contract's operator tree, a
// single-input chain: output → sort? → aggregate → filter? → scan.
// Detail maps marshal with sorted keys, so the JSON form is
// byte-stable (golden-testable).
func (p *Plan) Explain(in ExplainInput) *apiv1.PlanNode {
	scan := &apiv1.PlanNode{
		Op: "scan",
		Detail: map[string]any{
			"table":  p.tableName,
			"source": in.Source,
			"rows":   in.Rows,
		},
	}
	if in.SampleKey != "" {
		scan.Detail["sample_key"] = in.SampleKey
	}
	if in.TargetCV > 0 {
		scan.Detail["target_cv"] = in.TargetCV
	}
	node := scan

	if p.where != nil {
		node = &apiv1.PlanNode{
			Op:       "filter",
			Detail:   map[string]any{"predicate": p.whereStr},
			Children: []*apiv1.PlanNode{node},
		}
	}

	aggDetail := map[string]any{
		"aggregates":    p.aggLabels,
		"grouping_sets": len(p.setNames),
	}
	if len(p.groupAttrs) > 0 {
		aggDetail["group_by"] = p.groupAttrs
	}
	if p.cube {
		aggDetail["cube"] = true
	}
	if p.having != nil {
		aggDetail["having"] = p.havingStr
	}
	node = &apiv1.PlanNode{Op: "aggregate", Detail: aggDetail, Children: []*apiv1.PlanNode{node}}

	if len(p.orderBy) > 0 || p.limit > 0 {
		sortDetail := map[string]any{}
		if len(p.orderStrs) > 0 {
			sortDetail["order_by"] = p.orderStrs
		}
		if p.limit > 0 {
			sortDetail["limit"] = p.limit
		}
		node = &apiv1.PlanNode{Op: "sort", Detail: sortDetail, Children: []*apiv1.PlanNode{node}}
	}

	columns := append(append([]string(nil), p.groupAttrs...), p.aggLabels...)
	return &apiv1.PlanNode{
		Op:       "output",
		Detail:   map[string]any{"columns": columns},
		Children: []*apiv1.PlanNode{node},
	}
}
