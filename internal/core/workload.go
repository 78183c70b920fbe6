package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/table"
)

// WorkloadQuery is one entry of a query workload (Section 4.3): a
// group-by query shape, how many times it occurs in the workload, and an
// optional row predicate restricting which rows (and hence which
// aggregation groups) the query touches — e.g. the example workload's
// query C, "GROUP BY major WHERE college=Science".
type WorkloadQuery struct {
	GroupBy []string
	Aggs    []string // aggregation column names (weights come from Freq)
	Freq    int
	Pred    func(tbl *table.Table, row int) bool // nil means all rows
}

// WorkloadWeights preprocesses a workload into QuerySpecs whose
// per-group weights are the frequencies of the deduced aggregation
// groups, reproducing Table 3 of the paper: an aggregation group is a
// pair (aggregation column, group-by value assignment); its weight is
// the total frequency of workload queries that touch it. Queries sharing
// a group-by attribute set are merged into one QuerySpec.
func WorkloadWeights(tbl *table.Table, workload []WorkloadQuery) ([]QuerySpec, error) {
	if len(workload) == 0 {
		return nil, fmt.Errorf("core: empty workload")
	}
	type gbEntry struct {
		attrs []string
		// weights[column][groupKey] = summed frequency
		weights map[string]map[string]float64
		order   []string // column order of first appearance
	}
	byGB := map[string]*gbEntry{}
	var gbOrder []string

	for wi, wq := range workload {
		if len(wq.GroupBy) == 0 || len(wq.Aggs) == 0 {
			return nil, fmt.Errorf("core: workload query %d missing group-by or aggregates", wi)
		}
		if wq.Freq <= 0 {
			return nil, fmt.Errorf("core: workload query %d has non-positive frequency %d", wi, wq.Freq)
		}
		gi, err := table.BuildGroupIndex(tbl, wq.GroupBy)
		if err != nil {
			return nil, fmt.Errorf("core: workload query %d: %w", wi, err)
		}
		// Which groups does the query touch? Without a predicate: all
		// groups occurring in the data. With one: groups having at least
		// one qualifying row.
		touched := make([]bool, gi.NumStrata())
		if wq.Pred == nil {
			for i := range touched {
				touched[i] = true
			}
		} else {
			for r := 0; r < tbl.NumRows(); r++ {
				if wq.Pred(tbl, r) {
					touched[gi.RowID[r]] = true
				}
			}
		}
		gbKey := strings.Join(wq.GroupBy, "\x00")
		e, ok := byGB[gbKey]
		if !ok {
			e = &gbEntry{attrs: append([]string(nil), wq.GroupBy...), weights: map[string]map[string]float64{}}
			byGB[gbKey] = e
			gbOrder = append(gbOrder, gbKey)
		}
		for _, col := range wq.Aggs {
			if tbl.Column(col) == nil {
				return nil, fmt.Errorf("core: workload query %d aggregates unknown column %q", wi, col)
			}
			m, ok := e.weights[col]
			if !ok {
				m = map[string]float64{}
				e.weights[col] = m
				e.order = append(e.order, col)
			}
			// every group occurring in the data gets an explicit entry: a
			// group no workload query touches must weigh 0, not fall back
			// to the column's default weight (e.g. non-Science majors for
			// query C when no other query covers them)
			for id := 0; id < gi.NumStrata(); id++ {
				freq := 0.0
				if touched[id] {
					freq = float64(wq.Freq)
				}
				m[gi.Key(id).String()] += freq
			}
		}
	}

	var specs []QuerySpec
	for _, gbKey := range gbOrder {
		e := byGB[gbKey]
		spec := QuerySpec{GroupBy: e.attrs}
		for _, col := range e.order {
			spec.Aggs = append(spec.Aggs, AggColumn{Column: col, Weight: 1, GroupWeights: e.weights[col]})
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// AggregationGroup is one row of the paper's Table 3: an (aggregation
// column, group assignment) pair with its workload frequency.
type AggregationGroup struct {
	Column string
	Group  string // rendered group key, e.g. "CS" or "CS|2019"
	Freq   float64
}

// AggregationGroups flattens the result of WorkloadWeights into the
// Table 3 representation, sorted by descending frequency then name, for
// display by cmd/cvbench and the workload example.
func AggregationGroups(specs []QuerySpec) []AggregationGroup {
	var out []AggregationGroup
	for _, s := range specs {
		for _, a := range s.Aggs {
			for g, f := range a.GroupWeights {
				out = append(out, AggregationGroup{Column: a.Column, Group: g, Freq: f})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Freq != out[j].Freq {
			return out[i].Freq > out[j].Freq
		}
		if out[i].Column != out[j].Column {
			return out[i].Column < out[j].Column
		}
		return out[i].Group < out[j].Group
	})
	return out
}
