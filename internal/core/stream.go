package core

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/sample"
	"repro/internal/stats"
	"repro/internal/table"
)

// StreamSampler is a one-pass variant of CVOPT addressing the paper's
// future-work item (3) (streaming data): when a second scan of the data
// is unaffordable, statistics and candidate samples are maintained
// simultaneously in a single pass, and the CVOPT allocation is applied
// afterwards by subsampling the per-stratum reservoirs.
//
// Mechanics: every incoming row updates its stratum's Welford statistics
// and is offered to that stratum's reservoir of capacity Cap. At
// Finalize, the exact CVOPT allocation s_c is computed from the
// collected statistics, additionally capped at Cap, and each reservoir
// is subsampled down to its allocation (a uniform subsample of a uniform
// reservoir is uniform, so estimator unbiasedness is preserved).
//
// The tradeoff against the two-pass plan is explicit: memory grows to
// O(#strata × Cap) during the pass, and any stratum whose optimal
// allocation exceeds Cap is clipped there, with the surplus budget
// redistributed among the remaining strata (never lost). With
// Cap >= max_c s_c the result is distributed identically to the
// two-pass CVOPT sample.
//
// A StreamSampler is the same strata model a Plan is, fed row by row and
// with every stratum's supply capped at what its reservoir holds,
// min(n_c, Cap). The solver is the model's, so every norm, PredictedCVs,
// WorstCV and Autoscale work on a stream exactly as on a Plan — and
// describe the allocation Finalize will actually draw.
type StreamSampler struct {
	strata
	rng *rand.Rand

	tbl  *table.Table    // the table observed rows belong to; set by the first Observe
	aggs []*table.Column // the aggregation columns of tbl, in AggColumns order
	res  []*sample.Reservoir
	gids []int32   // Observe scratch: one batch of stratum ids
	vals []float64 // Observe scratch: one row's aggregate values
}

// observeBatch is how many rows Observe assigns per kernel call.
const observeBatch = 1024

// NewStreamSampler prepares a one-pass sampler for the given queries.
// cap is the per-stratum reservoir capacity (the memory/accuracy knob).
func NewStreamSampler(queries []QuerySpec, capacity int, rng *rand.Rand) (*StreamSampler, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("core: non-positive reservoir capacity %d", capacity)
	}
	st, err := analyze(queries)
	if err != nil {
		return nil, err
	}
	st.capacity = capacity
	return &StreamSampler{strata: st, rng: rng, gids: make([]int32, observeBatch), vals: make([]float64, len(st.aggCols))}, nil
}

// Observe consumes rows [lo, hi) of tbl, in order: each row is assigned
// its stratum by the grouping kernel, updates that stratum's Welford
// statistics and is offered to its reservoir under its row id. The first
// call binds the sampler to tbl — whose stratification and aggregation
// columns must exist — and every later call must name the same table,
// which may have grown in between.
func (s *StreamSampler) Observe(tbl *table.Table, lo, hi int) error {
	if s.tbl == nil {
		aggs, err := s.aggColumns(tbl)
		if err != nil {
			return err
		}
		if s.grouper, err = table.NewGrouper(tbl, s.StratAttrs); err != nil {
			return err
		}
		s.tbl, s.aggs = tbl, aggs
	} else if tbl != s.tbl {
		return fmt.Errorf("core: stream sampler is bound to table %q", s.tbl.Name)
	}
	for ; lo < hi; lo += len(s.gids) {
		gids := s.gids[:min(hi-lo, len(s.gids))]
		s.grouper.AssignRange(lo, lo+len(gids), gids)
		for len(s.groups) < s.grouper.NumGroups() {
			s.groups = append(s.groups, stats.NewGroupStats(len(s.aggCols)))
			s.res = append(s.res, sample.NewReservoir(s.capacity, s.rng))
		}
		for i, id := range gids {
			for j, c := range s.aggs {
				s.vals[j] = c.Numeric(lo + i)
			}
			s.groups[id].Add(s.vals)
			s.res[id].Offer(int32(lo + i))
		}
		s.stale = true
	}
	return nil
}

// Finalize computes the CVOPT allocation for budget m over the streamed
// statistics and subsamples each stratum's reservoir accordingly. The
// effective per-stratum cap is min(n_c, Cap); surplus beyond clipped
// strata is redistributed. The receiver remains usable (more Observe
// calls followed by another Finalize are allowed).
func (s *StreamSampler) Finalize(m int, opts Options) (*sample.StratifiedSample, error) {
	if len(s.groups) == 0 {
		return nil, errors.New("core: no data streamed")
	}
	sizes, err := s.Allocate(m, opts)
	if err != nil {
		return nil, err
	}
	held := make([][]int32, len(s.res))
	for i, r := range s.res {
		held[i] = r.Rows()
	}
	out, err := sample.DrawStratified(held, sizes, s.StratAttrs, s.rng)
	if err != nil {
		return nil, err
	}
	for i, g := range s.groups {
		out.Strata[i].PopulationN = g.N() // a reservoir stands for its whole stratum
	}
	return out, nil
}

// StreamTable feeds an entire table through a StreamSampler (a
// convenience for tests and for simulating a stream from stored data).
func StreamTable(s *StreamSampler, tbl *table.Table) error {
	return s.Observe(tbl, 0, tbl.NumRows())
}
