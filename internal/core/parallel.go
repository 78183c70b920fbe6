package core

import (
	"runtime"
	"sync"

	"repro/internal/stats"
	"repro/internal/table"
)

// parallelThreshold is the row count above which the statistics pass
// fans out to worker goroutines; below it the goroutine and merge
// overhead exceeds the scan cost.
const parallelThreshold = 100000

// collectStats runs the per-stratum statistics pass. For small tables it
// scans sequentially; for large ones it splits the row range across
// GOMAXPROCS workers, each feeding a private Collector, and merges the
// per-stratum summaries with the exact parallel-variance rule — the
// property internal/stats was designed around, so the result equals the
// sequential scan's bit-for-bit up to float associativity.
func collectStats(gi *table.GroupIndex, cols []*table.Column) (*stats.Collector, error) {
	n := len(gi.RowID)
	workers := runtime.GOMAXPROCS(0)
	if n < parallelThreshold || workers < 2 {
		return scanRange(gi, cols, 0, n)
	}
	if workers > 8 {
		workers = 8 // merges are cheap but the scan saturates memory bandwidth
	}
	chunk := (n + workers - 1) / workers
	partial := make([]*stats.Collector, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			partial[w], errs[w] = scanRange(gi, cols, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	out := stats.NewCollector(gi.NumStrata(), len(cols))
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			return nil, errs[w]
		}
		if partial[w] == nil {
			continue
		}
		for c := 0; c < gi.NumStrata(); c++ {
			if err := out.Group(c).Merge(partial[w].Group(c)); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// scanRange accumulates rows [lo, hi) into a fresh collector.
func scanRange(gi *table.GroupIndex, cols []*table.Column, lo, hi int) (*stats.Collector, error) {
	c := stats.NewCollector(gi.NumStrata(), len(cols))
	vals := make([]float64, len(cols))
	for r := lo; r < hi; r++ {
		for i, col := range cols {
			vals[i] = col.Numeric(r)
		}
		if err := c.Observe(int(gi.RowID[r]), vals); err != nil {
			return nil, err
		}
	}
	return c, nil
}
