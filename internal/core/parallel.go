package core

import (
	"runtime"
	"sync"

	"repro/internal/stats"
	"repro/internal/table"
)

// statsChunkRows is how many rows one task of the statistics pass scans.
// The split depends on the table alone, never on the machine, so the
// merged per-stratum statistics — and every CV predicted from them — are
// the same bits on every host. A table of at most one chunk is a single
// sequential scan.
const statsChunkRows = 1 << 19

// collectStats runs the per-stratum statistics pass. Every chunk of
// statsChunkRows rows feeds a private Collector, up to min(GOMAXPROCS, 8)
// chunks at a time (the scan saturates memory bandwidth beyond that), and
// the chunks merge in chunk order with the exact parallel-variance rule —
// the property internal/stats was designed around, so the result equals
// the sequential scan's up to float associativity.
func collectStats(gi *table.GroupIndex, cols []*table.Column) *stats.Collector {
	n := len(gi.RowID)
	chunks := max(1, (n+statsChunkRows-1)/statsChunkRows)
	partial := make([]*stats.Collector, chunks)
	workers := min(runtime.GOMAXPROCS(0), 8, chunks)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := w; k < chunks; k += workers {
				lo := k * statsChunkRows
				partial[k] = scanRange(gi, cols, lo, min(lo+statsChunkRows, n))
			}
		}()
	}
	wg.Wait()
	out := partial[0] // merging chunk 0 into an empty collector would only copy it
	for _, p := range partial[1:] {
		for c := range gi.NumStrata() {
			_ = out.Group(c).Merge(p.Group(c)) // cannot fail: equal arity
		}
	}
	return out
}

// scanRange accumulates rows [lo, hi) into a fresh collector, one
// aggregation column at a time over its typed slice. Each (stratum,
// column) summary still receives its values in row order, so every bit
// equals a row-at-a-time scan's.
func scanRange(gi *table.GroupIndex, cols []*table.Column, lo, hi int) *stats.Collector {
	c := stats.NewCollector(gi.NumStrata(), len(cols))
	ids := gi.RowID[lo:hi]
	for j, col := range cols {
		if col.Spec.Kind == table.Float {
			for k, x := range col.Float[lo:hi] {
				c.Group(int(ids[k])).Cols[j].Add(x)
			}
			continue
		}
		for k, id := range ids { // Int: aggColumns admits no other kind
			c.Group(int(id)).Cols[j].Add(col.Numeric(lo + k))
		}
	}
	return c
}
