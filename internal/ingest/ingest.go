// Package ingest is the streaming side of the serving layer: it turns a
// static registered table into a *live* one. A Stream owns a private,
// growing copy of the table plus a resident core.StreamSampler (Welford
// statistics and per-stratum reservoirs, the paper's future-work item
// (3)), so appended rows update the CVOPT state in one pass with no
// rescan. On a refresh trigger — a row-count threshold, a periodic tick,
// or an explicit flush — the stream finalizes a fresh stratified sample,
// takes an O(columns) immutable snapshot of the table, and hands both to
// a publish callback as one Publication carrying a monotonically
// increasing generation number. The serving registry installs the pair
// atomically, so concurrent queries either see the previous complete
// generation or the new complete generation, never a partial one.
//
// Concurrency model: one mutex serializes Append, Refresh and the
// snapshot cut; the publish callback runs under that mutex so
// generations reach the registry in order. Readers of a published
// snapshot need no lock at all — the snapshot shares only memory the
// writer will never touch again (see table.Snapshot).
package ingest

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/samplers"
	"repro/internal/table"
	"repro/internal/wal"
)

// DefaultCapacity is the per-stratum reservoir capacity used when
// Config.Capacity is zero. It bounds resident memory at
// O(strata × capacity) row ids and caps how many rows any one stratum
// can contribute to a published sample.
const DefaultCapacity = 256

// Policy says when a stream republishes its sample without being asked.
// The zero value never auto-refreshes (explicit Refresh only). Each
// field follows the core.Options.MinPerStratum convention: 0 means
// "unset" (a registry substitutes its default there), negative means
// "explicitly off" even when defaults exist.
type Policy struct {
	// MaxPending triggers a refresh once at least this many rows have
	// been appended since the last publication. <= 0 disables the
	// threshold.
	MaxPending int
	// Interval triggers a periodic refresh (skipped while no rows are
	// pending). <= 0 disables the ticker.
	Interval time.Duration
}

// Config describes one streaming table registration.
type Config struct {
	// Queries is the workload the live sample must serve; it fixes the
	// stratification for the stream's lifetime.
	Queries []core.QuerySpec
	// Budget is the absolute row budget of every published sample.
	// Exactly one of Budget and Rate must be set.
	Budget int
	// Rate is the fractional alternative: each refresh spends
	// Rate × (current rows), so the sample grows with the stream.
	Rate float64
	// TargetCV is the autoscaled alternative: each refresh re-runs the
	// budget search over the rows ingested so far and spends the
	// smallest budget whose predicted worst per-group CV meets the
	// target — the guarantee tracks the data instead of decaying with
	// it. Exactly one of Budget, Rate and TargetCV must be set.
	TargetCV float64
	// MaxBudget caps the autoscale search per refresh (0 = every row
	// the reservoirs hold). When the cap binds — or the reservoirs are
	// too small for the target — the publication reports TargetMet
	// false with the CV it did achieve. Requires TargetCV.
	MaxBudget int
	// Capacity is the per-stratum reservoir capacity (0 =
	// DefaultCapacity). Allocations beyond it are clipped with the
	// surplus redistributed, exactly as in core.StreamSampler, and the
	// autoscale search and its reported CV account for the clipping.
	Capacity int
	// Opts selects the norm and repair, exactly as for a static build
	// (ℓ∞ needs a single-query workload).
	Opts core.Options
	// Seed seeds the reservoir RNG; 0 derives one from the table name.
	Seed int64
	// Policy selects the automatic refresh triggers.
	Policy Policy
	// Paused creates the stream without starting its automatic refresh
	// loop; call Resume once it should run. Recovery uses this so WAL
	// replay — which re-drives Append and Refresh in logged order —
	// cannot race a policy-triggered refresh that would consume sampler
	// RNG draws at unlogged points.
	Paused bool
	// FirstGeneration, when > 0, numbers the stream's first publication
	// FirstGeneration instead of 1, so generations stay monotone across
	// a recovery that resumes from a checkpoint.
	FirstGeneration uint64
}

// validate rejects configurations the sampler would choke on later.
func (c Config) validate() error {
	sizings := 0
	for _, set := range []bool{c.Budget > 0, c.Rate != 0, c.TargetCV != 0} {
		if set {
			sizings++
		}
	}
	switch {
	case c.Budget < 0:
		return fmt.Errorf("ingest: negative budget %d", c.Budget)
	case sizings > 1:
		return errors.New("ingest: set exactly one of budget, rate and target_cv")
	case sizings == 0:
		return errors.New("ingest: one of budget, rate or target_cv is required")
	case c.Rate < 0 || c.Rate > 1:
		return fmt.Errorf("ingest: rate must be in (0, 1], got %g", c.Rate)
	case c.TargetCV < 0 || math.IsInf(c.TargetCV, 1) || math.IsNaN(c.TargetCV):
		return fmt.Errorf("ingest: target CV must be positive and finite, got %g", c.TargetCV)
	case c.MaxBudget < 0:
		return fmt.Errorf("ingest: negative max budget %d", c.MaxBudget)
	case c.MaxBudget > 0 && c.TargetCV == 0:
		return errors.New("ingest: max budget requires target_cv")
	case c.Capacity < 0:
		return fmt.Errorf("ingest: negative reservoir capacity %d", c.Capacity)
	}
	return nil
}

// Publication is one complete publishable state of a streaming table:
// an immutable snapshot of all rows ingested so far plus the weighted
// sample drawn over exactly those rows. Sample is nil only for the
// initial publication of a stream seeded with zero rows.
type Publication struct {
	// Generation numbers publications 1, 2, 3, ... per stream.
	Generation uint64
	// Snapshot is the immutable table cut the sample's row ids index.
	Snapshot *table.Table
	// Sample is the weighted row sample over Snapshot.
	Sample *samplers.RowSample
	// Budget is the row budget this generation actually spent (resolved
	// from Config.Rate when set).
	Budget int
	// Rows is Snapshot's row count, recorded for ops surfaces.
	Rows int
	// TargetCV, AchievedCV and TargetMet report the autoscale guarantee
	// when Config.TargetCV sized this generation: the predicted worst
	// per-group CV at Budget and whether it met the target (false means
	// MaxBudget bound the search). All zero for budget/rate streams.
	TargetCV   float64
	AchievedCV float64
	TargetMet  bool
	// BuiltAt and BuildDuration time the finalize + snapshot cut.
	BuiltAt       time.Time
	BuildDuration time.Duration
	// WalSeq is the WAL sequence number of this publication's refresh
	// record; every logged append this snapshot covers has a smaller
	// sequence, so a checkpoint at this generation may truncate the WAL
	// through WalSeq. Zero when the stream has no WAL attached.
	WalSeq uint64
}

// Stream is one live table: a growing private buffer, the resident
// one-pass sampler, and the refresh machinery. Create with New; all
// methods are safe for concurrent use.
type Stream struct {
	name string
	cfg  Config

	mu      sync.Mutex
	tbl     *table.Table        // private buffer; only this stream appends
	sampler *core.StreamSampler // bound to tbl; observes its rows as they land
	pending int                 // rows appended since the last publication
	gen     uint64
	last    *Publication
	publish func(*Publication)
	wal     *wal.Log // nil until SetWAL; appends/refreshes are logged when set

	kick        chan struct{} // threshold crossings wake the loop
	stop        chan struct{}
	loopDone    chan struct{}
	loopStarted atomic.Bool
	closeOnce   sync.Once
	refreshErrs atomic.Int64
	walErrs     atomic.Int64
}

// New registers a streaming table: seed's rows are copied into the
// stream's private buffer (seed itself is never mutated and may keep
// serving readers), fed through the resident sampler, and published as
// generation 1 via the publish callback — with a finalized sample when
// the seed has rows, snapshot-only when it is empty. The callback runs
// synchronously under the stream's mutex, here and on every later
// refresh, so it observes strictly increasing generations.
func New(seed *table.Table, cfg Config, publish func(*Publication)) (*Stream, error) {
	if seed == nil || seed.Name == "" {
		return nil, errors.New("ingest: seed table must be non-nil and named")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Capacity == 0 {
		cfg.Capacity = DefaultCapacity
	}
	seedVal := cfg.Seed
	if seedVal == 0 {
		h := fnv.New64a()
		h.Write([]byte(seed.Name))
		seedVal = int64(h.Sum64() >> 1)
	}
	sampler, err := core.NewStreamSampler(cfg.Queries, cfg.Capacity, rand.New(rand.NewSource(seedVal)))
	if err != nil {
		return nil, err
	}
	s := &Stream{
		name:     seed.Name,
		cfg:      cfg,
		tbl:      table.New(seed.Name, seed.Schema()),
		sampler:  sampler,
		publish:  publish,
		kick:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	if err := s.tbl.AppendTable(seed); err != nil {
		return nil, err
	}
	// binds the sampler to the buffer (resolving the workload's columns
	// against its schema once) and feeds it the seed rows
	if err := core.StreamTable(s.sampler, s.tbl); err != nil {
		return nil, fmt.Errorf("ingest: table %q: %w", seed.Name, err)
	}
	if cfg.FirstGeneration > 0 {
		s.gen = cfg.FirstGeneration - 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tbl.NumRows() > 0 {
		if _, err := s.refreshLocked(); err != nil {
			return nil, err
		}
	} else {
		// an empty stream still publishes its (empty) snapshot so the
		// table is immediately registered and exactly queryable
		s.publishLocked(&Publication{Snapshot: s.tbl.Snapshot(), BuiltAt: time.Now()})
	}
	if !cfg.Paused {
		s.Resume()
	}
	return s, nil
}

// Resume starts the automatic refresh loop of a stream created with
// Config.Paused. Calling it more than once (or on an unpaused stream)
// is a no-op.
func (s *Stream) Resume() {
	if s.loopStarted.CompareAndSwap(false, true) {
		go s.loop()
	}
}

// SetWAL attaches a write-ahead log: from now on every append batch and
// every publication is logged before it is applied. Recovery attaches
// the log only after replay, so replayed operations are not re-logged.
func (s *Stream) SetWAL(l *wal.Log) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wal = l
}

// WalErrors counts WAL refresh-record writes that failed (the
// publication still served; the failure surfaces here and in metrics).
func (s *Stream) WalErrors() int64 { return s.walErrs.Load() }

// Name returns the stream's table name.
func (s *Stream) Name() string { return s.name }

// Generation returns the latest published generation.
func (s *Stream) Generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// Pending returns how many appended rows the published sample does not
// cover yet.
func (s *Stream) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending
}

// Rows returns the total number of rows ingested so far.
func (s *Stream) Rows() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tbl.NumRows()
}

// RefreshErrors counts automatic refreshes that failed (the stream
// keeps serving its previous generation when one does).
func (s *Stream) RefreshErrors() int64 { return s.refreshErrs.Load() }

// Last returns the most recent publication.
func (s *Stream) Last() *Publication {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

// LastRefreshDuration returns the build duration of the most recent
// publication (0 until one completes).
func (s *Stream) LastRefreshDuration() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.last == nil {
		return 0
	}
	return s.last.BuildDuration
}

// CoerceRow converts one row of loosely-typed values (JSON decoding
// yields float64 for every number) into the Go types Table.AppendRow
// expects for sch, rejecting wrong arity, wrong types and non-integral
// values for integer columns.
func CoerceRow(sch table.Schema, vals []any) ([]any, error) {
	if len(vals) != len(sch) {
		return nil, fmt.Errorf("ingest: row arity %d, want %d", len(vals), len(sch))
	}
	out := make([]any, len(vals))
	for i, v := range vals {
		spec := sch[i]
		switch spec.Kind {
		case table.String:
			sv, ok := v.(string)
			if !ok {
				return nil, fmt.Errorf("ingest: column %q expects a string, got %T", spec.Name, v)
			}
			out[i] = sv
		case table.Float:
			switch x := v.(type) {
			case float64:
				out[i] = x
			case int:
				out[i] = float64(x)
			case int64:
				out[i] = float64(x)
			default:
				return nil, fmt.Errorf("ingest: column %q expects a number, got %T", spec.Name, v)
			}
		case table.Int:
			switch x := v.(type) {
			case int:
				out[i] = int64(x)
			case int64:
				out[i] = x
			case float64:
				if x != math.Trunc(x) || math.IsInf(x, 0) || math.IsNaN(x) {
					return nil, fmt.Errorf("ingest: column %q expects an integer, got %v", spec.Name, x)
				}
				out[i] = int64(x)
			default:
				return nil, fmt.Errorf("ingest: column %q expects an integer, got %T", spec.Name, v)
			}
		}
	}
	return out, nil
}

// AppendStatus reports the stream state right after a batch append.
type AppendStatus struct {
	// Appended is how many rows the batch added.
	Appended int
	// Pending is how many appended rows the published sample does not
	// cover yet (includes this batch).
	Pending int
	// Rows is the total ingested row count.
	Rows int
	// Generation is the currently published generation (the batch is
	// NOT part of it until the next refresh).
	Generation uint64
}

// Append ingests a batch of rows: each row is type-coerced against the
// schema, appended to the private buffer and offered to the resident
// sampler. The whole batch is validated first so a bad row rejects the
// batch atomically instead of leaving half of it ingested. Crossing the
// Policy.MaxPending threshold wakes the refresh loop; the append itself
// never pays the refresh latency.
func (s *Stream) Append(rows [][]any) (AppendStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	status := func(appended int) AppendStatus {
		return AppendStatus{Appended: appended, Pending: s.pending, Rows: s.tbl.NumRows(), Generation: s.gen}
	}
	sch := s.tbl.Schema()
	coerced := make([][]any, len(rows))
	for i, row := range rows {
		c, err := CoerceRow(sch, row)
		if err != nil {
			return status(0), fmt.Errorf("ingest: row %d: %w", i, err)
		}
		coerced[i] = c
	}
	// log before apply: a batch the WAL cannot record is rejected whole,
	// so memory never holds rows a restart would lose. The write is
	// buffered (no fsync under s.mu); the serving layer calls Commit
	// after this returns.
	if s.wal != nil && len(coerced) > 0 {
		payload, err := wal.EncodeRows(coerced)
		if err == nil {
			_, err = s.wal.Append(wal.TypeRows, payload)
		}
		if err != nil {
			return status(0), fmt.Errorf("ingest: wal append: %w", err)
		}
	}
	lo := s.tbl.NumRows()
	for _, row := range coerced {
		if err := s.tbl.AppendRow(row...); err != nil {
			// unreachable after coercion; surface it loudly if not
			return status(0), err
		}
	}
	if err := s.sampler.Observe(s.tbl, lo, s.tbl.NumRows()); err != nil {
		return status(0), err
	}
	s.pending += len(coerced)
	if s.cfg.Policy.MaxPending > 0 && s.pending >= s.cfg.Policy.MaxPending {
		select {
		case s.kick <- struct{}{}:
		default: // a wakeup is already queued
		}
	}
	return status(len(rows)), nil
}

// Refresh finalizes and publishes a new generation now, regardless of
// policy. With nothing pending it returns the current publication
// without rebuilding (so callers can use it as "make sure the sample is
// current" idempotently); an empty stream returns an error.
func (s *Stream) Refresh() (*Publication, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pending == 0 && s.last != nil && s.last.Sample != nil {
		return s.last, nil
	}
	return s.refreshLocked()
}

// refreshLocked builds and publishes the next generation. Caller holds
// s.mu.
func (s *Stream) refreshLocked() (*Publication, error) {
	rows := s.tbl.NumRows()
	if rows == 0 {
		return nil, errors.New("ingest: no rows ingested yet")
	}
	start := time.Now()
	m := s.cfg.Budget
	var auto *core.AutoscaleResult
	if s.cfg.Rate > 0 {
		m = int(float64(rows) * s.cfg.Rate)
		if m < 1 {
			m = 1
		}
	} else if s.cfg.TargetCV > 0 {
		// re-run the budget search over the sampler's own statistics and
		// reservoir holdings — the allocation Finalize is about to draw —
		// so the published guarantee describes the published sample. The
		// search is pure evaluation over append-ordered Welford state (no
		// scan, no RNG), so WAL replay re-derives the same budget at the
		// same point and the reservoir state stays deterministic.
		res, err := s.sampler.Autoscale(core.AutoscaleParams{
			TargetCV:  s.cfg.TargetCV,
			MaxBudget: s.cfg.MaxBudget,
			Opts:      s.cfg.Opts,
		})
		if err != nil {
			return nil, fmt.Errorf("ingest: autoscale refresh: %w", err)
		}
		m, auto = res.Budget, res
	}
	ss, err := s.sampler.Finalize(m, s.cfg.Opts)
	if err != nil {
		return nil, err
	}
	rids, weights := core.RowWeights(ss)
	pub := &Publication{
		Snapshot:      s.tbl.Snapshot(),
		Sample:        &samplers.RowSample{Rows: rids, Weights: weights},
		Budget:        m,
		Rows:          rows,
		BuiltAt:       start,
		BuildDuration: time.Since(start),
	}
	if auto != nil {
		pub.TargetCV = auto.TargetCV
		pub.AchievedCV = auto.AchievedCV
		pub.TargetMet = auto.Met
	}
	s.publishLocked(pub)
	return pub, nil
}

// publishLocked stamps the next generation and hands the publication to
// the callback. Caller holds s.mu, which is what keeps generations
// ordered at the receiver.
func (s *Stream) publishLocked(pub *Publication) {
	s.gen++
	pub.Generation = s.gen
	pub.Rows = pub.Snapshot.NumRows()
	// log the publication point: replay must re-finalize exactly here,
	// because the sampler consumes RNG draws at every finalize and a
	// shifted refresh would diverge the reservoir state
	if s.wal != nil {
		seq, err := s.wal.Append(wal.TypeRefresh, wal.EncodeRefresh(s.gen))
		if err != nil {
			s.walErrs.Add(1)
		} else {
			pub.WalSeq = seq
		}
	}
	s.pending = 0
	s.last = pub
	if s.publish != nil {
		s.publish(pub)
	}
}

// loop is the per-table ingest loop: it owns the automatic refresh
// triggers so appends and ticks never block each other for longer than
// one finalize. Failed automatic refreshes are counted and the previous
// generation keeps serving.
func (s *Stream) loop() {
	defer close(s.loopDone)
	var tick <-chan time.Time
	if s.cfg.Policy.Interval > 0 {
		t := time.NewTicker(s.cfg.Policy.Interval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-s.stop:
			return
		case <-s.kick:
		case <-tick:
		}
		s.mu.Lock()
		var err error
		if s.pending > 0 {
			_, err = s.refreshLocked()
		}
		s.mu.Unlock()
		if err != nil {
			s.refreshErrs.Add(1)
		}
	}
}

// Close stops the refresh loop. The stream's published generations stay
// valid; further Append/Refresh calls still work but nothing fires
// automatically anymore. Safe to call more than once.
func (s *Stream) Close() {
	s.closeOnce.Do(func() { close(s.stop) })
	// a paused stream whose loop never started has nothing to wait for
	// (loopDone would never close)
	if s.loopStarted.Load() {
		<-s.loopDone
	}
}
