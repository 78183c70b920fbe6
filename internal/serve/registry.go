// Package serve turns the batch CVOPT pipeline into a resident,
// concurrent sample-serving subsystem: the build-once/query-many shape
// the paper's offline/online split (Section 4) implies. A Registry owns
// read-only tables and immutable built samples keyed by (table,
// workload, budget); building is deduplicated singleflight-style (one
// goroutine builds, concurrent requesters wait for the same result) and
// the query path takes only a read lock, so any number of queries
// answer in parallel off the same shared sample.
//
// The registry is *sharded* by table name (shard.go): each shard owns
// the tables, built samples, in-flight builds and streaming state of
// the tables that hash to it, behind its own RWMutex. A heavy build or
// stream refresh on one table therefore never contends with queries on
// a table in another shard. Resident sample memory is bounded by an
// optional byte budget with hits-informed LRU eviction (evict.go).
//
// The HTTP front end lives in server.go; cmd/cvserve is the binary.
package serve

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/samplers"
	"repro/internal/sqlparse"
	"repro/internal/table"
)

// BuildRequest identifies one sample to build: the workload it must
// serve and the row budget it may spend. Equal requests (same table,
// canonically-equal workload, same budget and options) share one built
// sample.
type BuildRequest struct {
	// Table is the name of a table previously registered with
	// RegisterTable.
	Table string
	// Queries is the workload the sample must serve (Section 4.3).
	Queries []core.QuerySpec
	// Budget is the row budget M. Exactly one of Budget and TargetCV
	// must be set.
	Budget int
	// TargetCV, when positive, autoscales the budget instead: the
	// registry searches for the smallest budget whose predicted worst
	// per-group CV meets the target (core.Plan.Autoscale) and builds at
	// that budget. Mutually exclusive with Budget.
	TargetCV float64
	// MaxBudget caps an autoscaled search (0 = the table's row count).
	// When the cap cannot meet the target the entry is built best-effort
	// at the cap, with Entry.TargetMet false and Entry.AchievedCV
	// reporting the guarantee actually obtained. Only meaningful with
	// TargetCV.
	MaxBudget int
	// Opts selects the norm and allocation repair (zero value = ℓ2).
	Opts core.Options
	// Seed seeds the sampling RNG; 0 derives a deterministic seed from
	// the request key so identical requests build identical samples.
	Seed int64
}

// canonQueries canonicalizes a workload for key purposes. Query order
// is normalized away; names are %q-quoted throughout so a column
// containing a delimiter (",", "|", ...) cannot collide two workloads
// onto one key. Shared by static build keys and streaming table keys.
func canonQueries(queries []core.QuerySpec) string {
	specs := make([]string, len(queries))
	for i, q := range queries {
		aggs := make([]string, len(q.Aggs))
		for j, a := range q.Aggs {
			var gw []string
			for k, v := range a.GroupWeights {
				gw = append(gw, fmt.Sprintf("%q=%g", k, v))
			}
			sort.Strings(gw)
			// render the effective weight (zero means 1, per
			// AggColumn.weightFor) so omitted and explicit defaults
			// share one sample
			w := a.Weight
			if w == 0 {
				w = 1
			}
			aggs[j] = fmt.Sprintf("%q*%g{%s}", a.Column, w, strings.Join(gw, ","))
		}
		sort.Strings(aggs)
		// group-by is a set for stratification purposes: ["a","b"] and
		// ["b","a"] must share one sample
		gb := make([]string, len(q.GroupBy))
		for j, a := range q.GroupBy {
			gb[j] = fmt.Sprintf("%q", a)
		}
		sort.Strings(gb)
		specs[i] = strings.Join(gb, ",") + "|" + strings.Join(aggs, ";")
	}
	sort.Strings(specs)
	return strings.Join(specs, "&")
}

// hash64 is the FNV-1a hash derived seeds and file names are taken from.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// key canonicalizes the request into the registry cache key. The norm
// options and seed are folded in because they change the allocation or
// the drawn rows — two requests differing only in explicit seed must
// build two samples.
func (b BuildRequest) key() string {
	// normalize option defaults the same way the sampler reads them
	// (core.Options.minPerStratum: 0 means 1, negative disables; P is
	// ignored outside Lp) so equivalent requests share one key
	min := b.Opts.MinPerStratum
	switch {
	case min < 0:
		min = 0
	case min == 0:
		min = 1
	}
	p := 0.0
	if b.Opts.Norm == core.Lp {
		p = b.Opts.P
	}
	// autoscaled requests key on the *target* (and its cap), not the
	// budget the search will choose: the chosen budget is an output, and
	// two callers asking for the same accuracy must share one sample —
	// including while the first build is still in flight (singleflight
	// dedups on this key)
	sizing := fmt.Sprintf("m=%d", b.Budget)
	if b.TargetCV > 0 {
		sizing = fmt.Sprintf("tcv=%g,maxm=%d", b.TargetCV, b.MaxBudget)
	}
	return fmt.Sprintf("%q/%s/norm=%d,p=%g,min=%d,seed=%d/%s",
		b.Table, sizing, b.Opts.Norm, p, min,
		b.Seed, canonQueries(b.Queries))
}

// Entry is one immutable built sample held by a Registry. All fields
// except the Hits and lastUsed counters are read-only after
// publication; the sample's Rows/Weights slices must not be mutated.
// Streaming tables replace their entry wholesale on refresh (never
// mutate it), so a query that picked up an entry keeps a complete,
// self-consistent generation no matter how many refreshes land while it
// runs.
type Entry struct {
	// Key is the canonical registry key (table, workload, budget, norm).
	Key string
	// Table is the source table name.
	Table string
	// Budget is the row budget M the sample was built at — the caller's
	// for explicit builds, the autoscaler's choice for TargetCV builds.
	Budget int
	// TargetCV is the per-group CV goal of an autoscaled build (0 for
	// explicit-budget builds).
	TargetCV float64
	// AchievedCV is the predicted worst per-group CV at Budget
	// (autoscaled builds only; +Inf when even MaxBudget leaves a needed
	// stratum unsampled).
	AchievedCV float64
	// TargetMet reports whether AchievedCV met TargetCV; false means
	// MaxBudget bound the search and the entry is best-effort.
	TargetMet bool
	// Queries is the workload the sample was optimized for.
	Queries []core.QuerySpec
	// Opts are the build options.
	Opts core.Options
	// Sample is the built weighted row sample.
	Sample *samplers.RowSample
	// BuiltAt and BuildDuration record when and how long the build ran.
	BuiltAt       time.Time
	BuildDuration time.Duration
	// Generation is the streaming publication number that produced this
	// entry (1, 2, 3, ... per streaming table; 0 for static builds).
	Generation uint64
	// Hits counts the entry's reuses: every time Find selects it to
	// answer a query and every time Build returns it from the cache —
	// the reuse signal eviction orders by. Carried across streaming
	// refreshes of the same key.
	Hits atomic.Int64

	// lastUsed is the registry's logical LRU clock value at the last
	// Find selection (stamped once at install, so never-hit entries
	// order by install time among themselves).
	lastUsed atomic.Int64
	// size is the entry's resident-byte estimate (see entrySizeBytes),
	// fixed at install.
	size int64

	attrs map[string]bool // union of group-by attributes, for coverage
	// snapshot is the immutable table cut the sample's row ids index
	// (streaming entries only; nil means "use the registered table").
	snapshot *table.Table
	// popRows is the population row count the sample — and any autoscale
	// guarantee — was computed over, fixed at build.
	popRows int
	// cvStale flips once appended data outgrew popRows: the autoscale
	// guarantee no longer describes the table being answered from, so
	// target_met renders false. Atomic because stream publications flip
	// it while queries read.
	cvStale atomic.Bool
}

// GuaranteeStale reports whether appended data has outgrown the
// population this entry's autoscale guarantee was computed over.
// Always false for non-autoscaled entries and for streaming entries
// (each publication re-derives its guarantee).
func (e *Entry) GuaranteeStale() bool { return e.cvStale.Load() }

// SizeBytes is the entry's resident-memory estimate charged against the
// registry's sample byte budget: sample rows × row width (see
// entrySizeBytes in evict.go).
func (e *Entry) SizeBytes() int64 { return e.size }

// execTable returns the table the entry's sample must be evaluated
// against: its own snapshot for streaming entries (the sample's row ids
// index that exact cut), the registered table otherwise.
func (e *Entry) execTable(registered *table.Table) *table.Table {
	if e.snapshot != nil {
		return e.snapshot
	}
	return registered
}

// Covers reports whether the sample's stratification covers a query
// grouping by the given attributes (every queried attribute is one of
// the sample's stratification attributes, so every group of the query
// is a union of strata and the weighted estimate is well-formed).
func (e *Entry) Covers(groupBy []string) bool {
	for _, a := range groupBy {
		if !e.attrs[a] {
			return false
		}
	}
	return true
}

// GroupAttrs returns the sorted union of the entry's stratification
// attributes.
func (e *Entry) GroupAttrs() []string {
	out := make([]string, 0, len(e.attrs))
	for a := range e.attrs {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Option configures a Registry at construction.
type Option func(*Registry)

// DefaultShards is the shard count NewRegistry uses unless WithShards
// overrides it. Sixteen keeps per-shard maps tiny while spreading
// unrelated tables across enough locks that builds and queries on
// different tables effectively never share one.
const DefaultShards = 16

// WithShards sets the shard count (minimum 1). More shards mean less
// cross-table lock sharing; tables land on shards by name hash, so the
// count is fixed for the registry's lifetime.
func WithShards(n int) Option {
	return func(r *Registry) {
		if n > 0 {
			r.shards = make([]*shard, n)
		}
	}
}

// WithMaxSampleBytes bounds the registry's resident sample memory:
// whenever the total estimated size of built samples (Entry.SizeBytes)
// exceeds max, least-valuable entries are evicted — never-hit entries
// first, then least-recently-used — until the total is back under
// budget. Entries pinned by a live streaming table are never evicted.
// max <= 0 (the default) disables eviction.
func WithMaxSampleBytes(max int64) Option {
	return func(r *Registry) { r.maxSampleBytes = max }
}

// Registry is the concurrent sample store: read-only tables plus
// immutable built samples, sharded by table name. The zero value is not
// usable; call NewRegistry. All methods are safe for concurrent use;
// reads (Table/Find/Entries/Query) share their shard's RLock while
// builds are deduplicated so each distinct key is built exactly once no
// matter how many requesters race.
type Registry struct {
	shards []*shard

	// maxSampleBytes is the resident sample budget (0 = unbounded);
	// fixed at construction. residentBytes tracks the current total
	// across shards; useClock is the logical LRU clock Find advances.
	maxSampleBytes int64
	residentBytes  atomic.Int64
	useClock       atomic.Int64
	evictMu        sync.Mutex // one evictor at a time

	// regMu serializes table registrations (static and streaming).
	// Registration must check the name against *every* shard and then
	// install into one; doing that with only shard locks would either
	// race the check against a concurrent registration or acquire shard
	// locks in name-hash order and deadlock. Under regMu the scan takes
	// one shard read lock at a time with nothing else held. Ordering:
	// regMu is always taken before any shard lock, never the reverse.
	regMu sync.Mutex

	defMu          sync.Mutex
	streamDefaults ingest.Policy

	refreshes atomic.Int64
	closed    atomic.Bool

	// maxPlans bounds the resident compiled-plan cache (plancache.go);
	// planCompiles counts the compilations it ran.
	maxPlans     int
	planCompiles atomic.Int64

	// obs is the registry's metrics registry (exposed at GET /metrics);
	// metrics holds the resolved handles the hot paths increment — the
	// only count of each event, read back by Builds, Evictions and the
	// like. Both are created unconditionally — observing an unscrapped
	// registry costs one atomic add per event.
	obs     *obs.Registry
	metrics *srvMetrics

	// persist is the optional durability layer (persist.go): WAL-backed
	// streaming tables plus spilled static samples. nil without
	// WithPersistence.
	persist *persister
}

// NewRegistry returns an empty registry with DefaultShards shards and
// no sample byte budget; see WithShards and WithMaxSampleBytes.
func NewRegistry(opts ...Option) *Registry {
	r := &Registry{shards: make([]*shard, DefaultShards), maxPlans: DefaultMaxPlans}
	for _, o := range opts {
		o(r)
	}
	for i := range r.shards {
		r.shards[i] = newShard()
	}
	r.obs = obs.NewRegistry()
	r.metrics = newSrvMetrics(r.obs, r)
	return r
}

// Shards returns the registry's shard count (ops surface).
func (r *Registry) Shards() int { return len(r.shards) }

// Obs returns the registry's metrics registry — the store behind
// GET /metrics. The server and the debug listener mount its handler;
// callers embedding a Registry directly can scrape or render it
// themselves.
func (r *Registry) Obs() *obs.Registry { return r.obs }

// RegisterTable adds a table to the registry. The registry and its
// queries treat the table as immutable from this point on; registering
// a second table under the same name is an error (samples already built
// against it would silently go stale).
func (r *Registry) RegisterTable(tbl *table.Table) error {
	if tbl == nil || tbl.Name == "" {
		return fmt.Errorf("serve: table must be non-nil and named")
	}
	r.regMu.Lock()
	defer r.regMu.Unlock()
	if err := r.checkNameFree(tbl.Name); err != nil {
		return err
	}
	sh := r.shardFor(tbl.Name)
	sh.mu.Lock()
	sh.tables[tbl.Name] = tbl
	sh.mu.Unlock()
	return nil
}

// checkNameFree rejects a table name already taken by a registered
// table or an in-flight streaming registration, in any shard. The check
// is case-insensitive to match resolution: "Sales" and "sales" would
// otherwise register side by side and resolve nondeterministically.
// Caller holds r.regMu (which makes the scan-then-install sequence
// atomic against other registrations) and NO shard lock; the scan takes
// one shard read lock at a time.
func (r *Registry) checkNameFree(name string) error {
	for _, sh := range r.shards {
		sh.mu.RLock()
		err := sh.checkNameFreeLocked(name)
		sh.mu.RUnlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// Table returns the registered table with the given name. The match is
// case-insensitive, like the executor's FROM check. For a streaming
// table this is the latest published snapshot — queries see the data as
// of the last refresh, never a half-appended buffer.
func (r *Registry) Table(name string) (*table.Table, bool) {
	sh := r.shardFor(name)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	t, _ := sh.tableLocked(name)
	return t, t != nil
}

// TableNames returns the sorted names of all registered tables.
func (r *Registry) TableNames() []string {
	var out []string
	for _, sh := range r.shards {
		sh.mu.RLock()
		for n := range sh.tables {
			out = append(out, n)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// Build returns the sample for req, building it if no equal request has
// been built before. The cached result reports whether the sample came
// from the cache (including waiting on another goroutine's in-flight
// build of the same key). Concurrent Builds of the same key run the
// expensive CVOPT pass exactly once. The build runs synchronously on
// the caller's goroutine — the registry spawns nothing, so Close has no
// static builds to cancel (see Close). ctx carries the request's trace
// (obs.TraceFromContext), whose phases time the singleflight wait, the
// autoscale search and the draw; the build itself is not cancelable —
// a built sample is installed for the next caller even when the
// requester has gone away.
func (r *Registry) Build(ctx context.Context, req BuildRequest) (entry *Entry, cached bool, err error) {
	switch {
	case req.TargetCV > 0 && req.Budget != 0:
		return nil, false, fmt.Errorf("serve: target CV and budget are mutually exclusive (got target %g and budget %d)",
			req.TargetCV, req.Budget)
	case req.TargetCV < 0 || math.IsNaN(req.TargetCV) || math.IsInf(req.TargetCV, 1):
		return nil, false, fmt.Errorf("serve: target CV must be positive and finite, got %v", req.TargetCV)
	case req.TargetCV == 0 && req.Budget <= 0:
		return nil, false, fmt.Errorf("serve: budget must be positive, got %d", req.Budget)
	case req.MaxBudget < 0 || (req.MaxBudget > 0 && req.TargetCV == 0):
		return nil, false, fmt.Errorf("serve: max budget is the autoscale cap; it requires a target CV")
	}
	if len(req.Queries) == 0 {
		return nil, false, fmt.Errorf("serve: build request has no queries")
	}
	// resolve the table first (case-insensitively, like every other
	// entry point) and canonicalize its name so the cache key cannot
	// fork on casing — and so the key lands on the table's own shard
	tbl, ok := r.Table(req.Table)
	if !ok {
		return nil, false, fmt.Errorf("serve: unknown table %q", req.Table)
	}
	req.Table = tbl.Name
	key := req.key()
	sh := r.shardFor(tbl.Name)

	// cache-hit fast path under the read lock: idempotent re-registers
	// (the steady state of build-once/query-many) must not serialize
	// against concurrent queries. Cached returns count as reuse — an
	// entry kept warm through Build alone must not look idle to the
	// evictor.
	sh.mu.RLock()
	e, ok := sh.entries[key]
	sh.mu.RUnlock()
	if ok {
		r.touch(e)
		r.metrics.buildCacheHits.Inc()
		return e, true, nil
	}

	sh.mu.Lock()
	if e, ok := sh.entries[key]; ok {
		sh.mu.Unlock()
		r.touch(e)
		r.metrics.buildCacheHits.Inc()
		return e, true, nil
	}
	if c, ok := sh.inflight[key]; ok {
		sh.mu.Unlock()
		r.metrics.inflightWaits.Inc()
		// the open phase is closed by whatever the caller does next
		// (exec, encode), which is exactly the wait's extent
		obs.TraceFromContext(ctx).Phase("build_wait")
		<-c.done
		if c.err == nil {
			r.touch(c.val)
		}
		return c.val, true, c.err
	}
	c := &flight[*Entry]{done: make(chan struct{})}
	sh.inflight[key] = c
	sh.mu.Unlock()
	r.metrics.buildCacheMisses.Inc()

	// Cleanup runs deferred so a panicking build still releases its
	// waiters and un-wedges the key (the panic is converted to the
	// call's error rather than left to kill a waiter-visible state).
	defer func() {
		if p := recover(); p != nil {
			c.val, c.err = nil, fmt.Errorf("serve: building %s: panic: %v", key, p)
			entry, err = nil, c.err
		}
		sh.mu.Lock()
		delete(sh.inflight, key)
		if c.err == nil {
			sh.entries[key] = c.val
			r.residentBytes.Add(c.val.size)
		}
		sh.mu.Unlock()
		close(c.done)
		if c.err == nil {
			r.maybeEvict()
		}
	}()

	// The expensive part runs outside the lock: the shard stays
	// readable (and other keys buildable) while CVOPT allocates and
	// draws. A spilled sample from a previous process warms the key
	// without rebuilding; fresh builds spill for the next restart.
	if e, ok := r.loadSpilled(key, tbl); ok {
		c.val = e
		return c.val, true, nil
	}
	c.val, c.err = r.buildEntry(ctx, key, tbl, req)
	if c.err == nil {
		r.saveSpilled(c.val, tbl)
	}
	return c.val, false, c.err
}

// buildEntry runs the sampler: one statistics pass (core.NewPlan), for
// autoscaled requests the budget search over that same plan, then the
// draw at the chosen budget. Failed builds are not cached, so a later
// corrected request retries.
func (r *Registry) buildEntry(ctx context.Context, key string, tbl *table.Table, req BuildRequest) (*Entry, error) {
	seed := req.Seed
	if seed == 0 {
		seed = int64(hash64(key) >> 1)
	}
	r.metrics.builds.Inc()
	fail := func(err error) (*Entry, error) { return nil, fmt.Errorf("serve: building %s: %w", key, err) }
	tr := obs.TraceFromContext(ctx)
	phase := "draw"
	if req.TargetCV > 0 {
		phase = "autoscale"
	}
	tr.Phase(phase)
	e := &Entry{Key: key, Table: tbl.Name, Budget: req.Budget, Queries: req.Queries, Opts: req.Opts, BuiltAt: time.Now()}
	plan, err := core.NewPlan(tbl, req.Queries)
	if err != nil {
		return fail(err)
	}
	if req.TargetCV > 0 {
		res, err := plan.Autoscale(core.AutoscaleParams{
			TargetCV:  req.TargetCV,
			MaxBudget: req.MaxBudget,
			Opts:      req.Opts,
		})
		if err != nil {
			return fail(err)
		}
		r.metrics.autoscaleProbes.Add(int64(res.Evaluations))
		e.Budget = res.Budget
		e.TargetCV, e.AchievedCV, e.TargetMet = req.TargetCV, res.AchievedCV, res.Met
		tr.Phase("draw")
	}
	ss, _, err := plan.Sample(e.Budget, req.Opts, rand.New(rand.NewSource(seed)))
	if err != nil {
		return fail(err)
	}
	rows, weights := core.RowWeights(ss)
	e.Sample = &samplers.RowSample{Rows: rows, Weights: weights}
	e.BuildDuration = time.Since(e.BuiltAt)
	r.metrics.buildDuration.Observe(e.BuildDuration)
	return r.finishEntry(e, tbl), nil
}

// finishEntry fills in what a built, a spill-loaded and a streamed
// entry all derive the same way from the workload and the table the
// sample's row ids index: coverage set, population, size, LRU stamp.
func (r *Registry) finishEntry(e *Entry, tbl *table.Table) *Entry {
	e.attrs = make(map[string]bool)
	for _, q := range e.Queries {
		for _, a := range q.GroupBy {
			e.attrs[a] = true
		}
	}
	e.popRows = tbl.NumRows()
	e.size = entrySizeBytes(e.Sample, tbl.Schema())
	e.lastUsed.Store(r.useClock.Add(1))
	return e
}

// Builds returns how many sampler builds have actually executed —
// deduplicated or cached requests do not count. Exposed for ops
// (/healthz) and for the dedup tests.
func (r *Registry) Builds() int64 { return r.metrics.builds.Value() }

// Refreshes returns how many streaming publications (initial
// registrations included) have been installed.
func (r *Registry) Refreshes() int64 { return r.refreshes.Load() }

// TotalHits sums the hit counters of all resident entries — the
// aggregate sample-reuse signal /healthz reports.
func (r *Registry) TotalHits() int64 {
	var total int64
	for _, sh := range r.shards {
		sh.mu.RLock()
		for _, e := range sh.entries {
			total += e.Hits.Load()
		}
		sh.mu.RUnlock()
	}
	return total
}

// Counts returns the number of registered tables and built samples
// without materializing snapshots (the /healthz hot path).
func (r *Registry) Counts() (tables, samples int) {
	for _, sh := range r.shards {
		sh.mu.RLock()
		tables += len(sh.tables)
		samples += len(sh.entries)
		sh.mu.RUnlock()
	}
	return tables, samples
}

// Entries returns a sorted snapshot of all built samples.
func (r *Registry) Entries() []*Entry {
	var out []*Entry
	for _, sh := range r.shards {
		sh.mu.RLock()
		for _, e := range sh.entries {
			out = append(out, e)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Find selects the best built sample of the named table covering a
// query over the given group-by attributes: among covering entries it
// prefers the tightest stratification (fewest attributes beyond the
// query's), then *live* entries over static ones (a streaming entry
// refreshes with the table, while a static sample of a now-streaming
// table is frozen at its build-time snapshot and would silently hide
// appended rows forever), then the largest budget (most rows, lowest
// error), then key order for determinism. A hit is recorded on the
// selected entry — the reuse count /v1/samples and /healthz surface and
// eviction orders by — and its LRU clock is stamped. Only the table's
// own shard is touched, so Finds on different tables never contend.
func (r *Registry) Find(tableName string, groupBy []string) (*Entry, bool) {
	return r.findCovering(tableName, groupBy, func(a, b *Entry) bool {
		ea, eb := len(a.attrs)-len(groupBy), len(b.attrs)-len(groupBy)
		if ea != eb {
			return ea < eb
		}
		if live, bLive := a.Generation > 0, b.Generation > 0; live != bLive {
			return live
		}
		if a.Budget != b.Budget {
			return a.Budget > b.Budget
		}
		return a.Key < b.Key
	})
}

// findCheapest selects the *smallest* resident covering sample of the
// named table — the load-shedding answer source: under pressure the
// question is not "which sample answers best" (Find's ordering) but
// "which resident sample answers cheapest", and execution cost scales
// with sample rows. Ties break by key for determinism.
func (r *Registry) findCheapest(tableName string, groupBy []string) (*Entry, bool) {
	return r.findCovering(tableName, groupBy, func(a, b *Entry) bool {
		if a.Sample.Len() != b.Sample.Len() {
			return a.Sample.Len() < b.Sample.Len()
		}
		return a.Key < b.Key
	})
}

// findCovering returns the best — per better(a, b): a is a better
// answer source than b — of the table's entries whose stratification
// covers groupBy, and records the hit or miss.
func (r *Registry) findCovering(tableName string, groupBy []string, better func(a, b *Entry) bool) (*Entry, bool) {
	sh := r.shardFor(tableName)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	var best *Entry
	for _, e := range sh.entries {
		if !strings.EqualFold(e.Table, tableName) || !e.Covers(groupBy) {
			continue
		}
		if best == nil || better(e, best) {
			best = e
		}
	}
	if best != nil {
		r.touch(best)
		r.metrics.findHits.Inc()
	} else {
		r.metrics.findMisses.Inc()
	}
	return best, best != nil
}

// touch records one reuse of e — a Find selection or a cached Build
// return — for the eviction signals: the hit counter and the LRU
// clock.
func (r *Registry) touch(e *Entry) {
	e.Hits.Add(1)
	e.lastUsed.Store(r.useClock.Add(1))
}

// QueryMode selects how Query answers.
type QueryMode int

// Query modes: auto prefers a covering sample and falls back to exact
// execution; the other two force one path.
const (
	ModeAuto QueryMode = iota
	ModeSample
	ModeExact
)

// QueryOptions tunes one Query call.
type QueryOptions struct {
	Mode QueryMode
	// Compare additionally runs the exact query so the caller can report
	// true per-group errors next to the estimates. Ignored when the
	// answer is already exact.
	Compare bool
	// TargetCV, when positive, answers from an *autoscaled* sample: the
	// query's own group-by and aggregated columns become the workload of
	// a TargetCV build (cached and singleflighted like any build, so
	// concurrent queries for the same table, workload and target share
	// one search), and the answer carries that entry's AchievedCV and
	// chosen Budget. Incompatible with ModeExact.
	TargetCV float64
	// MaxBudget caps the autoscale search (0 = table rows); only
	// meaningful with TargetCV.
	MaxBudget int
	// Degrade, with TargetCV, answers from the cheapest already-resident
	// covering sample instead of running the autoscale search — the
	// load-shedding path, the autoscaler run in reverse. The answer
	// reports QueryAnswer.Degraded = true and the answering entry's own
	// guarantee (if any); with no resident covering sample the query
	// fails with ErrNoResidentSample, which the HTTP layer maps to 429.
	Degrade bool
}

// ErrNoResidentSample reports a degraded (load-shed) query with no
// already-resident covering sample to fall back on — nothing cheap
// exists, so the request cannot be served under pressure at all.
var ErrNoResidentSample = errors.New("no resident sample to degrade to")

// QueryAnswer is the outcome of one Query.
type QueryAnswer struct {
	// Table is the resolved table name.
	Table string
	// Result is the answer (approximate when Entry != nil).
	Result *exec.Result
	// Entry is the sample that answered, nil for exact answers.
	Entry *Entry
	// ExactResult is the ground truth, present only when
	// QueryOptions.Compare was set and the answer is approximate.
	ExactResult *exec.Result
	// Plan is the compiled physical plan that computed Result (and
	// ExactResult).
	Plan *plan.Plan
	// Degraded reports a load-shed answer: the query asked for a target
	// CV but was answered from the cheapest resident sample instead
	// (QueryOptions.Degrade). Entry is that sample.
	Degraded bool
}

// Query parses sql, resolves its FROM table against the registry and
// answers it — from the best covering sample (amortizing the build over
// arbitrarily many queries, the paper's build-once/query-many regime)
// or exactly, per opt.Mode. The read path takes only its table's shard
// read lock, so concurrent Queries proceed in parallel — across tables,
// without even a cache line in common. ctx carries the request's trace
// (obs.TraceFromContext); the find, build and exec phases are timed on
// it.
func (r *Registry) Query(ctx context.Context, sql string, opt QueryOptions) (*QueryAnswer, error) {
	tr := obs.TraceFromContext(ctx)
	tr.Phase("parse")
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if q.From == "" {
		return nil, fmt.Errorf("serve: query must name its table in FROM")
	}
	tbl, ok := r.Table(q.From)
	if !ok {
		// wraps the sentinel so the HTTP layer can map this to
		// table_not_found like every other route's unknown-table case
		return nil, fmt.Errorf("serve: %w: %q", ErrUnknownTable, q.From)
	}
	// canonicalize FROM so the plan-cache key (the normalized SQL) is
	// casing-stable across clients
	q.From = tbl.Name
	ans := &QueryAnswer{Table: tbl.Name}

	// MIN/MAX/VAR/STDDEV have no unbiased weighted estimator: a sample
	// strictly underestimates MAX whenever the extreme row wasn't
	// drawn, and no standard error is reportable. Auto mode therefore
	// answers them exactly; ModeSample still forces the sample (the
	// caller asked, and the null SEs signal the caveat).
	sampleable := true
	exprs := make([]sqlparse.Expr, 0, len(q.Select)+1)
	for _, item := range q.Select {
		exprs = append(exprs, item.Expr)
	}
	if q.Having != nil {
		// HAVING is the only other site the executor accepts new
		// aggregate calls; a sampled MAX there silently drops groups
		exprs = append(exprs, q.Having)
	}
	for _, e := range exprs {
		for _, name := range sqlparse.AggCalls(e) {
			switch name {
			case "MIN", "MAX", "VAR", "STDDEV":
				sampleable = false
			}
		}
	}

	if opt.TargetCV > 0 {
		if opt.Mode == ModeExact {
			return nil, fmt.Errorf("serve: a target CV asks for an autoscaled sample; it cannot be combined with exact mode")
		}
		if !sampleable {
			return nil, fmt.Errorf("serve: no CV guarantee exists for MIN/MAX/VAR/STDDEV; drop target_cv to answer exactly")
		}
		if err := validateTargetCVQuery(q); err != nil {
			return nil, err
		}
		if opt.Degrade {
			// load shedding: the same request the autoscale path would
			// serve, answered from whatever covering sample is cheapest
			// right now. Validation above is identical to the full path,
			// so a query's contract does not loosen under pressure.
			tr.Phase("degrade")
			e, ok := r.findCheapest(tbl.Name, q.GroupBy)
			if !ok {
				return nil, fmt.Errorf("serve: %w: no resident sample of %q covers GROUP BY %s",
					ErrNoResidentSample, tbl.Name, strings.Join(q.GroupBy, ", "))
			}
			ans.Degraded = true
			return r.answerFromEntry(ctx, ans, tbl, e, q, opt)
		}
		e, err := r.buildForQuery(ctx, tbl.Name, q, opt)
		if err != nil {
			return nil, err
		}
		return r.answerFromEntry(ctx, ans, tbl, e, q, opt)
	}

	if opt.Mode == ModeSample || (opt.Mode == ModeAuto && sampleable) {
		tr.Phase("find")
		if e, ok := r.Find(tbl.Name, q.GroupBy); ok {
			return r.answerFromEntry(ctx, ans, tbl, e, q, opt)
		}
		if opt.Mode == ModeSample {
			return nil, fmt.Errorf("serve: no built sample of %q covers GROUP BY %s (register one via Build)",
				tbl.Name, strings.Join(q.GroupBy, ", "))
		}
	}
	tr.Phase("exec")
	if ans.Plan, err = r.planFor(tbl, q); err != nil {
		return nil, err
	}
	if ans.Result, err = ans.Plan.Execute(tbl, nil, nil); err != nil {
		return nil, err
	}
	return ans, nil
}

// answerFromEntry evaluates q over one built sample. Streaming entries
// carry the immutable snapshot their row ids index; evaluating against
// it keeps the answer self-consistent even while newer generations
// publish.
func (r *Registry) answerFromEntry(ctx context.Context, ans *QueryAnswer, tbl *table.Table, e *Entry, q *sqlparse.Query, opt QueryOptions) (*QueryAnswer, error) {
	obs.TraceFromContext(ctx).Phase("exec")
	execTbl := e.execTable(tbl)
	p, err := r.planFor(execTbl, q)
	if err != nil {
		return nil, err
	}
	res, err := p.Execute(execTbl, e.Sample.Rows, e.Sample.Weights)
	if err != nil {
		return nil, err
	}
	ans.Plan, ans.Result, ans.Entry = p, res, e
	if opt.Compare {
		// the baseline is the same plan over the whole table the sample
		// was drawn from
		if ans.ExactResult, err = p.Execute(execTbl, nil, nil); err != nil {
			return nil, err
		}
	}
	return ans, nil
}

// validateTargetCVQuery rejects query shapes no CV guarantee can be
// made for — shared by the full autoscale path and the degraded
// (load-shed) path, so the contract is identical under pressure.
func validateTargetCVQuery(q *sqlparse.Query) error {
	if len(q.GroupBy) == 0 {
		return fmt.Errorf("serve: a target CV needs a GROUP BY to stratify on")
	}
	// A WHERE filter shrinks each group's effective sample by the
	// predicate's selectivity, but the CV prediction sizes strata for
	// the unfiltered table — the reported guarantee would not hold.
	// Honest refusal, like the MIN/MAX rejection above. (HAVING is fine:
	// it filters whole groups after estimation, leaving each reported
	// estimate's CV intact.)
	if q.Where != nil {
		return fmt.Errorf("serve: a target CV cannot be guaranteed under a WHERE filter (the sample is sized for the unfiltered table); drop target_cv or the filter")
	}
	if len(sqlparse.QueryAggColumns(q)) == 0 {
		return fmt.Errorf("serve: a target CV needs at least one aggregated column (COUNT(*) alone carries no measure to bound)")
	}
	return nil
}

// SampleGeneration returns the latest published generation of a
// streaming table (0 for static tables and unknown names) — the
// freshness component of the HTTP layer's query-coalescing key, so a
// refresh between coalescing windows can never serve a stale shared
// answer.
func (r *Registry) SampleGeneration(name string) uint64 {
	st, err := r.streamFor(name)
	if err != nil {
		return 0
	}
	return st.stream.Generation()
}

// buildForQuery turns a submitted query into the workload of an
// autoscaled build — its GROUP BY becomes the stratification, the
// columns inside its aggregate calls become the aggregation columns —
// and returns the (cached, singleflighted) entry built for
// opt.TargetCV. Repeat queries for the same (table, workload, target)
// hit the cache; concurrent first queries share one search and build.
// The caller has already run validateTargetCVQuery.
func (r *Registry) buildForQuery(ctx context.Context, tableName string, q *sqlparse.Query, opt QueryOptions) (*Entry, error) {
	cols := sqlparse.QueryAggColumns(q)
	spec := core.QuerySpec{GroupBy: q.GroupBy}
	for _, c := range cols {
		spec.Aggs = append(spec.Aggs, core.AggColumn{Column: c})
	}
	e, _, err := r.Build(ctx, BuildRequest{
		Table:     tableName,
		Queries:   []core.QuerySpec{spec},
		TargetCV:  opt.TargetCV,
		MaxBudget: opt.MaxBudget,
	})
	return e, err
}
