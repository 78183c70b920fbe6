package serve

// The plan cache. Compiled physical plans (internal/plan) live beside
// the samples they serve: per shard, keyed by normalized SQL
// (sqlparse.Query.String() after canonicalizing FROM), compiled
// exactly once per key no matter how many queries race (the same
// singleflight discipline as sample builds), and evicted LRU beyond a
// per-shard cap. Plans are immutable, so eviction can never tear an
// in-flight execution — an executing goroutine keeps its own
// reference; the cache only forgets the key. Failed compilations are
// not cached: the error goes to the compiling query and its waiters.

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/plan"
	"repro/internal/sqlparse"
	"repro/internal/table"
)

// DefaultMaxPlans is the registry-wide compiled-plan cap unless
// WithMaxPlans overrides it. Plans are small (closures and slot
// indexes, no row data), so the default is generous; the cap exists to
// bound adversarial workloads that never repeat a query.
const DefaultMaxPlans = 4096

// WithMaxPlans bounds the number of resident compiled plans across the
// registry (minimum 1 per shard); least-recently-used plans are
// evicted first. n <= 0 keeps DefaultMaxPlans.
func WithMaxPlans(n int) Option {
	return func(r *Registry) {
		if n > 0 {
			r.maxPlans = n
		}
	}
}

// planEntry is one cached compiled plan.
type planEntry struct {
	plan     *plan.Plan
	lastUsed atomic.Int64
}

// planShardCap is the per-shard resident-plan cap derived from the
// registry-wide bound.
func (r *Registry) planShardCap() int {
	cap := r.maxPlans / len(r.shards)
	if cap < 1 {
		cap = 1
	}
	return cap
}

// planFor returns the compiled plan for q against tbl. q.From must
// already be canonicalized to tbl.Name (Query does this), so the
// normalized SQL is casing-stable and lands on the table's own shard.
// A cached plan that no longer binds tbl — the name now resolves to a
// table of another schema — is dropped and compiled afresh against
// tbl. A compile error is the query's error, shared with every waiter
// on the same key.
func (r *Registry) planFor(tbl *table.Table, q *sqlparse.Query) (*plan.Plan, error) {
	key := q.String()
	sh := r.shardFor(tbl.Name)

	sh.mu.RLock()
	pe, ok := sh.plans[key]
	sh.mu.RUnlock()
	if ok && pe.plan.Binds(tbl) {
		r.touchPlan(pe)
		r.metrics.planCacheHits.Inc()
		return pe.plan, nil
	}

	sh.mu.Lock()
	if pe, ok := sh.plans[key]; ok {
		if pe.plan.Binds(tbl) {
			sh.mu.Unlock()
			r.touchPlan(pe)
			r.metrics.planCacheHits.Inc()
			return pe.plan, nil
		}
		delete(sh.plans, key)
	}
	if c, ok := sh.planFlight[key]; ok {
		sh.mu.Unlock()
		<-c.done
		if c.err != nil {
			return nil, c.err
		}
		if !c.val.Binds(tbl) {
			// the leader compiled for the other side of a table
			// replacement; this query compiles its own, uncached
			r.planCompiles.Add(1)
			return plan.Compile(tbl, q)
		}
		r.metrics.planCacheHits.Inc()
		return c.val, nil
	}
	c := &flight[*plan.Plan]{done: make(chan struct{})}
	sh.planFlight[key] = c
	sh.mu.Unlock()
	r.metrics.planCacheMisses.Inc()

	// Compile outside the lock; a panicking compile becomes the call's
	// error instead of wedging the key.
	func() {
		defer func() {
			if p := recover(); p != nil {
				c.val, c.err = nil, fmt.Errorf("serve: compiling %q: panic: %v", key, p)
			}
		}()
		c.val, c.err = plan.Compile(tbl, q)
	}()
	r.planCompiles.Add(1)

	// a failed compile installs nothing, so the cap loop evicts nothing
	var evicted int64
	sh.mu.Lock()
	delete(sh.planFlight, key)
	if c.err == nil {
		pe = &planEntry{plan: c.val}
		pe.lastUsed.Store(r.useClock.Add(1))
		sh.plans[key] = pe
	}
	for limit := r.planShardCap(); len(sh.plans) > limit; {
		victim := ""
		oldest := int64(math.MaxInt64)
		for k, e := range sh.plans {
			if k == key {
				continue // never evict the entry just installed
			}
			if lu := e.lastUsed.Load(); lu < oldest || (lu == oldest && (victim == "" || k < victim)) {
				oldest, victim = lu, k
			}
		}
		if victim == "" {
			break
		}
		delete(sh.plans, victim)
		evicted++
	}
	sh.mu.Unlock()
	close(c.done)
	r.metrics.planEvictions.Add(evicted)
	return c.val, c.err
}

// touchPlan stamps the plan's LRU clock.
func (r *Registry) touchPlan(pe *planEntry) {
	pe.lastUsed.Store(r.useClock.Add(1))
}

// PlanCompiles returns how many plan compilations have actually run —
// cache hits and singleflight waiters do not count. Ops surface and
// the dedup tests' observable.
func (r *Registry) PlanCompiles() int64 { return r.planCompiles.Load() }

// PlanEvictions returns how many cached plans have been evicted.
func (r *Registry) PlanEvictions() int64 { return r.metrics.planEvictions.Value() }

// PlanCount returns the number of resident cached plans, the
// repro_plans gauge.
func (r *Registry) PlanCount() int {
	var n int
	for _, sh := range r.shards {
		sh.mu.RLock()
		n += len(sh.plans)
		sh.mu.RUnlock()
	}
	return n
}
