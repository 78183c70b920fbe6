// White-box shard tests: these reach into the registry's shards to
// prove the property the refactor exists for — work on one table's
// shard is invisible to tables on other shards.
package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/sqlparse"
	"repro/internal/table"
)

// shardTestTable builds a tiny region/amount table.
func shardTestTable(t *testing.T, name string) *table.Table {
	t.Helper()
	tbl := table.New(name, table.Schema{
		{Name: "region", Kind: table.String},
		{Name: "amount", Kind: table.Float},
	})
	regions := []string{"NA", "EU", "APAC"}
	for i := 0; i < 240; i++ {
		if err := tbl.AppendRow(regions[i%3], float64(i%11)); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func shardBuild(name string, budget int, seed int64) BuildRequest {
	return BuildRequest{
		Table: name,
		Queries: []core.QuerySpec{{
			GroupBy: []string{"region"},
			Aggs:    []core.AggColumn{{Column: "amount"}},
		}},
		Budget: budget,
		Seed:   seed,
	}
}

// twoShardNames returns two registered-and-sampled table names that
// hash to different shards of reg.
func twoShardNames(t *testing.T, reg *Registry) (a, b string) {
	t.Helper()
	first := ""
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("t%d", i)
		if first == "" {
			first = name
			continue
		}
		if reg.shardFor(name) != reg.shardFor(first) {
			return first, name
		}
	}
	t.Fatal("could not find two table names on different shards")
	return "", ""
}

// TestShardLookupIsCaseFolded pins the sharding invariant every
// case-insensitive lookup depends on: case variants of a name must land
// on one shard.
func TestShardLookupIsCaseFolded(t *testing.T) {
	reg := NewRegistry()
	cases := [][2]string{{"sales", "SALES"}, {"sales", "sAlEs"}, {"orders_2024", "ORDERS_2024"}}
	for _, c := range cases {
		if reg.shardFor(c[0]) != reg.shardFor(c[1]) {
			t.Fatalf("%q and %q hash to different shards", c[0], c[1])
		}
	}
}

// TestConcurrentRegistrationsAcrossShards would deadlock if
// registration held its own shard's write lock while scanning the
// others for duplicate names (two registrations on different shards
// each waiting for the other's lock); registration must instead
// serialize on the registry's regMu and take shard locks one at a
// time.
func TestConcurrentRegistrationsAcrossShards(t *testing.T) {
	for round := 0; round < 50; round++ {
		reg := NewRegistry(WithShards(2))
		a, b := twoShardNames(t, reg)
		done := make(chan error, 2)
		for _, name := range []string{a, b} {
			go func(name string) {
				done <- reg.RegisterTable(shardTestTable(t, name))
			}(name)
		}
		for i := 0; i < 2; i++ {
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("concurrent registrations on different shards deadlocked")
			}
		}
		reg.Close()
	}
}

// TestCrossShardNoBlocking is the direct statement of the tentpole:
// with one table's shard held under its *write* lock (the worst case —
// an install or publication landing), queries against a table on
// another shard complete immediately, while queries on the locked shard
// provably wait.
func TestCrossShardNoBlocking(t *testing.T) {
	reg := NewRegistry(WithShards(4))
	defer reg.Close()
	a, b := twoShardNames(t, reg)
	for _, name := range []string{a, b} {
		if err := reg.RegisterTable(shardTestTable(t, name)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := reg.Build(context.Background(), shardBuild(name, 60, 1)); err != nil {
			t.Fatal(err)
		}
	}

	sh := reg.shardFor(a)
	sh.mu.Lock() // a writer owns a's shard for the whole check
	unblocked := make(chan error, 1)
	go func() {
		_, err := reg.Query(context.Background(), fmt.Sprintf("SELECT region, AVG(amount) FROM %s GROUP BY region", b),
			QueryOptions{Mode: ModeSample})
		unblocked <- err
	}()
	select {
	case err := <-unblocked:
		if err != nil {
			t.Errorf("query on %s failed: %v", b, err)
		}
	case <-time.After(5 * time.Second):
		t.Errorf("query on %s blocked behind a writer on %s's shard", b, a)
	}

	blocked := make(chan struct{})
	go func() {
		reg.Find(a, []string{"region"})
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Errorf("Find on %s completed although its shard is write-locked", a)
	case <-time.After(50 * time.Millisecond):
		// still blocked: the lock really does cover a's shard
	}
	sh.mu.Unlock()
	select {
	case <-blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("Find on a never completed after unlock")
	}
}

// TestTwoShardHammer runs the regression guard under -race: continuous
// fresh builds (write-lock traffic) on one shard while another shard's
// table is hammered with reads; every read must succeed and keep
// answering from its own table's sample.
func TestTwoShardHammer(t *testing.T) {
	reg := NewRegistry(WithShards(8))
	defer reg.Close()
	a, b := twoShardNames(t, reg)
	for _, name := range []string{a, b} {
		if err := reg.RegisterTable(shardTestTable(t, name)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := reg.Build(context.Background(), shardBuild(name, 60, 1)); err != nil {
			t.Fatal(err)
		}
	}
	sql := fmt.Sprintf("SELECT region, AVG(amount) FROM %s GROUP BY region", b)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) { // builders: distinct seeds force real installs on a's shard
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, _, err := reg.Build(context.Background(), shardBuild(a, 40+i%20, int64(100*w+i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
		go func() { // readers on b's shard
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ans, err := reg.Query(context.Background(), sql, QueryOptions{Mode: ModeSample})
				if err != nil {
					t.Error(err)
					return
				}
				if ans.Entry == nil || ans.Entry.Table != b {
					t.Errorf("answer came from %v, want table %s", ans.Entry, b)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPlanForPanicReleasesKey: a panicking compile (here: a table with
// a nil column, which only a bug could produce) is reported as the
// query's error and leaves neither a cached plan nor a wedged
// singleflight key behind.
func TestPlanForPanicReleasesKey(t *testing.T) {
	reg := NewRegistry(WithShards(1))
	defer reg.Close()
	broken := &table.Table{Name: "t", Columns: []*table.Column{nil}}
	q, err := sqlparse.Parse("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // the second call would hang on a wedged key
		if _, err := reg.planFor(broken, q); err == nil || !strings.Contains(err.Error(), "panic") {
			t.Fatalf("call %d: err = %v, want the panic as an error", i, err)
		}
	}
	sh := reg.shardFor("t")
	if len(sh.plans) != 0 || len(sh.planFlight) != 0 {
		t.Fatalf("plans = %d, in flight = %d, want both empty", len(sh.plans), len(sh.planFlight))
	}
}

// TestSingleflightWaiters drives the waiter side of both singleflights
// deterministically — the racing tests reach it only when the scheduler
// cooperates — by parking an already-finished call under the key. A
// plan waiter gets the leader's error, the leader's plan, or, when the
// leader compiled for a same-named table of another schema, an
// uncached plan of its own; a build waiter gets the leader's entry or
// error.
func TestSingleflightWaiters(t *testing.T) {
	reg := NewRegistry(WithShards(1))
	defer reg.Close()
	tbl := shardTestTable(t, "t")
	if err := reg.RegisterTable(tbl); err != nil {
		t.Fatal(err)
	}
	sh := reg.shardFor("t")
	done := make(chan struct{})
	close(done)
	boom := errors.New("boom")

	q, err := sqlparse.Parse("SELECT region, AVG(amount) FROM t GROUP BY region")
	if err != nil {
		t.Fatal(err)
	}
	mine, err := plan.Compile(tbl, q)
	if err != nil {
		t.Fatal(err)
	}
	swapped := table.New("t", table.Schema{
		{Name: "amount", Kind: table.Float},
		{Name: "region", Kind: table.String},
	})
	foreign, err := plan.Compile(swapped, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, leader := range []*flight[*plan.Plan]{
		{done: done, err: boom},
		{done: done, val: mine},
		{done: done, val: foreign},
	} {
		sh.mu.Lock()
		sh.planFlight[q.String()] = leader
		sh.mu.Unlock()
		p, err := reg.planFor(tbl, q)
		switch {
		case leader.err != nil:
			if !errors.Is(err, boom) {
				t.Fatalf("waiter on a failed compile: err = %v, want the leader's", err)
			}
		case leader.val == mine:
			if err != nil || p != mine {
				t.Fatalf("waiter got (%p, %v), want the leader's plan", p, err)
			}
		default:
			if err != nil || p == foreign || !p.Binds(tbl) {
				t.Fatalf("waiter on a foreign-schema leader got (%p, %v), want its own binding plan", p, err)
			}
		}
	}
	if len(sh.plans) != 0 {
		t.Fatalf("waiters cached %d plans, want 0 (only leaders install)", len(sh.plans))
	}

	req := shardBuild("t", 30, 1)
	entry := &Entry{Key: req.key(), Table: "t"}
	for _, leader := range []*flight[*Entry]{
		{done: done, err: boom},
		{done: done, val: entry},
	} {
		sh.mu.Lock()
		sh.inflight[req.key()] = leader
		sh.mu.Unlock()
		e, cached, err := reg.Build(context.Background(), req)
		if e != leader.val || !cached || !errors.Is(err, leader.err) {
			t.Fatalf("build waiter got (%p, %v, %v), want the leader's (%p, true, %v)", e, cached, err, leader.val, leader.err)
		}
	}
}
