package serve_test

// Persistence-layer tests: WAL recovery determinism, the Close flush
// regression (rows appended after the last refresh must survive a clean
// shutdown), sample spill round-trips, eviction unlinking spills, and
// checkpoint truncation bounding WAL disk usage. Crash tests simulate a
// kill by simply abandoning a registry without Close — its WAL stays
// durable because these tests run with SyncAlways.

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/ingest"
	"repro/internal/serve"
	"repro/internal/wal"
)

// persistOpts returns a SyncAlways persistence config rooted at dir.
func persistOpts(dir string) serve.PersistOptions {
	return serve.PersistOptions{Dir: dir, Fsync: wal.SyncAlways}
}

// persistStreamCfg is streamCfg with automatic refreshes disabled (huge
// policy thresholds) so tests control exactly when publications happen.
func persistStreamCfg(budget int) ingest.Config {
	cfg := streamCfg(budget)
	cfg.Policy = ingest.Policy{MaxPending: 1 << 30, Interval: time.Hour}
	return cfg
}

// resultsBitEqual compares two results field by field, aggregate values
// and standard errors by their float bits (NaN-safe).
func resultsBitEqual(t *testing.T, a, b *exec.Result) {
	t.Helper()
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("result row counts differ: %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		ra, rb := a.Rows[i], b.Rows[i]
		if ra.Set != rb.Set || len(ra.Key) != len(rb.Key) || len(ra.Aggs) != len(rb.Aggs) {
			t.Fatalf("row %d shape differs: %+v vs %+v", i, ra, rb)
		}
		for j := range ra.Key {
			if ra.Key[j] != rb.Key[j] {
				t.Fatalf("row %d key differs: %v vs %v", i, ra.Key, rb.Key)
			}
		}
		for j := range ra.Aggs {
			if math.Float64bits(ra.Aggs[j]) != math.Float64bits(rb.Aggs[j]) {
				t.Fatalf("row %d agg %d differs: %v vs %v", i, j, ra.Aggs[j], rb.Aggs[j])
			}
		}
		for j := range ra.SE {
			if math.Float64bits(ra.SE[j]) != math.Float64bits(rb.SE[j]) {
				t.Fatalf("row %d SE %d differs: %v vs %v", i, j, ra.SE[j], rb.SE[j])
			}
		}
	}
}

func exactCount(t *testing.T, reg *serve.Registry) float64 {
	t.Helper()
	ans, err := reg.Query(context.Background(), "SELECT COUNT(*) FROM sales",
		serve.QueryOptions{Mode: serve.ModeExact})
	if err != nil {
		t.Fatal(err)
	}
	return ans.Result.Rows[0].Aggs[0]
}

// TestCloseFlushesPendingRows is the regression test for the shutdown
// data-loss bug: rows appended after the last refresh used to vanish on
// Registry.Close because no final publication covered them. Close now
// flushes a final generation, and the final checkpoint persists it.
func TestCloseFlushesPendingRows(t *testing.T) {
	dir := t.TempDir()
	reg := serve.NewRegistry(serve.WithPersistence(persistOpts(dir)))
	if err := reg.RegisterStreamingTable(salesTable(t), persistStreamCfg(300)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Append("sales", streamRows(3740, 500)); err != nil {
		t.Fatal(err)
	}
	// no explicit Refresh: these 500 rows are pending at shutdown
	reg.Close()

	reg2 := serve.NewRegistry(serve.WithPersistence(persistOpts(dir)))
	t.Cleanup(reg2.Close)
	rep, err := reg2.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tables != 1 {
		t.Fatalf("recovered %d tables, want 1", rep.Tables)
	}
	st, ok := reg2.StreamStatus("sales")
	if !ok || st.Rows != 4240 || st.Pending != 0 {
		t.Fatalf("recovered stream status: %+v ok=%v, want 4240 rows and 0 pending", st, ok)
	}
	if st.Generation != 2 {
		t.Fatalf("recovered generation %d, want 2 (the flush publication)", st.Generation)
	}
	if got := exactCount(t, reg2); got != 4240 {
		t.Fatalf("exact COUNT(*) after recovery = %g, want 4240 (pending rows were dropped)", got)
	}
}

// TestRecoverReplaysWalDeterministically kills a registry without Close
// (the WAL is the only survivor) and asserts the recovered sample is
// bit-identical: replay re-drives appends and publication points in
// their logged interleaving, reproducing the sampler's RNG consumption
// exactly from checkpoint-0.
func TestRecoverReplaysWalDeterministically(t *testing.T) {
	dir := t.TempDir()
	regA := serve.NewRegistry(serve.WithPersistence(persistOpts(dir)))
	if err := regA.RegisterStreamingTable(salesTable(t), persistStreamCfg(300)); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{500, 300} {
		if _, err := regA.Append("sales", streamRows(3740, n)); err != nil {
			t.Fatal(err)
		}
		if _, err := regA.Refresh("sales"); err != nil {
			t.Fatal(err)
		}
	}
	const q = "SELECT region, AVG(amount) FROM sales GROUP BY region"
	ansA, err := regA.Query(context.Background(), q, serve.QueryOptions{Mode: serve.ModeSample})
	if err != nil {
		t.Fatal(err)
	}
	// crash: regA is abandoned, never Closed (cleanup at the very end
	// only reclaims its goroutines; recovery below must not depend on it)
	t.Cleanup(regA.Close)

	regB := serve.NewRegistry(serve.WithPersistence(persistOpts(dir)))
	t.Cleanup(regB.Close)
	rep, err := regB.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tables != 1 || rep.ReplayedRecords != 4 {
		t.Fatalf("recovery report %+v, want 1 table and 4 replayed records (2 batches + 2 refreshes)", rep)
	}
	stA, _ := regA.StreamStatus("sales")
	stB, ok := regB.StreamStatus("sales")
	if !ok || stB.Generation != stA.Generation || stB.Rows != stA.Rows {
		t.Fatalf("recovered status %+v, want generation %d rows %d", stB, stA.Generation, stA.Rows)
	}
	ansB, err := regB.Query(context.Background(), q, serve.QueryOptions{Mode: serve.ModeSample})
	if err != nil {
		t.Fatal(err)
	}
	if ansB.Entry.Generation != ansA.Entry.Generation {
		t.Fatalf("answer generations differ: %d vs %d", ansA.Entry.Generation, ansB.Entry.Generation)
	}
	resultsBitEqual(t, ansA.Result, ansB.Result)
	// the replayed sample itself is bit-identical, not just the answer
	sa, sb := ansA.Entry.Sample, ansB.Entry.Sample
	if len(sa.Rows) != len(sb.Rows) {
		t.Fatalf("sample sizes differ: %d vs %d", len(sa.Rows), len(sb.Rows))
	}
	for i := range sa.Rows {
		if sa.Rows[i] != sb.Rows[i] || math.Float64bits(sa.Weights[i]) != math.Float64bits(sb.Weights[i]) {
			t.Fatalf("sample diverges at %d: (%d,%v) vs (%d,%v)",
				i, sa.Rows[i], sa.Weights[i], sb.Rows[i], sb.Weights[i])
		}
	}
}

// TestRecoverTruncatesTornTail garbles the tail of the active WAL
// segment — the signature of a crash mid-append — and asserts recovery
// drops exactly the torn suffix and replays the rest.
func TestRecoverTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	regA := serve.NewRegistry(serve.WithPersistence(persistOpts(dir)))
	if err := regA.RegisterStreamingTable(salesTable(t), persistStreamCfg(300)); err != nil {
		t.Fatal(err)
	}
	if _, err := regA.Append("sales", streamRows(3740, 400)); err != nil {
		t.Fatal(err)
	}
	if _, err := regA.Refresh("sales"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(regA.Close) // crash-sim: reclaim goroutines only at test end

	// a partial record at the tail of the active segment
	segs, err := filepath.Glob(filepath.Join(dir, "tables", "sales", "wal", "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments found: %v %v", segs, err)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x42, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	regB := serve.NewRegistry(serve.WithPersistence(persistOpts(dir)))
	t.Cleanup(regB.Close)
	rep, err := regB.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TornTails != 1 {
		t.Fatalf("recovery saw %d torn tails, want 1", rep.TornTails)
	}
	if rep.ReplayedRecords != 2 {
		t.Fatalf("replayed %d records, want 2 (the batch and its refresh)", rep.ReplayedRecords)
	}
	if got := exactCount(t, regB); got != 4140 {
		t.Fatalf("exact COUNT(*) after torn-tail recovery = %g, want 4140", got)
	}
}

// TestSpillRoundTripAndInvalidation spills a built sample, reloads it
// bit-identically in a fresh registry, and confirms a changed source
// table invalidates the spill instead of serving row ids into the wrong
// rows.
func TestSpillRoundTripAndInvalidation(t *testing.T) {
	dir := t.TempDir()
	regA := serve.NewRegistry(serve.WithPersistence(persistOpts(dir)))
	if err := regA.RegisterTable(salesTable(t)); err != nil {
		t.Fatal(err)
	}
	e1, cached, err := regA.Build(context.Background(), buildReq(200))
	if err != nil || cached {
		t.Fatalf("first build: cached=%v err=%v", cached, err)
	}
	if ps, ok := regA.PersistenceStatus(); !ok || ps.SpillSaves != 1 || ps.SpilledSamples != 1 {
		t.Fatalf("after build: %+v ok=%v, want 1 spill save", ps, ok)
	}
	regA.Close()

	regB := serve.NewRegistry(serve.WithPersistence(persistOpts(dir)))
	t.Cleanup(regB.Close)
	if err := regB.RegisterTable(salesTable(t)); err != nil {
		t.Fatal(err)
	}
	rep, err := regB.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.SpilledSamples != 1 {
		t.Fatalf("recovery indexed %d spills, want 1", rep.SpilledSamples)
	}
	e2, cached, err := regB.Build(context.Background(), buildReq(200))
	if err != nil || !cached {
		t.Fatalf("post-recovery build should hit the spill: cached=%v err=%v", cached, err)
	}
	if len(e2.Sample.Rows) != len(e1.Sample.Rows) {
		t.Fatalf("spilled sample size %d, want %d", len(e2.Sample.Rows), len(e1.Sample.Rows))
	}
	for i := range e1.Sample.Rows {
		if e1.Sample.Rows[i] != e2.Sample.Rows[i] ||
			math.Float64bits(e1.Sample.Weights[i]) != math.Float64bits(e2.Sample.Weights[i]) {
			t.Fatalf("spilled sample diverges at %d", i)
		}
	}
	if ps, _ := regB.PersistenceStatus(); ps.SpillLoads != 1 {
		t.Fatalf("spill loads = %d, want 1", ps.SpillLoads)
	}
	// the loaded entry answers queries like the original
	ans, err := regB.Query(context.Background(), "SELECT region, AVG(amount) FROM sales GROUP BY region",
		serve.QueryOptions{Mode: serve.ModeSample})
	if err != nil || ans.Entry == nil {
		t.Fatalf("query off spilled sample: entry=%v err=%v", ans.Entry, err)
	}
	regB.Close()

	// same data dir, different table contents: the spill is stale now
	regC := serve.NewRegistry(serve.WithPersistence(persistOpts(dir)))
	t.Cleanup(regC.Close)
	grown := salesTable(t)
	if err := grown.AppendRow("NA", "widget", 99.0); err != nil {
		t.Fatal(err)
	}
	if err := regC.RegisterTable(grown); err != nil {
		t.Fatal(err)
	}
	if _, err := regC.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, cached, err := regC.Build(context.Background(), buildReq(200)); err != nil || cached {
		t.Fatalf("stale spill must rebuild, not load: cached=%v err=%v", cached, err)
	}
}

// TestEntriesAgreeAcrossOrigins: however an entry comes to be — built
// fresh, loaded from another process's spill, or published by a stream
// over the same workload — it derives its coverage set and its size
// charge the same way, and a loaded entry is the built one row for row.
func TestEntriesAgreeAcrossOrigins(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	regA := serve.NewRegistry(serve.WithPersistence(persistOpts(dir)))
	t.Cleanup(regA.Close)
	if err := regA.RegisterTable(salesTable(t)); err != nil {
		t.Fatal(err)
	}
	fresh, cached, err := regA.Build(ctx, buildReq(300))
	if err != nil || cached {
		t.Fatalf("fresh build: cached=%v err=%v", cached, err)
	}

	regB := serve.NewRegistry(serve.WithPersistence(persistOpts(dir)))
	t.Cleanup(regB.Close)
	if err := regB.RegisterTable(salesTable(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := regB.Recover(ctx); err != nil {
		t.Fatal(err)
	}
	loaded, cached, err := regB.Build(ctx, buildReq(300))
	if ps, _ := regB.PersistenceStatus(); err != nil || !cached || ps.SpillLoads != 1 || regB.Builds() != 0 {
		t.Fatalf("second registry should load the spill, not build: cached=%v err=%v loads=%d builds=%d",
			cached, err, ps.SpillLoads, regB.Builds())
	}

	regC := newStreamingRegistry(t, streamCfg(300)) // same workload as buildReq
	streamed, ok := regC.Find("sales", []string{"region"})
	if !ok || streamed.Generation != 1 {
		t.Fatalf("no streaming entry: %+v", streamed)
	}

	const rowWidth = 4 + 8 + 4 + 4 + 8 // row id, weight, two strings, one float
	for _, c := range []struct {
		origin string
		e      *serve.Entry
	}{{"built", fresh}, {"spill-loaded", loaded}, {"streamed", streamed}} {
		if got := c.e.GroupAttrs(); len(got) != 1 || got[0] != "region" {
			t.Errorf("%s: GroupAttrs = %v, want [region]", c.origin, got)
		}
		if !c.e.Covers([]string{"region"}) || !c.e.Covers(nil) || c.e.Covers([]string{"region", "product"}) {
			t.Errorf("%s: coverage is not exactly {region}", c.origin)
		}
		if want := int64(c.e.Sample.Len()) * rowWidth; c.e.Sample.Len() == 0 || c.e.SizeBytes() != want {
			t.Errorf("%s: SizeBytes = %d for %d rows, want %d", c.origin, c.e.SizeBytes(), c.e.Sample.Len(), want)
		}
	}
	if loaded.Sample.Len() != fresh.Sample.Len() || loaded.Budget != fresh.Budget {
		t.Fatalf("loaded sample: %d rows at budget %d, built: %d at %d",
			loaded.Sample.Len(), loaded.Budget, fresh.Sample.Len(), fresh.Budget)
	}
	for i := range fresh.Sample.Rows {
		if loaded.Sample.Rows[i] != fresh.Sample.Rows[i] ||
			math.Float64bits(loaded.Sample.Weights[i]) != math.Float64bits(fresh.Sample.Weights[i]) {
			t.Fatalf("loaded sample diverges from the built one at row %d", i)
		}
	}
}

// TestEvictionUnlinksSpill evicts a sample past the byte budget and
// asserts its spill file goes with it — an evicted key must rebuild on
// the next boot, not resurrect from disk.
func TestEvictionUnlinksSpill(t *testing.T) {
	dir := t.TempDir()
	reg := serve.NewRegistry(serve.WithPersistence(persistOpts(dir)),
		serve.WithMaxSampleBytes(8000)) // one ~5600-byte sample fits, two do not
	t.Cleanup(reg.Close)
	if err := reg.RegisterTable(salesTable(t)); err != nil {
		t.Fatal(err)
	}
	req1 := buildReq(200)
	req2 := buildReq(200)
	req2.Seed = 8 // distinct key, same size
	if _, _, err := reg.Build(context.Background(), req1); err != nil {
		t.Fatal(err)
	}
	if ps, _ := reg.PersistenceStatus(); ps.SpilledSamples != 1 {
		t.Fatalf("spilled samples = %d, want 1", ps.SpilledSamples)
	}
	if _, _, err := reg.Build(context.Background(), req2); err != nil {
		t.Fatal(err)
	}
	if reg.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", reg.Evictions())
	}
	if ps, _ := reg.PersistenceStatus(); ps.SpilledSamples != 1 {
		t.Fatalf("spilled samples after eviction = %d, want 1 (victim's spill unlinked)", ps.SpilledSamples)
	}
	ents, err := os.ReadDir(filepath.Join(dir, "samples"))
	if err != nil || len(ents) != 1 {
		t.Fatalf("spill files on disk = %d (%v), want 1", len(ents), err)
	}
}

// TestCheckpointTruncatesWal drives enough appends through a small
// checkpoint threshold to force checkpoint cuts and segment truncation,
// then recovers from the resulting mid-life checkpoint.
func TestCheckpointTruncatesWal(t *testing.T) {
	dir := t.TempDir()
	po := serve.PersistOptions{
		Dir:             dir,
		Fsync:           wal.SyncAlways,
		CheckpointBytes: 16 << 10,
		SegmentBytes:    4 << 10,
	}
	regA := serve.NewRegistry(serve.WithPersistence(po))
	if err := regA.RegisterStreamingTable(salesTable(t), persistStreamCfg(300)); err != nil {
		t.Fatal(err)
	}
	const rounds, batch = 20, 200
	rows := 3740
	for i := 0; i < rounds; i++ {
		if _, err := regA.Append("sales", streamRows(rows, batch)); err != nil {
			t.Fatal(err)
		}
		rows += batch
		if _, err := regA.Refresh("sales"); err != nil {
			t.Fatal(err)
		}
	}
	ps, ok := regA.PersistenceStatus()
	if !ok {
		t.Fatal("no persistence status")
	}
	if ps.Checkpoints == 0 || ps.TruncatedSegments == 0 {
		t.Fatalf("checkpoints=%d truncated=%d, want both > 0", ps.Checkpoints, ps.TruncatedSegments)
	}
	// truncation bounds WAL disk: far less than the ~20 batches appended
	if ps.WalBytes > 3*po.CheckpointBytes {
		t.Fatalf("wal bytes = %d, want bounded near %d", ps.WalBytes, po.CheckpointBytes)
	}
	t.Cleanup(regA.Close) // crash-sim: reclaim goroutines only at test end

	regB := serve.NewRegistry(serve.WithPersistence(po))
	t.Cleanup(regB.Close)
	rep, err := regB.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tables != 1 {
		t.Fatalf("recovered %d tables, want 1", rep.Tables)
	}
	stA, _ := regA.StreamStatus("sales")
	stB, _ := regB.StreamStatus("sales")
	if stB.Generation != stA.Generation || stB.Rows != stA.Rows {
		t.Fatalf("recovered status %+v, want generation %d rows %d", stB, stA.Generation, stA.Rows)
	}
	if got := exactCount(t, regB); got != float64(rows) {
		t.Fatalf("exact COUNT(*) after mid-life recovery = %g, want %d", got, rows)
	}
}

// TestRecoverReplacesStaticRegistration boots with a static table of
// the same name already registered (a -load CSV) and asserts the
// recovered stream takes over — its checkpointed snapshot is the newer
// authoritative state.
func TestRecoverReplacesStaticRegistration(t *testing.T) {
	dir := t.TempDir()
	regA := serve.NewRegistry(serve.WithPersistence(persistOpts(dir)))
	if err := regA.RegisterStreamingTable(salesTable(t), persistStreamCfg(300)); err != nil {
		t.Fatal(err)
	}
	if _, err := regA.Append("sales", streamRows(3740, 260)); err != nil {
		t.Fatal(err)
	}
	regA.Close()

	regB := serve.NewRegistry(serve.WithPersistence(persistOpts(dir)))
	t.Cleanup(regB.Close)
	if err := regB.RegisterTable(salesTable(t)); err != nil { // the boot-time CSV load
		t.Fatal(err)
	}
	if _, err := regB.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	st, ok := regB.StreamStatus("sales")
	if !ok || st.Rows != 4000 {
		t.Fatalf("stream status %+v ok=%v, want the recovered stream with 4000 rows", st, ok)
	}
	if got := exactCount(t, regB); got != 4000 {
		t.Fatalf("exact COUNT(*) = %g, want 4000 (recovered snapshot, not the static table)", got)
	}
	// the stream stays live: appends keep working
	if _, err := regB.Append("sales", streamRows(4000, 10)); err != nil {
		t.Fatal(err)
	}
}
