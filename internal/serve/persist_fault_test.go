package serve_test

// Persistence fault paths: disabled persistence as a no-op, attach
// failures rolling the registration back, corrupt checkpoints surfacing
// as fatal recovery errors, leftover junk (checkpoint-less table dirs,
// unreadable spill files) being cleaned up rather than trusted, and
// recovery of a stream that ran with the derived default seed from a
// mid-life checkpoint, and a publication whose refresh record cannot
// reach the WAL being counted as a persistence fault.

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/serve"
	"repro/internal/wal"
)

func TestPersistenceDisabledWithoutDir(t *testing.T) {
	reg := serve.NewRegistry(serve.WithPersistence(serve.PersistOptions{}))
	t.Cleanup(reg.Close)
	if _, ok := reg.PersistenceStatus(); ok {
		t.Fatal("an empty Dir must leave persistence off")
	}
	rep, err := reg.Recover(context.Background())
	if err != nil || rep.Tables != 0 {
		t.Fatalf("Recover without persistence = %+v, %v; want a zero report", rep, err)
	}
}

func TestPersistenceAttachFailureRollsBack(t *testing.T) {
	// a regular file where the tables/ directory belongs makes
	// checkpoint-0 unwritable, so the registration must fail whole
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "tables"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry(serve.WithPersistence(persistOpts(dir)))
	t.Cleanup(reg.Close)
	if err := reg.RegisterStreamingTable(salesTable(t), persistStreamCfg(300)); err == nil {
		t.Fatal("registering a streaming table with an unwritable data dir must fail")
	}
	if _, ok := reg.StreamStatus("sales"); ok {
		t.Fatal("the failed registration left a live stream behind")
	}
}

func TestRecoverFailsOnCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	regA := serve.NewRegistry(serve.WithPersistence(persistOpts(dir)))
	if err := regA.RegisterStreamingTable(salesTable(t), persistStreamCfg(300)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(regA.Close) // abandoned, not closed: crash simulation
	cp := filepath.Join(dir, "tables", "sales", "checkpoint")
	if err := os.WriteFile(cp, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	regB := serve.NewRegistry(serve.WithPersistence(persistOpts(dir)))
	t.Cleanup(regB.Close)
	if _, err := regB.Recover(context.Background()); err == nil {
		t.Fatal("a corrupt checkpoint is not a torn tail; Recover must fail loudly")
	}
}

func TestRecoverCleansUpJunk(t *testing.T) {
	// a table dir without a checkpoint (a registration that died before
	// checkpoint-0 landed) and an unreadable spill file both disappear
	dir := t.TempDir()
	ghost := filepath.Join(dir, "tables", "ghost")
	if err := os.MkdirAll(ghost, 0o755); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "samples", "deadbeefdeadbeef.smp")
	if err := os.MkdirAll(filepath.Dir(bad), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, []byte("short"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry(serve.WithPersistence(persistOpts(dir)))
	t.Cleanup(reg.Close)
	rep, err := reg.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tables != 0 || rep.SpilledSamples != 0 {
		t.Fatalf("recovery report %+v, want nothing recovered", rep)
	}
	if _, err := os.Stat(ghost); !os.IsNotExist(err) {
		t.Fatal("the checkpoint-less table dir survived recovery")
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Fatal("the unreadable spill file survived recovery")
	}
	ps, ok := reg.PersistenceStatus()
	if !ok || ps.Errors == 0 {
		t.Fatalf("status %+v, want the bad spill counted as an error", ps)
	}
}

func TestRecoverConflictsWithLiveStream(t *testing.T) {
	dir := t.TempDir()
	regA := serve.NewRegistry(serve.WithPersistence(persistOpts(dir)))
	if err := regA.RegisterStreamingTable(salesTable(t), persistStreamCfg(300)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(regA.Close)

	regB := serve.NewRegistry(serve.WithPersistence(persistOpts(filepath.Join(dir)))) // same data dir
	t.Cleanup(regB.Close)
	// the operator registered a live stream for the same table before
	// calling Recover: recovery cannot silently replace it
	if err := regB.RegisterStreamingTable(salesTable(t), streamCfg(300)); err != nil {
		t.Fatal(err)
	}
	if _, err := regB.Recover(context.Background()); err == nil {
		t.Fatal("recovering over an already-streaming table must fail")
	}
}

// TestRecoverDefaultSeedMidlifeCheckpoint drives a default-seed stream
// (Seed 0, derived from the table name) past the checkpoint threshold,
// crashes it, and recovers from the mid-life checkpoint: the generation
// and exact row counts must carry over even though the sampler restarts
// on a remixed seed.
func TestRecoverDefaultSeedMidlifeCheckpoint(t *testing.T) {
	dir := t.TempDir()
	opts := persistOpts(dir)
	opts.CheckpointBytes = 16 << 10
	cfg := persistStreamCfg(300)
	cfg.Seed = 0

	regA := serve.NewRegistry(serve.WithPersistence(opts))
	if err := regA.RegisterStreamingTable(salesTable(t), cfg); err != nil {
		t.Fatal(err)
	}
	rows := 3740
	for i := 0; i < 20; i++ {
		if _, err := regA.Append("sales", streamRows(rows, 200)); err != nil {
			t.Fatal(err)
		}
		rows += 200
		if _, err := regA.Refresh("sales"); err != nil {
			t.Fatal(err)
		}
	}
	ps, _ := regA.PersistenceStatus()
	if ps.Checkpoints == 0 {
		t.Fatalf("status %+v, want a mid-life checkpoint to recover from", ps)
	}
	stA, _ := regA.StreamStatus("sales")
	t.Cleanup(regA.Close) // crash: abandoned without Close

	regB := serve.NewRegistry(serve.WithPersistence(persistOpts(dir)))
	t.Cleanup(regB.Close)
	rep, err := regB.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tables != 1 {
		t.Fatalf("recovery report %+v, want the table back", rep)
	}
	stB, ok := regB.StreamStatus("sales")
	if !ok || stB.Generation != stA.Generation || stB.Rows != stA.Rows {
		t.Fatalf("recovered status %+v, want generation %d rows %d", stB, stA.Generation, stA.Rows)
	}
	if got := exactCount(t, regB); got != float64(rows) {
		t.Fatalf("exact COUNT(*) after recovery = %g, want %d", got, rows)
	}
	// the recovered stream keeps working: another append + refresh
	if _, err := regB.Append("sales", streamRows(rows, 50)); err != nil {
		t.Fatal(err)
	}
	if _, err := regB.Refresh("sales"); err != nil {
		t.Fatal(err)
	}
	if st, _ := regB.StreamStatus("sales"); st.Generation != stB.Generation+1 {
		t.Fatalf("post-recovery refresh generation %d, want %d", st.Generation, stB.Generation+1)
	}
}

// TestRecoverFailsOnUnknownWalRecord: a record type the replayer does
// not know means the log was written by a newer (or corrupted) daemon;
// replay must stop with an error instead of skipping records.
func TestRecoverFailsOnUnknownWalRecord(t *testing.T) {
	dir := t.TempDir()
	regA := serve.NewRegistry(serve.WithPersistence(persistOpts(dir)))
	if err := regA.RegisterStreamingTable(salesTable(t), persistStreamCfg(300)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(regA.Close)
	log, err := wal.Open(filepath.Join(dir, "tables", "sales", "wal"), wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(77, []byte("future")); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	regB := serve.NewRegistry(serve.WithPersistence(persistOpts(dir)))
	t.Cleanup(regB.Close)
	if _, err := regB.Recover(context.Background()); err == nil {
		t.Fatal("an unknown WAL record type must fail recovery")
	}
}

// TestRecoverFailsOnGenerationMismatch: a logged publication whose
// generation the replay cannot reproduce means replay diverged from the
// original run — silent acceptance would serve a different sample than
// the one the crashed daemon acknowledged.
func TestRecoverFailsOnGenerationMismatch(t *testing.T) {
	dir := t.TempDir()
	regA := serve.NewRegistry(serve.WithPersistence(persistOpts(dir)))
	if err := regA.RegisterStreamingTable(salesTable(t), persistStreamCfg(300)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(regA.Close)
	log, err := wal.Open(filepath.Join(dir, "tables", "sales", "wal"), wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(wal.TypeRefresh, wal.EncodeRefresh(999)); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	regB := serve.NewRegistry(serve.WithPersistence(persistOpts(dir)))
	t.Cleanup(regB.Close)
	if _, err := regB.Recover(context.Background()); err == nil {
		t.Fatal("a generation the replay cannot reproduce must fail recovery")
	}
}

// TestSpillSaveFailureIsNonFatal: a spill failure costs a rebuild after
// restart, never the build itself.
func TestSpillSaveFailureIsNonFatal(t *testing.T) {
	dir := t.TempDir()
	// a regular file where samples/ belongs makes every spill write fail
	if err := os.WriteFile(filepath.Join(dir, "samples"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry(serve.WithPersistence(persistOpts(dir)))
	t.Cleanup(reg.Close)
	if err := reg.RegisterTable(salesTable(t)); err != nil {
		t.Fatal(err)
	}
	if _, cached, err := reg.Build(context.Background(), buildReq(200)); err != nil || cached {
		t.Fatalf("build must survive a failed spill: cached=%v err=%v", cached, err)
	}
	ps, _ := reg.PersistenceStatus()
	if ps.SpillSaves != 0 || ps.Errors == 0 {
		t.Fatalf("status %+v, want no spill saves and the failure counted", ps)
	}
}

// TestVanishedSpillFallsBackToRebuild: a spill indexed at boot but gone
// by the time Build wants it (operator cleanup, disk eviction) must
// rebuild instead of failing.
func TestVanishedSpillFallsBackToRebuild(t *testing.T) {
	dir := t.TempDir()
	regA := serve.NewRegistry(serve.WithPersistence(persistOpts(dir)))
	if err := regA.RegisterTable(salesTable(t)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := regA.Build(context.Background(), buildReq(200)); err != nil {
		t.Fatal(err)
	}
	regA.Close()

	regB := serve.NewRegistry(serve.WithPersistence(persistOpts(dir)))
	t.Cleanup(regB.Close)
	if err := regB.RegisterTable(salesTable(t)); err != nil {
		t.Fatal(err)
	}
	rep, err := regB.Recover(context.Background())
	if err != nil || rep.SpilledSamples != 1 {
		t.Fatalf("recovery %+v err=%v, want the spill indexed", rep, err)
	}
	smps, _ := filepath.Glob(filepath.Join(dir, "samples", "*.smp"))
	for _, s := range smps {
		if err := os.Remove(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, cached, err := regB.Build(context.Background(), buildReq(200)); err != nil || cached {
		t.Fatalf("a vanished spill must rebuild: cached=%v err=%v", cached, err)
	}
}

// TestUnloggedPublicationIsCounted: a publication whose refresh record
// fails to reach the attached WAL still serves (the rows are in memory),
// but a replay will not re-finalize there and no checkpoint can be cut
// at it — the fault must show on the one persistence error counter,
// /healthz and /metrics alike. The log is made to fail on exactly that
// append: with the WAL directory gone the open segment still takes
// writes through its handle, a batch larger than a whole segment lands
// in the still-empty active segment without rotating, and the refresh
// record behind it must rotate and cannot.
func TestUnloggedPublicationIsCounted(t *testing.T) {
	dir := t.TempDir()
	opts := persistOpts(dir)
	opts.SegmentBytes = 4 << 10
	reg := serve.NewRegistry(serve.WithPersistence(opts))
	t.Cleanup(reg.Close)
	if err := reg.RegisterStreamingTable(salesTable(t), persistStreamCfg(300)); err != nil {
		t.Fatal(err)
	}
	// nothing pending: publishes nothing, but commits — which flushes the
	// directory entry of the first segment while the directory exists
	if _, err := reg.Refresh("sales"); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(dir, "tables", "sales", "wal")); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Append("sales", streamRows(3740, 400)); err != nil {
		t.Fatalf("the batch fits the open segment's handle and must be accepted: %v", err)
	}
	e, err := reg.Refresh("sales")
	if err != nil || e.Generation != 2 {
		t.Fatalf("the publication must serve despite the WAL fault: entry=%+v err=%v", e, err)
	}
	ps, _ := reg.PersistenceStatus()
	var b strings.Builder
	reg.Obs().Render(&b)
	if got := metricValue(b.String(), serve.MetricWalErrors); ps.Errors != 1 || got != 1 {
		t.Fatalf("persistence errors: healthz %d, %s %g; want the one lost refresh record on both",
			ps.Errors, serve.MetricWalErrors, got)
	}
}

// TestCheckpointWaitsForPublication: WAL growth alone does not cut a
// checkpoint — only a publication names a consistent prefix to cover,
// so append-only load (no refresh) must leave the checkpoint count at
// zero no matter how large the log grows.
func TestCheckpointWaitsForPublication(t *testing.T) {
	dir := t.TempDir()
	opts := persistOpts(dir)
	opts.CheckpointBytes = 4 << 10
	reg := serve.NewRegistry(serve.WithPersistence(opts))
	t.Cleanup(reg.Close)
	if err := reg.RegisterStreamingTable(salesTable(t), persistStreamCfg(300)); err != nil {
		t.Fatal(err)
	}
	rows := 3740
	for i := 0; i < 10; i++ {
		if _, err := reg.Append("sales", streamRows(rows, 200)); err != nil {
			t.Fatal(err)
		}
		rows += 200
	}
	ps, _ := reg.PersistenceStatus()
	if ps.WalBytes <= opts.CheckpointBytes {
		t.Fatalf("wal bytes %d did not outgrow the %d threshold; the test is too small", ps.WalBytes, opts.CheckpointBytes)
	}
	if ps.Checkpoints != 0 {
		t.Fatalf("%d checkpoints cut without a new publication, want 0", ps.Checkpoints)
	}
}

// TestPersistOptionsSegmentClamp pins the segment sizing defaults: a
// huge checkpoint threshold still rotates segments at 1 MiB so
// truncation has segments to drop.
func TestPersistOptionsSegmentClamp(t *testing.T) {
	dir := t.TempDir()
	opts := persistOpts(dir)
	opts.CheckpointBytes = 64 << 20
	reg := serve.NewRegistry(serve.WithPersistence(opts))
	t.Cleanup(reg.Close)
	if err := reg.RegisterStreamingTable(salesTable(t), persistStreamCfg(300)); err != nil {
		t.Fatal(err)
	}
	ps, ok := reg.PersistenceStatus()
	if !ok || ps.Fsync != wal.SyncAlways.String() {
		t.Fatalf("status %+v ok=%v, want persistence on with fsync=always", ps, ok)
	}
}
