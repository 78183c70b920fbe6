package serve

// The persistence layer: WAL-backed durability for streaming tables and
// disk spill for built static samples, both rooted at one data
// directory (cvserve -data-dir).
//
// Layout:
//
//	<dir>/tables/<escaped name>/checkpoint   latest durable cut (wal.Checkpoint)
//	<dir>/tables/<escaped name>/wal/         segmented append log (wal.Log)
//	<dir>/samples/<key hash>.smp             spilled static samples (wal.SampleEntry)
//
// A streaming table's registration writes checkpoint-0 (the seed
// snapshot, generation 1, covering WAL sequence 0) before its log
// attaches, so recovery always starts from a checkpoint: rebuild the
// stream from the snapshot with the persisted config, replay the log's
// surviving suffix — appends and publication points in their original
// interleaving, which reproduces the sampler's RNG consumption exactly
// — then resume the refresh loop. Once the log outgrows
// PersistOptions.CheckpointBytes, a new checkpoint is cut from the
// latest publication and every fully-covered segment is deleted, which
// is what bounds WAL disk usage under continuous append.
//
// Lock discipline: nothing here fsyncs while holding a shard, stream or
// registry lock. WAL appends under the stream mutex are buffered
// writes; the fsync (wal.Log.Commit) runs from Registry.Append/Refresh
// after the stream call returns, and checkpoint writes run under a
// per-table busy flag, not a lock. reprolint's lockdiscipline analyzer
// enforces this (os.File.Sync and wal.Log.Sync/Commit are blocking
// calls in its table).

import (
	"context"
	"encoding/binary"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ingest"
	"repro/internal/samplers"
	"repro/internal/table"
	"repro/internal/wal"
)

// PersistOptions configures the registry's persistence layer.
type PersistOptions struct {
	// Dir is the data directory. Empty disables persistence.
	Dir string
	// Fsync selects the WAL durability policy (cvserve -fsync).
	Fsync wal.SyncPolicy
	// SyncEvery is the background fsync period under SyncInterval
	// (default 100ms).
	SyncEvery time.Duration
	// CheckpointBytes cuts a new checkpoint (and truncates covered WAL
	// segments) once a table's log exceeds this size. Default 4 MiB.
	CheckpointBytes int64
	// SegmentBytes is the WAL segment rotation size. Default
	// CheckpointBytes/4 clamped to [4 KiB, 1 MiB] — several segments per
	// checkpoint interval, so truncation actually has segments to drop.
	SegmentBytes int64
}

func (o PersistOptions) withDefaults() PersistOptions {
	if o.CheckpointBytes <= 0 {
		o.CheckpointBytes = 4 << 20
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = o.CheckpointBytes / 4
		if o.SegmentBytes < 4<<10 {
			o.SegmentBytes = 4 << 10
		}
		if o.SegmentBytes > 1<<20 {
			o.SegmentBytes = 1 << 20
		}
	}
	return o
}

// WithPersistence enables WAL-backed persistence and sample spill under
// o.Dir. Call Registry.Recover after registering static tables to
// reload persisted state.
func WithPersistence(o PersistOptions) Option {
	return func(r *Registry) {
		if o.Dir == "" {
			return
		}
		r.persist = &persister{opts: o.withDefaults(), spills: make(map[string]string)}
	}
}

// tableStore is one streaming table's persistence handle (streamState.store).
type tableStore struct {
	log *wal.Log // nil only while checkpoint-0 is being written
	// ckptBusy admits one checkpoint writer at a time without a lock
	// (checkpointing fsyncs, so it must never run under a mutex).
	ckptBusy atomic.Bool
	ckptSeq  atomic.Uint64 // WAL seq the latest checkpoint covers
	ckptGen  atomic.Uint64 // generation of the latest checkpoint
}

// persister is the registry's persistence state. Events are counted on
// their repro_wal_* handles (srvMetrics); recovered has no series.
type persister struct {
	opts PersistOptions

	mu     sync.Mutex
	spills map[string]string // registry key -> spill file path

	recovered atomic.Int64 // streaming tables rebuilt by Recover

	closeOnce sync.Once
}

func (p *persister) tableDir(name string) string {
	return filepath.Join(p.opts.Dir, "tables", url.PathEscape(name))
}

func (p *persister) samplePath(key string) string {
	return filepath.Join(p.opts.Dir, "samples", fmt.Sprintf("%016x.smp", hash64(key)))
}

func (p *persister) walOptions() wal.Options {
	return wal.Options{
		SegmentBytes: p.opts.SegmentBytes,
		Policy:       p.opts.Fsync,
		SyncEvery:    p.opts.SyncEvery,
	}
}

// toWalConfig mirrors an ingest config into its persisted form. The
// policy is stored resolved (registry defaults already applied), so a
// restart reproduces the policy the stream actually ran with regardless
// of the new process's flags.
func toWalConfig(cfg ingest.Config) wal.StreamConfig {
	return wal.StreamConfig{
		Queries:    cfg.Queries,
		Budget:     cfg.Budget,
		Rate:       cfg.Rate,
		TargetCV:   cfg.TargetCV,
		MaxBudget:  cfg.MaxBudget,
		Capacity:   cfg.Capacity,
		Opts:       cfg.Opts,
		Seed:       cfg.Seed,
		MaxPending: cfg.Policy.MaxPending,
		Interval:   cfg.Policy.Interval,
	}
}

func fromWalConfig(c wal.StreamConfig) ingest.Config {
	return ingest.Config{
		Queries:   c.Queries,
		Budget:    c.Budget,
		Rate:      c.Rate,
		TargetCV:  c.TargetCV,
		MaxBudget: c.MaxBudget,
		Capacity:  c.Capacity,
		Opts:      c.Opts,
		Seed:      c.Seed,
		Policy:    ingest.Policy{MaxPending: c.MaxPending, Interval: c.Interval},
	}
}

// resolveStreamSeed mirrors ingest.New's derivation of an unset seed.
func resolveStreamSeed(seed int64, name string) int64 {
	if seed != 0 {
		return seed
	}
	return int64(hash64(name) >> 1)
}

// remixSeed derives the sampler seed for a recovery from a mid-life
// checkpoint. The original RNG state cannot be serialized, so the
// recovered sampler draws from a fresh, deterministic stream — reusing
// the original seed on the re-fed snapshot would correlate its draws
// with the pre-crash run's.
func remixSeed(seed int64, seq uint64) int64 {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(seed))
	binary.LittleEndian.PutUint64(b[8:], seq)
	v := int64(hash64(string(b[:])) >> 1)
	if v == 0 {
		v = 1 // 0 would re-derive from the table name
	}
	return v
}

// attachPersistence makes a freshly-registered streaming table durable:
// it wipes any stale state under the table's directory, writes
// checkpoint-0 from the stream's initial publication, opens the WAL and
// attaches it. Runs before the stream becomes reachable, so no append
// can slip in unlogged. No locks held.
func (r *Registry) attachPersistence(st *streamState) error {
	p := r.persist
	name := st.stream.Name()
	fail := func(err error) error { return fmt.Errorf("serve: persisting %q: %w", name, err) }
	td := p.tableDir(name)
	if err := os.RemoveAll(td); err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(td, 0o755); err != nil {
		return fail(err)
	}
	st.store = &tableStore{}
	if err := r.cutCheckpoint(st, st.stream.Last()); err != nil {
		return fail(err)
	}
	log, err := wal.Open(filepath.Join(td, "wal"), p.walOptions())
	if err != nil {
		return fail(err)
	}
	st.store.log = log
	st.stream.SetWAL(log)
	return nil
}

// persistCommit makes a streaming table's acknowledged WAL records
// durable per the fsync policy, then considers a checkpoint. Called
// from Registry.Append and Registry.Refresh after the stream call
// returns — outside every lock, and taking none of the registry's.
func (r *Registry) persistCommit(st *streamState) error {
	if st.store == nil {
		return nil
	}
	if err := st.store.log.Commit(); err != nil {
		r.metrics.walErrors.Inc()
		return fmt.Errorf("serve: wal commit for %q: %w", st.stream.Name(), err)
	}
	r.maybeCheckpoint(st)
	return nil
}

// maybeCheckpoint cuts a new checkpoint once the table's WAL outgrows
// the configured threshold and the latest publication covers records
// past the previous checkpoint. The publication's snapshot is immutable
// and its WalSeq names the exact prefix it covers, so no stream or
// shard lock is needed; the busy flag keeps concurrent committers from
// double-writing.
func (r *Registry) maybeCheckpoint(st *streamState) {
	ts := st.store
	if ts.log.SizeBytes() < r.persist.opts.CheckpointBytes {
		return
	}
	pub := st.stream.Last()
	if pub == nil || pub.WalSeq == 0 || pub.WalSeq <= ts.ckptSeq.Load() {
		return // nothing new is covered; wait for the next publication
	}
	if !ts.ckptBusy.CompareAndSwap(false, true) {
		return
	}
	defer ts.ckptBusy.Store(false)
	if err := r.cutCheckpoint(st, pub); err != nil {
		r.metrics.walErrors.Inc()
	}
}

// cutCheckpoint is the one checkpoint writer: it writes pub as the
// table's checkpoint, advances the covered horizon and deletes the WAL
// segments now covered. A failed write (the previous checkpoint stays
// valid) is the caller's to count or return. Checkpoint-0, written
// before the log exists, covers nothing and is not counted as a cut.
// The caller holds no lock and, on a reachable table, the busy flag.
func (r *Registry) cutCheckpoint(st *streamState, pub *ingest.Publication) error {
	p, ts, name := r.persist, st.store, st.stream.Name()
	cp := &wal.Checkpoint{
		Table:      name,
		Seq:        pub.WalSeq,
		Generation: pub.Generation,
		Config:     toWalConfig(st.cfg),
		Snapshot:   pub.Snapshot,
	}
	if err := wal.WriteCheckpoint(filepath.Join(p.tableDir(name), "checkpoint"), cp, p.opts.Fsync != wal.SyncNever); err != nil {
		return err
	}
	ts.ckptSeq.Store(pub.WalSeq)
	ts.ckptGen.Store(pub.Generation)
	if ts.log == nil {
		return nil
	}
	r.metrics.walCheckpoints.Inc()
	n, err := ts.log.TruncateThrough(pub.WalSeq)
	if err != nil {
		r.metrics.walErrors.Inc()
	}
	r.metrics.walTruncatedSegs.Add(int64(n))
	return nil
}

// RecoveryReport summarizes one Registry.Recover run.
type RecoveryReport struct {
	// Tables is how many streaming tables were rebuilt from disk.
	Tables int
	// ReplayedRecords counts WAL records re-applied across all tables.
	ReplayedRecords int
	// TornTails counts torn WAL segment tails truncated away (the
	// expected crash signature; each is one partially-written record).
	TornTails int
	// SpilledSamples is how many spilled static samples were indexed
	// (loaded lazily on the first Build of their key).
	SpilledSamples int
	// Duration is the wall time of the whole recovery.
	Duration time.Duration
}

// Recover reloads persisted state from the data directory: it indexes
// spilled static samples (loaded lazily on first use) and rebuilds
// every checkpointed streaming table, replaying each table's WAL suffix
// before resuming its refresh loop. Call it once at boot, after static
// table registrations — a recovered streaming table replaces a static
// registration of the same name, since the checkpoint's snapshot is the
// authoritative newer state. Returns an error on corruption that cannot
// be attributed to a torn crash tail; the registry is unusable for the
// affected table in that case and the caller should treat it as fatal.
func (r *Registry) Recover(ctx context.Context) (RecoveryReport, error) {
	p := r.persist
	var rep RecoveryReport
	if p == nil {
		return rep, nil
	}
	start := time.Now()

	// index spilled samples by key; unreadable files are deleted (a
	// crash mid-spill leaves only temp files, so this is defensive)
	sdir := filepath.Join(p.opts.Dir, "samples")
	if ents, err := os.ReadDir(sdir); err == nil {
		for _, de := range ents {
			if de.IsDir() || !strings.HasSuffix(de.Name(), ".smp") {
				continue
			}
			path := filepath.Join(sdir, de.Name())
			hdr, err := wal.ReadSampleHeader(path)
			if err != nil {
				r.metrics.walErrors.Inc()
				os.Remove(path)
				continue
			}
			p.mu.Lock()
			p.spills[hdr.Key] = path
			p.mu.Unlock()
			rep.SpilledSamples++
		}
	}

	// rebuild checkpointed streaming tables
	tdir := filepath.Join(p.opts.Dir, "tables")
	ents, err := os.ReadDir(tdir)
	if err != nil && !os.IsNotExist(err) {
		return rep, err
	}
	for _, de := range ents {
		if !de.IsDir() {
			continue
		}
		td := filepath.Join(tdir, de.Name())
		cp, err := wal.ReadCheckpoint(filepath.Join(td, "checkpoint"))
		if os.IsNotExist(err) {
			// a registration that died before checkpoint-0 landed; the
			// table was never durably registered
			os.RemoveAll(td)
			continue
		}
		if err != nil {
			return rep, fmt.Errorf("serve: recovering %s: %w", td, err)
		}
		replayed, torn, err := r.recoverTable(ctx, td, cp)
		rep.ReplayedRecords += replayed
		rep.TornTails += torn
		if err != nil {
			return rep, err
		}
		rep.Tables++
	}

	rep.Duration = time.Since(start)
	p.recovered.Add(int64(rep.Tables))
	r.metrics.walReplayedRecords.Add(int64(rep.ReplayedRecords))
	r.metrics.walTornTails.Add(int64(rep.TornTails))
	if rep.Tables > 0 {
		r.metrics.walReplayDuration.Observe(rep.Duration)
	}
	return rep, nil
}

// recoverTable rebuilds one streaming table from its checkpoint and WAL
// suffix. The stream is created paused (no refresh loop) so replay —
// which re-drives Append and Refresh in logged order — is the only
// thing consuming sampler RNG draws; the loop resumes once the log is
// attached.
func (r *Registry) recoverTable(ctx context.Context, td string, cp *wal.Checkpoint) (replayed, torn int, err error) {
	p := r.persist
	name := cp.Table
	cfg := fromWalConfig(cp.Config)
	cfg.Paused = true
	cfg.FirstGeneration = cp.Generation
	if cp.Seq > 0 {
		// mid-life checkpoint: the original RNG state is gone, so the
		// recovered sampler draws from a deterministic fresh stream
		cfg.Seed = remixSeed(resolveStreamSeed(cfg.Seed, name), cp.Seq)
	}

	// reserve the name; a static registration of the same table (e.g. a
	// -load CSV) yields to the recovered stream, whose snapshot is the
	// newer authoritative state
	sh := r.shardFor(name)
	r.regMu.Lock()
	sh.mu.Lock()
	for existing := range sh.streams {
		if strings.EqualFold(existing, name) {
			sh.mu.Unlock()
			r.regMu.Unlock()
			return 0, 0, fmt.Errorf("serve: recovering %q: %w", name, ErrAlreadyStreaming)
		}
	}
	if _, canon := sh.tableLocked(name); canon != "" && canon != name {
		delete(sh.tables, canon)
	}
	sh.streams[name] = nil
	sh.mu.Unlock()
	r.regMu.Unlock()

	// from here on, every failure releases the reservation and closes
	// whatever was opened on the way
	state := &streamState{key: streamKey(name, cfg.Queries), cfg: cfg}
	var log *wal.Log
	defer func() {
		if err == nil {
			return
		}
		sh.unreserve(name)
		if state.stream != nil {
			state.stream.Close()
		}
		if log != nil {
			log.Close()
		}
		err = fmt.Errorf("serve: recovering %q: %w", name, err)
	}()
	st, err := ingest.New(cp.Snapshot, cfg, func(pub *ingest.Publication) {
		r.installPublication(sh, name, state, pub)
	})
	if err != nil {
		return 0, 0, err
	}
	state.stream = st
	if log, err = wal.Open(filepath.Join(td, "wal"), p.walOptions()); err != nil {
		return 0, 0, err
	}
	torn = log.TornTails()

	err = log.Replay(ctx, cp.Seq, func(rec wal.Record) error {
		switch rec.Type {
		case wal.TypeRows:
			rows, derr := wal.DecodeRows(rec.Payload)
			if derr != nil {
				return derr
			}
			// every logged batch was coerced and accepted live (the log
			// write happens after coercion, before apply), so a replay
			// rejection means real divergence, not a bad client batch
			if _, aerr := st.Append(rows); aerr != nil {
				return fmt.Errorf("seq %d: %w", rec.Seq, aerr)
			}
		case wal.TypeRefresh:
			gen, derr := wal.DecodeRefresh(rec.Payload)
			if derr != nil {
				return derr
			}
			pub, rerr := st.Refresh()
			if rerr != nil {
				return fmt.Errorf("seq %d: %w", rec.Seq, rerr)
			}
			if pub.Generation != gen {
				return fmt.Errorf("seq %d: replayed generation %d, logged %d", rec.Seq, pub.Generation, gen)
			}
		default:
			return fmt.Errorf("seq %d: unknown record type %d", rec.Seq, rec.Type)
		}
		replayed++
		return nil
	})
	if err != nil {
		return replayed, torn, err
	}

	// only now: replay's publications ran unlogged by design, and
	// installPublication counts an unlogged one as a fault once store is set
	state.store = &tableStore{log: log}
	state.store.ckptSeq.Store(cp.Seq)
	state.store.ckptGen.Store(cp.Generation)
	st.SetWAL(log)
	sh.mu.Lock()
	if r.closed.Load() {
		sh.mu.Unlock()
		return replayed, torn, ErrClosed
	}
	sh.streams[name] = state
	sh.mu.Unlock()
	st.Resume()
	return replayed, torn, nil
}

// loadSpilled answers a Build miss from a spilled sample, if one exists
// for the key and still matches the registered table (row count and
// schema signature — a changed source table invalidates the spill
// rather than serving row ids into the wrong rows). Stale or corrupt
// spills are deleted so the build path rebuilds fresh.
func (r *Registry) loadSpilled(key string, tbl *table.Table) (*Entry, bool) {
	p := r.persist
	if p == nil {
		return nil, false
	}
	p.mu.Lock()
	path, ok := p.spills[key]
	p.mu.Unlock()
	if !ok {
		return nil, false
	}
	se, err := wal.ReadSample(path)
	if err != nil || se.Key != key || se.TableRows != tbl.NumRows() ||
		se.SchemaSig != wal.SchemaSignature(tbl.Schema()) {
		if err != nil {
			r.metrics.walErrors.Inc()
		}
		r.dropSpilled(key)
		return nil, false
	}
	r.metrics.walSpillLoads.Inc()
	return r.finishEntry(&Entry{
		Key:           key,
		Table:         tbl.Name,
		Budget:        se.Budget,
		TargetCV:      se.TargetCV,
		AchievedCV:    se.AchievedCV,
		TargetMet:     se.TargetMet,
		Queries:       se.Queries,
		Opts:          se.Opts,
		Sample:        &samplers.RowSample{Rows: se.Rows, Weights: se.Weights},
		BuiltAt:       se.BuiltAt,
		BuildDuration: se.BuildDuration,
	}, tbl), true
}

// saveSpilled persists a freshly-built static sample, best-effort: a
// spill failure costs a rebuild after restart, never correctness.
func (r *Registry) saveSpilled(e *Entry, tbl *table.Table) {
	p := r.persist
	if p == nil {
		return
	}
	se := &wal.SampleEntry{
		Key:           e.Key,
		Table:         e.Table,
		Budget:        e.Budget,
		TargetCV:      e.TargetCV,
		AchievedCV:    e.AchievedCV,
		TargetMet:     e.TargetMet,
		Queries:       e.Queries,
		Opts:          e.Opts,
		BuiltAt:       e.BuiltAt,
		BuildDuration: e.BuildDuration,
		TableRows:     tbl.NumRows(),
		SchemaSig:     wal.SchemaSignature(tbl.Schema()),
		Rows:          e.Sample.Rows,
		Weights:       e.Sample.Weights,
	}
	path := p.samplePath(e.Key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		r.metrics.walErrors.Inc()
		return
	}
	if err := wal.WriteSample(path, se, p.opts.Fsync != wal.SyncNever); err != nil {
		r.metrics.walErrors.Inc()
		os.Remove(path)
		return
	}
	p.mu.Lock()
	p.spills[e.Key] = path
	p.mu.Unlock()
	r.metrics.walSpillSaves.Inc()
}

// dropSpilled unlinks a spilled sample. Eviction calls this (outside
// the shard lock) so an evicted entry cannot resurrect from disk on the
// next build of its key.
func (r *Registry) dropSpilled(key string) {
	p := r.persist
	if p == nil {
		return
	}
	p.mu.Lock()
	path, ok := p.spills[key]
	delete(p.spills, key)
	p.mu.Unlock()
	if ok {
		os.Remove(path)
	}
}

// closePersist flushes and closes the persistence layer: a final
// checkpoint per table whose generations advanced past the last one
// (Registry.Close just flushed pending rows into a publication), then
// the final WAL sync. Idempotent.
func (r *Registry) closePersist(states []*streamState) {
	p := r.persist
	if p == nil {
		return
	}
	p.closeOnce.Do(func() {
		for _, st := range states {
			ts := st.store
			pub := st.stream.Last()
			if pub != nil && pub.WalSeq > ts.ckptSeq.Load() && pub.Generation > ts.ckptGen.Load() {
				if err := r.cutCheckpoint(st, pub); err != nil {
					r.metrics.walErrors.Inc()
				}
			}
			if err := ts.log.Close(); err != nil {
				r.metrics.walErrors.Inc()
			}
		}
	})
}

// PersistenceStatus is the ops view of the persistence layer, surfaced
// on /healthz and behind the repro_wal_* gauges; its counts are the
// repro_wal_*_total handles' values.
type PersistenceStatus struct {
	// Dir is the data directory; Fsync the WAL durability policy.
	Dir   string
	Fsync string
	// WalSegments / WalBytes total the live WAL segments across tables.
	WalSegments int
	WalBytes    int64
	// WalLagRecords sums, per table, the records appended past the last
	// checkpoint — the replay debt a crash right now would pay.
	WalLagRecords uint64
	// Checkpoints / TruncatedSegments count checkpoint cuts and the WAL
	// segments they deleted.
	Checkpoints       int64
	TruncatedSegments int64
	// SpilledSamples is the number of spilled static samples on disk.
	SpilledSamples int
	// SpillSaves / SpillLoads count samples written to and warmed from
	// disk.
	SpillSaves int64
	SpillLoads int64
	// RecoveredTables / ReplayedRecords / TornTails / ReplayDuration
	// summarize boot recovery.
	RecoveredTables int64
	ReplayedRecords int64
	TornTails       int64
	ReplayDuration  time.Duration
	// Errors counts persistence faults (failed fsyncs, unreadable
	// spills); the daemon keeps serving from memory when one occurs.
	Errors int64
}

// PersistenceStatus reports the persistence layer's state; ok is false
// when the registry runs without one (no -data-dir).
func (r *Registry) PersistenceStatus() (PersistenceStatus, bool) {
	p := r.persist
	if p == nil {
		return PersistenceStatus{}, false
	}
	m := r.metrics
	s := PersistenceStatus{
		Dir:               p.opts.Dir,
		Fsync:             p.opts.Fsync.String(),
		Checkpoints:       m.walCheckpoints.Value(),
		TruncatedSegments: m.walTruncatedSegs.Value(),
		SpillSaves:        m.walSpillSaves.Value(),
		SpillLoads:        m.walSpillLoads.Value(),
		RecoveredTables:   p.recovered.Load(),
		ReplayedRecords:   m.walReplayedRecords.Value(),
		TornTails:         m.walTornTails.Value(),
		ReplayDuration:    m.walReplayDuration.Sum(),
		Errors:            m.walErrors.Value(),
	}
	p.mu.Lock()
	s.SpilledSamples = len(p.spills)
	p.mu.Unlock()
	for _, st := range r.streamStates() {
		ts := st.store
		s.WalSegments += ts.log.Segments()
		s.WalBytes += ts.log.SizeBytes()
		if last, ckpt := ts.log.LastSeq(), ts.ckptSeq.Load(); last > ckpt {
			s.WalLagRecords += last - ckpt
		}
	}
	return s, true
}
