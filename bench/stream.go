package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	apiv1 "repro/internal/api/v1"
	"repro/internal/datagen"
	"repro/internal/serve"
	"repro/internal/table"
	"repro/internal/wal"
)

const liveName = "Live"

// liveTable is the durable daemon hosting the streaming table, plus the
// rows the writer will append to it.
type liveTable struct {
	d      *daemon
	dir    string       // the daemon's data directory
	source *table.Table // rows to append, in order
	seeded int          // rows the table was registered with
}

// persistOptions are cvserve's defaults: interval fsync, 4 MiB
// checkpoint threshold.
func persistOptions(dir string) serve.PersistOptions {
	return serve.PersistOptions{Dir: dir, Fsync: wal.SyncInterval}
}

// newLiveTable starts the durable daemon, registers the seed rows and
// makes the table streaming through the API. Automatic refresh is off:
// the writer publishes at fixed points, so every run publishes the same
// generations.
func newLiveTable(ctx context.Context, r *run) (*liveTable, error) {
	lt := &liveTable{dir: filepath.Join(r.tmp, "data"), seeded: r.sz.streamSeedRows}
	seed, err := liveSeed(lt.seeded, r.cfg.seed)
	if err != nil {
		return nil, err
	}
	n := max(r.n(r.sz.batches, wlStreamIngest), r.sz.batches[0]) * r.sz.batchRows
	if lt.source, err = datagen.OpenAQ(datagen.OpenAQConfig{Rows: max(n, 64), Seed: r.cfg.seed + 2}); err != nil {
		return nil, err
	}
	reg := serve.NewRegistry(serve.WithPersistence(persistOptions(lt.dir)))
	if err = reg.RegisterTable(seed); err != nil {
		return nil, err
	}
	if lt.d, err = newDaemon(reg); err != nil {
		return nil, err
	}
	_, err = lt.d.clients[0].MakeStreaming(ctx, liveName, apiv1.StreamRequest{
		Queries:         streamWorkload(),
		Budget:          r.sz.streamBudget,
		Seed:            r.cfg.seed + 1,
		RefreshRows:     -1,
		RefreshInterval: "-1s",
	})
	if err != nil {
		lt.d.close()
		return nil, fmt.Errorf("making %s streaming: %w", liveName, err)
	}
	return lt, nil
}

// liveSeed generates the rows the live table is registered with.
func liveSeed(rows int, seed int64) (*table.Table, error) {
	t, err := datagen.OpenAQ(datagen.OpenAQConfig{Rows: rows, Seed: seed + 1})
	if err != nil {
		return nil, err
	}
	t.Name = liveName
	return t, nil
}

// batch renders source rows [from, from+n) the way a JSON client sends
// them: strings for dictionary columns, numbers for the rest.
func batch(src *table.Table, from, n int) [][]any {
	rows := make([][]any, n)
	for i := range rows {
		row := make([]any, len(src.Columns))
		for j, col := range src.Columns {
			if col.Spec.Kind == table.String {
				row[j] = col.StringAt(from + i)
			} else {
				row[j] = col.Numeric(from + i)
			}
		}
		rows[i] = row
	}
	return rows
}

// streamIngest is the write-beside-read family: client 1 appends
// batches and publishes every refreshEvery batches; client 2 queries the
// live table in a closed loop until the writer is done. Then the data
// directory is copied as it stands and recovered several times, and the
// tiles are checked against the published sample.
func (r *run) streamIngest(ctx context.Context) error {
	lt := r.live
	writer, reader := lt.d.clients[0], lt.d.clients[1]
	nBatches := r.n(r.sz.batches, wlStreamIngest)

	// reader
	var (
		wg        sync.WaitGroup
		done      = make(chan struct{})
		readLat   []time.Duration
		readFails int
		readErr   error
	)
	readOps := genOps(classStream, liveName, 4096, r.cfg.seed)
	wg.Add(1)
	go func() {
		defer wg.Done()
		var lastGen uint64
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			case <-ctx.Done():
				return
			default:
			}
			start := time.Now()
			resp, err := reader.Query(ctx, apiv1.QueryRequest{SQL: readOps[i%len(readOps)].SQL, Mode: apiv1.ModeSample})
			readLat = append(readLat, time.Since(start))
			// values are checked after the writer stops (the sample moves
			// under the reader); here: an approximate answer from a
			// generation no older than the last one seen
			if err == nil && (resp.Exact || len(resp.Groups) == 0 || resp.Generation < lastGen) {
				err = fmt.Errorf("generation %d after %d, %d groups, exact=%v", resp.Generation, lastGen, len(resp.Groups), resp.Exact)
			}
			if err != nil {
				readFails++
				if readErr == nil {
					readErr = fmt.Errorf("op %d: %w", i, err)
				}
				continue
			}
			lastGen = resp.Generation
		}
	}()

	// writer
	var (
		appendLat, refreshLat []time.Duration
		busy                  time.Duration
		acked                 int
		lastGen               uint64
		writeErr              error
	)
	for b := 0; b < nBatches && writeErr == nil && ctx.Err() == nil; b++ {
		rows := batch(lt.source, b*r.sz.batchRows, r.sz.batchRows)
		start := time.Now()
		resp, err := writer.AppendRows(ctx, liveName, rows)
		lat := time.Since(start)
		appendLat = append(appendLat, lat)
		busy += lat
		if err == nil && (resp.Appended != len(rows) || resp.Rows != lt.seeded+acked+len(rows)) {
			err = fmt.Errorf("acked %d rows, table at %d, want %d and %d", resp.Appended, resp.Rows, len(rows), lt.seeded+acked+len(rows))
		}
		if err != nil {
			writeErr = fmt.Errorf("append %d: %w", b, err)
			break
		}
		acked += len(rows)
		lastGen = resp.Generation
		if (b+1)%r.sz.refreshEvery == 0 {
			start := time.Now()
			s, err := writer.Refresh(ctx, liveName)
			lat := time.Since(start)
			refreshLat = append(refreshLat, lat)
			busy += lat
			if err == nil && s.Generation != lastGen+1 {
				err = fmt.Errorf("published generation %d after %d", s.Generation, lastGen)
			}
			if err != nil {
				writeErr = fmt.Errorf("refresh after batch %d: %w", b, err)
				break
			}
			lastGen = s.Generation
		}
	}
	close(done)
	wg.Wait()

	r.attempted += len(appendLat) + len(refreshLat) + len(readLat)
	r.failed += readFails
	if writeErr != nil {
		r.failed++
		r.problems = append(r.problems, "stream_ingest writer: "+writeErr.Error())
	}
	if readErr != nil {
		r.problems = append(r.problems, fmt.Sprintf("stream_ingest reader: %d of %d ops failed, first: %v", readFails, len(readLat), readErr))
	}
	if len(appendLat) == 0 || len(refreshLat) == 0 || len(readLat) == 0 || writeErr != nil {
		return fmt.Errorf("stream_ingest cannot be measured: %d appends, %d refreshes, %d reads, writer error: %v", len(appendLat), len(refreshLat), len(readLat), writeErr)
	}

	t := r.setTiming("append_p50_ms", warm(appendLat), "ms")
	r.set("client.append_tail_ms", t.tailOrMax())
	r.set("client.append_max_ms", t.max)
	r.set("append_rows_per_s", float64(acked)/busy.Seconds())
	r.logf("%-28s %.0f rows/s  (%d rows acked in %.2f s of writer time, slowest append %.1f ms)", "append_rows_per_s", r.metrics["append_rows_per_s"], acked, busy.Seconds(), t.max)
	r.setTiming("refresh_p50_ms", refreshLat, "ms")
	t = r.setTiming("stream_query_p50_ms", warm(readLat), "ms")
	r.set("client.stream_query_tail_ms", t.tailOrMax())

	if err := r.recoverCrashImage(ctx, lt.seeded+acked, lastGen); err != nil {
		return err
	}

	// with the writer stopped the sample holds still: publish once more
	// and check every tile value for value against the row interpreter
	// over the published rows and weights
	if _, err := writer.Refresh(ctx, liveName); err != nil {
		return fmt.Errorf("final refresh: %w", err)
	}
	e, ok := lt.d.reg.Find(liveName, streamWorkload()[0].GroupBy)
	snapshot, ok2 := lt.d.reg.Table(liveName)
	if !ok || !ok2 {
		return fmt.Errorf("live table or its sample vanished")
	}
	texts := narrowTexts(liveName)
	refs, err := references(snapshot, texts, e)
	if err != nil {
		return err
	}
	for i, sql := range texts {
		_, err := queryOp(ctx, reader, sql, apiv1.ModeSample, refs[i])
		r.check(err == nil, "stream_ingest: final answers: %v", err)
	}
	return nil
}

// recoverCrashImage copies the live daemon's data directory as it stands
// — a crash image: no clean close, no final checkpoint — and recovers
// fresh copies of it, each of which must come back with every
// acknowledged row at the last acknowledged generation. The image stays
// in the run's scratch directory for the traced run's WAL replay.
func (r *run) recoverCrashImage(ctx context.Context, wantRows int, wantGen uint64) error {
	image := filepath.Join(r.tmp, "image")
	if err := os.CopyFS(image, os.DirFS(r.live.dir)); err != nil {
		return fmt.Errorf("copying the crash image: %w", err)
	}
	var recoverLat []time.Duration
	for k := range r.n(r.sz.recovers, wlStreamIngest) {
		dir := filepath.Join(r.tmp, fmt.Sprintf("recover-%d", k))
		if err := os.CopyFS(dir, os.DirFS(image)); err != nil {
			return fmt.Errorf("copying the crash image: %w", err)
		}
		reg := serve.NewRegistry(serve.WithPersistence(persistOptions(dir)))
		start := time.Now()
		rep, err := reg.Recover(ctx)
		recoverLat = append(recoverLat, time.Since(start))
		st, _ := reg.StreamStatus(liveName)
		r.check(err == nil && st.Rows == wantRows && st.Generation == wantGen,
			"stream_ingest: recovery %d: %d rows at generation %d, want %d at %d (err %v)", k, st.Rows, st.Generation, wantRows, wantGen, err)
		if k == 0 {
			r.set("serve.replayed_records", float64(rep.ReplayedRecords))
		}
		reg.Close()
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	r.setTiming("recover_s", recoverLat, "s")

	if ps, ok := r.live.d.reg.PersistenceStatus(); ok {
		r.set("serve.checkpoints", float64(ps.Checkpoints))
		r.set("serve.truncated_segments", float64(ps.TruncatedSegments))
		r.logf("  %d checkpoints cut, %d WAL segments truncated, %d records replayed per recovery", ps.Checkpoints, ps.TruncatedSegments, int(r.metrics["serve.replayed_records"]))
	}
	if size, err := dirSize(image); err == nil {
		r.set("wal.disk_bytes_per_row", float64(size)/float64(wantRows))
	}
	return nil
}

func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
