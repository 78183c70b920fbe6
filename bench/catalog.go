package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricDef describes one metric. BENCHMARK.json's end_to_end and
// per_layer lists are generated from (and tested against) these tables;
// -compare reads directions and bounds from them.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: the share of the parent's median it may worsen by
	// Workload is the workload that measures the metric at its focus
	// size — the run to read it from. Every other workload still reports
	// it, off the family's background op count. "all": no owner.
	Workload string
	// Moves names, for a per-layer metric, the end-to-end metrics it is
	// expected to move (on Workload; on the others the prediction is no
	// change).
	Moves []string
	// Count marks a count the program makes that repeats exactly for
	// equal inputs; -compare compares it exactly, not by bound.
	Count bool
}

const allWorkloads = "all"

// endToEnd is what a user of the system sees. Bounds are three times
// the run-to-run quartile spread measured on the reference box, or
// more; README.md has the measurements.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Workload: allWorkloads},
	{Name: "heap_live_mb", Unit: "MB", Better: "lower", Bound: 0.10, Workload: allWorkloads},
	{Name: "build_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Workload: wlPaperBuild},
	{Name: "autoscale_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Workload: wlPaperBuild},
	{Name: "rel_err_p95", Unit: "ratio", Better: "lower", Bound: 0.25, Workload: wlPaperBuild},
	{Name: "sample_qps", Unit: "ops/s", Better: "higher", Bound: 0.25, Workload: wlDashSample},
	{Name: "sample_narrow_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Workload: wlDashSample},
	{Name: "sample_wide_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Workload: wlDashSample},
	{Name: "sample_cold_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Workload: wlDashSample},
	{Name: "exact_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Workload: wlDashExact},
	{Name: "exact_qps", Unit: "ops/s", Better: "higher", Bound: 0.25, Workload: wlDashExact},
	{Name: "append_rows_per_s", Unit: "rows/s", Better: "higher", Bound: 0.25, Workload: wlStreamIngest},
	{Name: "append_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Workload: wlStreamIngest},
	{Name: "stream_query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Workload: wlStreamIngest},
	{Name: "refresh_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Workload: wlStreamIngest},
	{Name: "recover_s", Unit: "s", Better: "lower", Bound: 0.25, Workload: wlStreamIngest},
}

// perLayer is the traced run's output: name = <package>.<metric>. Each
// entry says which end-to-end metrics it should move, on which workload.
var perLayer = []metricDef{
	// set-up
	{Name: "datagen.openaq_rows_per_s", Unit: "rows/s", Better: "higher", Workload: allWorkloads, Moves: []string{"setup_s"}},
	{Name: "exec.run_exact_ms", Unit: "ms", Better: "lower", Workload: allWorkloads, Moves: []string{"setup_s"}},

	// paper_build
	{Name: "table.group_index_ms", Unit: "ms", Better: "lower", Workload: wlPaperBuild, Moves: []string{"build_p50_ms", "autoscale_p50_ms"}},
	{Name: "core.new_plan_ms", Unit: "ms", Better: "lower", Workload: wlPaperBuild, Moves: []string{"build_p50_ms"}},
	{Name: "core.stats_pass_self_ms", Unit: "ms", Better: "lower", Workload: wlPaperBuild, Moves: []string{"build_p50_ms"}},
	{Name: "core.allocate_ms", Unit: "ms", Better: "lower", Workload: wlPaperBuild, Moves: []string{"build_p50_ms"}},
	{Name: "core.autoscale_ms", Unit: "ms", Better: "lower", Workload: wlPaperBuild, Moves: []string{"autoscale_p50_ms"}},
	{Name: "core.autoscale_evals", Unit: "count", Better: "lower", Workload: wlPaperBuild, Moves: []string{"autoscale_p50_ms"}, Count: true},
	{Name: "core.predicted_cvs_ms", Unit: "ms", Better: "lower", Workload: wlPaperBuild, Moves: []string{"autoscale_p50_ms"}},
	{Name: "core.strata", Unit: "count", Better: "higher", Workload: wlPaperBuild, Moves: []string{"build_p50_ms"}, Count: true},
	{Name: "core.chebyshev_miss_share", Unit: "ratio", Better: "lower", Workload: wlPaperBuild, Moves: []string{"rel_err_p95"}},
	{Name: "sample.draw_ms", Unit: "ms", Better: "lower", Workload: wlPaperBuild, Moves: []string{"build_p50_ms"}},
	{Name: "samplers.cvopt_build_ms", Unit: "ms", Better: "lower", Workload: wlPaperBuild, Moves: []string{"build_p50_ms"}},
	{Name: "serve.build_ms", Unit: "ms", Better: "lower", Workload: wlPaperBuild, Moves: []string{"build_p50_ms"}},
	{Name: "serve.build_self_ms", Unit: "ms", Better: "lower", Workload: wlPaperBuild, Moves: []string{"build_p50_ms"}},
	{Name: "client.build_self_ms", Unit: "ms", Better: "lower", Workload: wlPaperBuild, Moves: []string{"build_p50_ms"}},

	// dash_sample: the fixed per-request path
	{Name: "api.request_decode_us", Unit: "us", Better: "lower", Workload: wlDashSample, Moves: []string{"sample_narrow_p50_ms", "sample_qps"}},
	{Name: "qos.acquire_ns", Unit: "ns", Better: "lower", Workload: wlDashSample, Moves: []string{"sample_qps"}},
	{Name: "qos.tenant_allow_ns", Unit: "ns", Better: "lower", Workload: wlDashSample, Moves: []string{"sample_qps"}},
	{Name: "sqlparse.parse_us.narrow", Unit: "us", Better: "lower", Workload: wlDashSample, Moves: []string{"sample_narrow_p50_ms", "sample_cold_p50_ms"}},
	{Name: "sqlparse.parse_us.wide", Unit: "us", Better: "lower", Workload: wlDashSample, Moves: []string{"sample_wide_p50_ms"}},
	{Name: "plan.compile_us", Unit: "us", Better: "lower", Workload: wlDashSample, Moves: []string{"sample_cold_p50_ms"}},
	{Name: "serve.find_ns", Unit: "ns", Better: "lower", Workload: wlDashSample, Moves: []string{"sample_qps"}},
	{Name: "plan.execute_us.sample_narrow", Unit: "us", Better: "lower", Workload: wlDashSample, Moves: []string{"sample_narrow_p50_ms"}},
	{Name: "plan.execute_us.sample_wide", Unit: "us", Better: "lower", Workload: wlDashSample, Moves: []string{"sample_wide_p50_ms"}},
	{Name: "serve.query_us.narrow", Unit: "us", Better: "lower", Workload: wlDashSample, Moves: []string{"sample_narrow_p50_ms"}},
	{Name: "serve.query_us.wide", Unit: "us", Better: "lower", Workload: wlDashSample, Moves: []string{"sample_wide_p50_ms"}},
	{Name: "serve.query_us.cold", Unit: "us", Better: "lower", Workload: wlDashSample, Moves: []string{"sample_cold_p50_ms"}},
	{Name: "serve.query_self_us.narrow", Unit: "us", Better: "lower", Workload: wlDashSample, Moves: []string{"sample_narrow_p50_ms"}},
	{Name: "serve.query_self_us.wide", Unit: "us", Better: "lower", Workload: wlDashSample, Moves: []string{"sample_wide_p50_ms"}},
	{Name: "serve.query_self_us.cold", Unit: "us", Better: "lower", Workload: wlDashSample, Moves: []string{"sample_cold_p50_ms"}},
	{Name: "serve.http_us.narrow", Unit: "us", Better: "lower", Workload: wlDashSample, Moves: []string{"sample_qps", "sample_narrow_p50_ms"}},
	{Name: "serve.http_us.wide", Unit: "us", Better: "lower", Workload: wlDashSample, Moves: []string{"sample_wide_p50_ms"}},
	{Name: "serve.http_us.cold", Unit: "us", Better: "lower", Workload: wlDashSample, Moves: []string{"sample_cold_p50_ms"}},
	{Name: "serve.http_self_us.narrow", Unit: "us", Better: "lower", Workload: wlDashSample, Moves: []string{"sample_qps", "sample_narrow_p50_ms"}},
	{Name: "serve.http_self_us.wide", Unit: "us", Better: "lower", Workload: wlDashSample, Moves: []string{"sample_wide_p50_ms"}},
	{Name: "serve.http_self_us.cold", Unit: "us", Better: "lower", Workload: wlDashSample, Moves: []string{"sample_cold_p50_ms"}},
	{Name: "api.response_bytes.narrow", Unit: "count", Better: "lower", Workload: wlDashSample, Moves: []string{"sample_narrow_p50_ms"}, Count: true},
	{Name: "api.response_bytes.wide", Unit: "count", Better: "lower", Workload: wlDashSample, Moves: []string{"sample_wide_p50_ms"}, Count: true},
	{Name: "api.response_decode_us.narrow", Unit: "us", Better: "lower", Workload: wlDashSample, Moves: []string{"sample_narrow_p50_ms"}},
	{Name: "api.response_decode_us.wide", Unit: "us", Better: "lower", Workload: wlDashSample, Moves: []string{"sample_wide_p50_ms"}},
	{Name: "client.query_us.narrow", Unit: "us", Better: "lower", Workload: wlDashSample, Moves: []string{"sample_narrow_p50_ms"}},
	{Name: "client.query_us.wide", Unit: "us", Better: "lower", Workload: wlDashSample, Moves: []string{"sample_wide_p50_ms"}},
	{Name: "client.query_us.cold", Unit: "us", Better: "lower", Workload: wlDashSample, Moves: []string{"sample_cold_p50_ms"}},
	{Name: "client.self_us.narrow", Unit: "us", Better: "lower", Workload: wlDashSample, Moves: []string{"sample_narrow_p50_ms", "sample_qps"}},
	{Name: "client.self_us.wide", Unit: "us", Better: "lower", Workload: wlDashSample, Moves: []string{"sample_wide_p50_ms"}},
	{Name: "client.self_us.cold", Unit: "us", Better: "lower", Workload: wlDashSample, Moves: []string{"sample_cold_p50_ms"}},
	{Name: "serve.plan_compiles", Unit: "count", Better: "lower", Workload: wlDashSample, Moves: []string{"sample_narrow_p50_ms"}, Count: true},
	{Name: "serve.plan_evictions", Unit: "count", Better: "lower", Workload: wlDashSample, Moves: []string{"sample_cold_p50_ms"}, Count: true},
	{Name: "serve.interpreted_share", Unit: "ratio", Better: "lower", Workload: wlDashSample, Moves: []string{"sample_cold_p50_ms"}},
	{Name: "serve.debug_trace_coverage", Unit: "ratio", Better: "higher", Workload: wlDashSample, Moves: []string{"sample_narrow_p50_ms"}},
	{Name: "serve.metrics_render_us", Unit: "us", Better: "lower", Workload: wlDashSample, Moves: []string{"sample_qps"}},
	{Name: "serve.resident_sample_bytes", Unit: "count", Better: "lower", Workload: wlDashSample, Moves: []string{"heap_live_mb"}, Count: true},
	{Name: "client.sample_narrow_tail_ms", Unit: "ms", Better: "lower", Workload: wlDashSample, Moves: []string{"sample_narrow_p50_ms"}},

	// dash_exact: the scan kernels
	{Name: "plan.execute_exact_ms", Unit: "ms", Better: "lower", Workload: wlDashExact, Moves: []string{"exact_p50_ms", "exact_qps"}},
	{Name: "plan.exact_rows_per_s", Unit: "rows/s", Better: "higher", Workload: wlDashExact, Moves: []string{"exact_p50_ms", "exact_qps"}},
	{Name: "plan.execute_allocs_per_op", Unit: "count", Better: "lower", Workload: wlDashExact, Moves: []string{"exact_qps"}},
	{Name: "serve.query_us.exact", Unit: "us", Better: "lower", Workload: wlDashExact, Moves: []string{"exact_p50_ms"}},
	{Name: "serve.query_self_us.exact", Unit: "us", Better: "lower", Workload: wlDashExact, Moves: []string{"exact_p50_ms"}},
	{Name: "serve.http_us.exact", Unit: "us", Better: "lower", Workload: wlDashExact, Moves: []string{"exact_p50_ms"}},
	{Name: "serve.http_self_us.exact", Unit: "us", Better: "lower", Workload: wlDashExact, Moves: []string{"exact_p50_ms"}},
	{Name: "client.query_us.exact", Unit: "us", Better: "lower", Workload: wlDashExact, Moves: []string{"exact_p50_ms"}},
	{Name: "client.self_us.exact", Unit: "us", Better: "lower", Workload: wlDashExact, Moves: []string{"exact_p50_ms"}},
	{Name: "client.exact_tail_ms", Unit: "ms", Better: "lower", Workload: wlDashExact, Moves: []string{"exact_p50_ms"}},

	// stream_ingest: the write path
	{Name: "table.snapshot_us", Unit: "us", Better: "lower", Workload: wlStreamIngest, Moves: []string{"refresh_p50_ms"}},
	{Name: "ingest.coerce_row_ns", Unit: "ns", Better: "lower", Workload: wlStreamIngest, Moves: []string{"append_p50_ms"}},
	{Name: "ingest.append_us", Unit: "us", Better: "lower", Workload: wlStreamIngest, Moves: []string{"append_p50_ms"}},
	{Name: "ingest.refresh_ms", Unit: "ms", Better: "lower", Workload: wlStreamIngest, Moves: []string{"refresh_p50_ms"}},
	{Name: "core.stream_observe_ns_per_row", Unit: "ns", Better: "lower", Workload: wlStreamIngest, Moves: []string{"append_rows_per_s"}},
	{Name: "core.stream_finalize_ms", Unit: "ms", Better: "lower", Workload: wlStreamIngest, Moves: []string{"refresh_p50_ms"}},
	{Name: "wal.encode_rows_us", Unit: "us", Better: "lower", Workload: wlStreamIngest, Moves: []string{"append_p50_ms"}},
	{Name: "wal.decode_rows_us", Unit: "us", Better: "lower", Workload: wlStreamIngest, Moves: []string{"recover_s"}},
	{Name: "wal.append_us.never", Unit: "us", Better: "lower", Workload: wlStreamIngest, Moves: []string{"append_p50_ms"}},
	{Name: "wal.append_us.interval", Unit: "us", Better: "lower", Workload: wlStreamIngest, Moves: []string{"append_p50_ms"}},
	{Name: "wal.append_us.always", Unit: "us", Better: "lower", Workload: wlStreamIngest, Moves: []string{"append_p50_ms"}},
	{Name: "wal.write_checkpoint_ms", Unit: "ms", Better: "lower", Workload: wlStreamIngest, Moves: []string{"append_rows_per_s"}},
	{Name: "wal.read_checkpoint_ms", Unit: "ms", Better: "lower", Workload: wlStreamIngest, Moves: []string{"recover_s"}},
	{Name: "wal.replay_ms", Unit: "ms", Better: "lower", Workload: wlStreamIngest, Moves: []string{"recover_s"}},
	{Name: "wal.bytes_per_row", Unit: "count", Better: "lower", Workload: wlStreamIngest, Moves: []string{"append_rows_per_s"}},
	{Name: "wal.disk_bytes_per_row", Unit: "count", Better: "lower", Workload: wlStreamIngest, Moves: []string{"append_rows_per_s"}},
	{Name: "serve.append_us", Unit: "us", Better: "lower", Workload: wlStreamIngest, Moves: []string{"append_p50_ms"}},
	{Name: "serve.append_self_us", Unit: "us", Better: "lower", Workload: wlStreamIngest, Moves: []string{"append_p50_ms"}},
	{Name: "serve.http_us.append", Unit: "us", Better: "lower", Workload: wlStreamIngest, Moves: []string{"append_p50_ms"}},
	{Name: "serve.http_self_us.append", Unit: "us", Better: "lower", Workload: wlStreamIngest, Moves: []string{"append_p50_ms"}},
	{Name: "client.append_us", Unit: "us", Better: "lower", Workload: wlStreamIngest, Moves: []string{"append_p50_ms"}},
	{Name: "client.self_us.append", Unit: "us", Better: "lower", Workload: wlStreamIngest, Moves: []string{"append_p50_ms"}},
	{Name: "serve.append_stall_max_ms", Unit: "ms", Better: "lower", Workload: wlStreamIngest, Moves: []string{"append_rows_per_s"}},
	{Name: "serve.checkpoints", Unit: "count", Better: "lower", Workload: wlStreamIngest, Moves: []string{"append_rows_per_s"}, Count: true},
	{Name: "serve.truncated_segments", Unit: "count", Better: "higher", Workload: wlStreamIngest, Moves: []string{"recover_s"}, Count: true},
	{Name: "serve.replayed_records", Unit: "count", Better: "lower", Workload: wlStreamIngest, Moves: []string{"recover_s"}, Count: true},
	{Name: "serve.refresh_ms", Unit: "ms", Better: "lower", Workload: wlStreamIngest, Moves: []string{"refresh_p50_ms"}},
	{Name: "serve.recover_ms", Unit: "ms", Better: "lower", Workload: wlStreamIngest, Moves: []string{"recover_s"}},
	{Name: "client.append_tail_ms", Unit: "ms", Better: "lower", Workload: wlStreamIngest, Moves: []string{"append_p50_ms"}},
	{Name: "client.append_max_ms", Unit: "ms", Better: "lower", Workload: wlStreamIngest, Moves: []string{"append_rows_per_s"}},
	{Name: "client.stream_query_tail_ms", Unit: "ms", Better: "lower", Workload: wlStreamIngest, Moves: []string{"stream_query_p50_ms"}},

	// the whole run
	{Name: "runtime.alloc_bytes_per_op", Unit: "count", Better: "lower", Workload: allWorkloads, Moves: []string{"sample_qps", "exact_qps", "append_rows_per_s"}},
	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower", Workload: allWorkloads, Moves: []string{"sample_qps", "exact_qps", "append_rows_per_s"}},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Workload: allWorkloads, Moves: []string{"sample_qps", "exact_qps", "append_rows_per_s"}},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower", Workload: allWorkloads, Moves: []string{"sample_qps", "exact_qps", "append_rows_per_s"}},

	// the traced run itself: what re-running every op once per nesting
	// level costs, and how much of each outermost span the levels leave
	// unexplained
	{Name: "obs.trace_overhead_share.paper_build", Unit: "ratio", Better: "lower", Workload: wlPaperBuild, Moves: []string{"build_p50_ms"}},
	{Name: "obs.trace_overhead_share.dash_sample", Unit: "ratio", Better: "lower", Workload: wlDashSample, Moves: []string{"sample_narrow_p50_ms"}},
	{Name: "obs.trace_overhead_share.dash_exact", Unit: "ratio", Better: "lower", Workload: wlDashExact, Moves: []string{"exact_p50_ms"}},
	{Name: "obs.trace_overhead_share.stream_ingest", Unit: "ratio", Better: "lower", Workload: wlStreamIngest, Moves: []string{"append_p50_ms"}},
	{Name: "obs.unattributed_share.build", Unit: "ratio", Better: "lower", Workload: wlPaperBuild, Moves: []string{"build_p50_ms"}},
	{Name: "obs.unattributed_share.narrow", Unit: "ratio", Better: "lower", Workload: wlDashSample, Moves: []string{"sample_narrow_p50_ms"}},
	{Name: "obs.unattributed_share.wide", Unit: "ratio", Better: "lower", Workload: wlDashSample, Moves: []string{"sample_wide_p50_ms"}},
	{Name: "obs.unattributed_share.cold", Unit: "ratio", Better: "lower", Workload: wlDashSample, Moves: []string{"sample_cold_p50_ms"}},
	{Name: "obs.unattributed_share.exact", Unit: "ratio", Better: "lower", Workload: wlDashExact, Moves: []string{"exact_p50_ms"}},
	{Name: "obs.unattributed_share.append", Unit: "ratio", Better: "lower", Workload: wlStreamIngest, Moves: []string{"append_p50_ms"}},
}

// value is one metric on the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output: exactly these four keys.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is one run as -out stores it: the result plus what it was a
// run of, and — whatever the mode — every metric the run measured, so
// -summary and -compare can see counts and tails next to the medians.
type record struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Scale     string             `json:"scale"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// record assembles the run's record, refusing a run that did not
// measure a metric its mode must report.
func (r *run) record() (*record, error) {
	for _, d := range reported(r.cfg.trace) {
		if _, ok := r.metrics[d.Name]; !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
	}
	return &record{
		Workload: r.cfg.workload, Seed: r.cfg.seed, Seconds: r.cfg.seconds, Scale: r.cfg.scale, Trace: r.cfg.trace,
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: r.metrics,
	}, nil
}

// reported is the metric list a run's mode prints: every end-to-end
// metric untraced, every per-layer metric traced.
func reported(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

func (rec *record) result() result {
	out := result{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]value{}}
	for _, d := range reported(rec.Trace) {
		out.Metrics[d.Name] = value{rec.Metrics[d.Name], d.Unit}
	}
	return out
}

func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// workloadWhy is each workload's one-line reason for existing, as
// BENCHMARK.json carries it.
var workloadWhy = map[string]string{
	wlPaperBuild:   "the paper's offline pipeline at paper scale (2 M rows, ~11.7 k strata): group index, stats pass, allocation, draw and the autoscale search do the work; parse/plan/WAL do none",
	wlDashSample:   "dashboard tiles off one resident 1 % sample: the fixed per-request path (decode, admit, parse, plan cache, find, 20 k-row scan, encode) is the work; the table scan is none",
	wlDashExact:    "the same tiles in exact mode: 2 M-row scan kernels are > 90 % of each op and the request path is noise; the bypass for every dash_sample optimisation and vice versa",
	wlStreamIngest: "durable appends beside reads on one shard, then crash recovery: the only workload where ingest, WAL, stream sampler and checkpointing work",
}

// benchmarkFile is BENCHMARK.json: exactly the keys the driver's
// contract prescribes, generated from the tables above.
type benchmarkFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []benchWorkload `json:"workloads"`
	EndToEnd   []benchEndToEnd `json:"end_to_end"`
	PerLayer   []benchPerLayer `json:"per_layer"`
}

type benchWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchEndToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchPerLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func benchmarkJSON() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloadNames {
		f.Workloads = append(f.Workloads, benchWorkload{w, workloadWhy[w]})
	}
	for _, d := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, benchEndToEnd{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		f.PerLayer = append(f.PerLayer, benchPerLayer{d.Name, d.Unit, d.Better})
	}
	return f
}
