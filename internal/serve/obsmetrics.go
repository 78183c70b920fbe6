package serve

// The serving layer's metric surface: every Prometheus series the
// daemon exposes is registered here, in one place, under one name
// constant — scripts/check_docs.sh greps this file and fails when a
// name is missing from docs/OBSERVABILITY.md, so the exposition and its
// reference cannot drift. Handles are resolved once at registry
// construction; the hot paths (Build, Find, Query, eviction, streaming
// installs, the HTTP middleware) touch only atomic counters.

import (
	"time"

	"repro/internal/obs"
	"repro/internal/qos"
)

// Metric names. All follow the Prometheus conventions: a repro_ prefix,
// _total on counters, base units (seconds, bytes) in the name.
const (
	// MetricBuildCacheHits counts Build requests answered from the
	// entry cache (fast path and double-checked slow path alike).
	MetricBuildCacheHits = "repro_build_cache_hits_total"
	// MetricBuildCacheMisses counts Build requests that became the
	// building goroutine for their key.
	MetricBuildCacheMisses = "repro_build_cache_misses_total"
	// MetricBuildInflightWaits counts Build requests deduplicated onto
	// another goroutine's in-flight build of the same key.
	MetricBuildInflightWaits = "repro_build_inflight_waits_total"
	// MetricBuilds counts sampler builds actually executed.
	MetricBuilds = "repro_builds_total"
	// MetricBuildDuration is the histogram of sampler build durations.
	MetricBuildDuration = "repro_build_duration_seconds"
	// MetricAutoscaleProbes counts budgets evaluated by autoscale
	// searches (core.AutoscaleResult.Evaluations, summed).
	MetricAutoscaleProbes = "repro_autoscale_probes_total"
	// MetricFindHits / MetricFindMisses count Find calls that did / did
	// not locate a covering sample.
	MetricFindHits   = "repro_find_hits_total"
	MetricFindMisses = "repro_find_misses_total"
	// MetricEvictions counts entries evicted by the sample byte budget;
	// MetricEvictedBytes sums their estimated sizes.
	MetricEvictions    = "repro_evictions_total"
	MetricEvictedBytes = "repro_evicted_bytes_total"
	// MetricResidentBytes is the current estimated resident size of all
	// built samples.
	MetricResidentBytes = "repro_resident_sample_bytes"
	// MetricSamples / MetricTables / MetricStreams gauge the registry's
	// built samples, registered tables and live streaming tables.
	MetricSamples = "repro_samples"
	MetricTables  = "repro_tables"
	MetricStreams = "repro_streams"
	// MetricIngestRows counts rows appended per streaming table.
	MetricIngestRows = "repro_ingest_rows_appended_total"
	// MetricStreamRefreshes counts publications per streaming table
	// (the initial registration included).
	MetricStreamRefreshes = "repro_stream_refreshes_total"
	// MetricStreamRefreshDuration is the per-table histogram of refresh
	// build durations.
	MetricStreamRefreshDuration = "repro_stream_refresh_duration_seconds"
	// MetricStreamGeneration gauges each streaming table's latest
	// published generation.
	MetricStreamGeneration = "repro_stream_generation"
	// MetricHTTPRequests counts served requests per route pattern and
	// status code; MetricHTTPDuration is the per-route latency
	// histogram.
	MetricHTTPRequests = "repro_http_requests_total"
	MetricHTTPDuration = "repro_http_request_duration_seconds"
	// MetricPlanCacheHits / MetricPlanCacheMisses count query
	// executions answered by a cached compiled plan vs. ones that had
	// to compile (singleflight waiters count as hits).
	MetricPlanCacheHits   = "repro_plan_cache_hits_total"
	MetricPlanCacheMisses = "repro_plan_cache_misses_total"
	// MetricPlanEvictions counts compiled plans evicted by the
	// plan-cache cap (WithMaxPlans).
	MetricPlanEvictions = "repro_plan_evictions_total"
	// MetricPlans gauges the resident compiled-plan cache.
	MetricPlans = "repro_plans"
	// MetricWalSegments / MetricWalBytes gauge the live WAL segment
	// files and their total size across all streaming tables.
	MetricWalSegments = "repro_wal_segments"
	MetricWalBytes    = "repro_wal_bytes"
	// MetricWalLagRecords gauges the records appended past the last
	// checkpoint — the replay debt a crash right now would pay.
	MetricWalLagRecords = "repro_wal_lag_records"
	// MetricWalCheckpoints counts checkpoint cuts;
	// MetricWalTruncatedSegments the WAL segments they deleted.
	MetricWalCheckpoints       = "repro_wal_checkpoints_total"
	MetricWalTruncatedSegments = "repro_wal_truncated_segments_total"
	// MetricWalReplayedRecords counts WAL records re-applied during boot
	// recovery; MetricWalReplayDuration is the per-boot histogram of
	// recovery wall time.
	MetricWalReplayedRecords = "repro_wal_replayed_records_total"
	MetricWalReplayDuration  = "repro_wal_replay_duration_seconds"
	// MetricWalTornTails counts torn segment tails truncated at boot
	// (the expected crash signature).
	MetricWalTornTails = "repro_wal_torn_tails_total"
	// MetricWalSpilledSamples gauges the spilled static samples on disk;
	// MetricWalSpillSaves / MetricWalSpillLoads count samples written to
	// and warmed from disk.
	MetricWalSpilledSamples = "repro_wal_spilled_samples"
	MetricWalSpillSaves     = "repro_wal_spill_saves_total"
	MetricWalSpillLoads     = "repro_wal_spill_loads_total"
	// MetricWalErrors counts persistence faults (failed fsyncs,
	// unreadable spills); the daemon keeps serving from memory.
	MetricWalErrors = "repro_wal_errors_total"
	// MetricIngestResidentRows gauges each streaming table's resident
	// buffer rows — the ops signal behind the /healthz row-horizon
	// warning.
	MetricIngestResidentRows = "repro_ingest_resident_rows"
	// MetricQoSInflight / MetricQoSQueued gauge the admission
	// controller's currently executing and queued requests.
	MetricQoSInflight = "repro_qos_inflight"
	MetricQoSQueued   = "repro_qos_queued"
	// MetricQoSAdmitted / MetricQoSRejected count requests admitted to a
	// full-service slot and requests refused with 429 overloaded.
	MetricQoSAdmitted = "repro_qos_admitted_total"
	MetricQoSRejected = "repro_qos_rejected_total"
	// MetricQoSShed counts target_cv queries degraded to an
	// already-resident sample instead of running the full autoscale.
	MetricQoSShed = "repro_qos_shed_total"
	// MetricQoSCoalesced counts query requests served from another
	// request's executor pass; MetricQoSBatches counts passes that served
	// more than one request.
	MetricQoSCoalesced = "repro_qos_coalesced_total"
	MetricQoSBatches   = "repro_qos_batches_total"
	// MetricQoSTenantRejected counts requests refused by a tenant's
	// token bucket.
	MetricQoSTenantRejected = "repro_qos_tenant_rejected_total"
)

// srvMetrics holds the resolved metric handles the serving hot paths
// increment.
type srvMetrics struct {
	buildCacheHits   *obs.Counter
	buildCacheMisses *obs.Counter
	inflightWaits    *obs.Counter
	builds           *obs.Counter
	buildDuration    *obs.Histogram
	autoscaleProbes  *obs.Counter
	findHits         *obs.Counter
	findMisses       *obs.Counter
	evictions        *obs.Counter
	evictedBytes     *obs.Counter
	planCacheHits    *obs.Counter
	planCacheMisses  *obs.Counter
	planEvictions    *obs.Counter

	walCheckpoints     *obs.Counter
	walTruncatedSegs   *obs.Counter
	walReplayedRecords *obs.Counter
	walReplayDuration  *obs.Histogram
	walTornTails       *obs.Counter
	walSpillSaves      *obs.Counter
	walSpillLoads      *obs.Counter
	walErrors          *obs.Counter

	ingestRows      *obs.CounterVec
	refreshes       *obs.CounterVec
	refreshDuration *obs.HistogramVec
	generation      *obs.GaugeVec
	residentRows    *obs.GaugeVec

	httpRequests *obs.CounterVec
	httpDuration *obs.HistogramVec
}

// newSrvMetrics registers the serving metric families on reg and
// resolves their handles. The registry-state gauges are GaugeFuncs
// reading r's own counters at scrape time, so the exposition can never
// drift from the source of truth.
func newSrvMetrics(reg *obs.Registry, r *Registry) *srvMetrics {
	m := &srvMetrics{
		buildCacheHits:     reg.Counter(MetricBuildCacheHits, "Build requests answered from the sample cache."),
		buildCacheMisses:   reg.Counter(MetricBuildCacheMisses, "Build requests that ran the sampler."),
		inflightWaits:      reg.Counter(MetricBuildInflightWaits, "Build requests deduplicated onto an in-flight build of the same key."),
		builds:             reg.Counter(MetricBuilds, "Sampler builds executed (cache hits and dedups excluded)."),
		buildDuration:      reg.Histogram(MetricBuildDuration, "Sampler build duration."),
		autoscaleProbes:    reg.Counter(MetricAutoscaleProbes, "Budgets evaluated by autoscale searches."),
		findHits:           reg.Counter(MetricFindHits, "Find calls that located a covering sample."),
		findMisses:         reg.Counter(MetricFindMisses, "Find calls with no covering sample."),
		evictions:          reg.Counter(MetricEvictions, "Entries evicted by the sample byte budget."),
		evictedBytes:       reg.Counter(MetricEvictedBytes, "Estimated bytes freed by eviction."),
		planCacheHits:      reg.Counter(MetricPlanCacheHits, "Query executions answered by a cached compiled plan."),
		planCacheMisses:    reg.Counter(MetricPlanCacheMisses, "Query executions that compiled a plan."),
		planEvictions:      reg.Counter(MetricPlanEvictions, "Compiled plans evicted by the plan-cache cap."),
		walCheckpoints:     reg.Counter(MetricWalCheckpoints, "Checkpoint cuts written by the persistence layer."),
		walTruncatedSegs:   reg.Counter(MetricWalTruncatedSegments, "WAL segments deleted by checkpoint truncation."),
		walReplayedRecords: reg.Counter(MetricWalReplayedRecords, "WAL records re-applied during boot recovery."),
		walReplayDuration:  reg.Histogram(MetricWalReplayDuration, "Boot recovery wall time."),
		walTornTails:       reg.Counter(MetricWalTornTails, "Torn WAL segment tails truncated at boot."),
		walSpillSaves:      reg.Counter(MetricWalSpillSaves, "Static samples spilled to disk."),
		walSpillLoads:      reg.Counter(MetricWalSpillLoads, "Static samples warmed from a disk spill."),
		walErrors:          reg.Counter(MetricWalErrors, "Persistence faults (failed fsyncs, unreadable spills)."),
		ingestRows:         reg.CounterVec(MetricIngestRows, "Rows appended to a streaming table.", "table"),
		refreshes:          reg.CounterVec(MetricStreamRefreshes, "Sample generations published by a streaming table.", "table"),
		refreshDuration:    reg.HistogramVec(MetricStreamRefreshDuration, "Streaming refresh build duration.", "table"),
		generation:         reg.GaugeVec(MetricStreamGeneration, "Latest published generation of a streaming table.", "table"),
		residentRows:       reg.GaugeVec(MetricIngestResidentRows, "Resident buffer rows of a streaming table.", "table"),
		httpRequests:       reg.CounterVec(MetricHTTPRequests, "HTTP requests served, by route pattern and status code.", "route", "code"),
		httpDuration:       reg.HistogramVec(MetricHTTPDuration, "HTTP request duration, by route pattern.", "route"),
	}
	reg.GaugeFunc(MetricResidentBytes, "Estimated resident bytes of all built samples.",
		r.ResidentSampleBytes)
	reg.GaugeFunc(MetricSamples, "Built samples currently resident.", func() int64 {
		_, samples := r.Counts()
		return int64(samples)
	})
	reg.GaugeFunc(MetricTables, "Registered tables.", func() int64 {
		tables, _ := r.Counts()
		return int64(tables)
	})
	reg.GaugeFunc(MetricStreams, "Live (streaming) tables.", func() int64 {
		return int64(r.StreamCount())
	})
	reg.GaugeFunc(MetricPlans, "Resident cached compiled plans.", func() int64 {
		return int64(r.PlanCount())
	})
	reg.GaugeFunc(MetricWalSegments, "Live WAL segment files across all streaming tables.", func() int64 {
		s, _ := r.PersistenceStatus()
		return int64(s.WalSegments)
	})
	reg.GaugeFunc(MetricWalBytes, "Total bytes across live WAL segments.", func() int64 {
		s, _ := r.PersistenceStatus()
		return s.WalBytes
	})
	reg.GaugeFunc(MetricWalLagRecords, "WAL records appended past the last checkpoint.", func() int64 {
		s, _ := r.PersistenceStatus()
		return int64(s.WalLagRecords)
	})
	reg.GaugeFunc(MetricWalSpilledSamples, "Spilled static samples on disk.", func() int64 {
		s, _ := r.PersistenceStatus()
		return int64(s.SpilledSamples)
	})
	return m
}

// observeStreamPublication records one installed streaming publication.
func (m *srvMetrics) observeStreamPublication(table string, generation uint64, rows int, buildDuration time.Duration) {
	m.refreshes.With(table).Inc()
	m.generation.With(table).Set(int64(generation))
	m.residentRows.With(table).Set(int64(rows))
	if buildDuration > 0 {
		m.refreshDuration.With(table).Observe(buildDuration)
	}
}

// registerQoSMetrics exposes a QoS front end's counters as repro_qos_*
// series, reading the front end's own atomics at scrape time so the
// exposition cannot drift from /healthz.
func registerQoSMetrics(reg *obs.Registry, fe *qos.FrontEnd) {
	ctrl := fe.Admission
	reg.GaugeFunc(MetricQoSInflight, "Requests currently holding an admission slot.", func() int64 {
		return int64(ctrl.Inflight())
	})
	reg.GaugeFunc(MetricQoSQueued, "Requests parked in the admission queue.", func() int64 {
		return int64(ctrl.Queued())
	})
	reg.CounterFunc(MetricQoSAdmitted, "Requests admitted to a full-service slot.", ctrl.Admitted)
	reg.CounterFunc(MetricQoSRejected, "Requests refused with 429 overloaded.", ctrl.Rejected)
	reg.CounterFunc(MetricQoSShed, "target_cv queries degraded to a resident sample.", ctrl.ShedCount)
	if co := fe.Coalescer; co != nil {
		reg.CounterFunc(MetricQoSCoalesced, "Query requests served from another request's executor pass.", co.Coalesced)
		reg.CounterFunc(MetricQoSBatches, "Coalesced executor passes that served more than one request.", co.Batches)
	}
	if tl := fe.Tenants; tl != nil {
		reg.CounterFunc(MetricQoSTenantRejected, "Requests refused by a tenant token bucket.", tl.Rejected)
	}
}
