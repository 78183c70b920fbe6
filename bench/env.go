package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	apiv1 "repro/internal/api/v1"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/qos"
	"repro/internal/serve"
)

// The four workloads. Each names the family of requests a run spends
// most of its time on; the other three families still run, at their
// background size, because every run reports every end-to-end metric.
const (
	wlPaperBuild   = "paper_build"
	wlDashSample   = "dash_sample"
	wlDashExact    = "dash_exact"
	wlStreamIngest = "stream_ingest"
)

var workloadNames = []string{wlPaperBuild, wlDashSample, wlDashExact, wlStreamIngest}

// numClients is the closed-loop client count: one goroutine and one
// connection each. Two, because the sandbox has two cores.
const numClients = 2

// defaultSeconds is BENCHMARK.json's run_seconds: about how long a run
// measures (set-up excluded) on the 2-core reference box with the op
// counts below. -seconds scales the focus counts linearly.
const defaultSeconds = 25

// sizes fixes every input size of a run. Op counts come in pairs:
// [0] is the background size (the family is not the run's workload),
// [1] the focus size at defaultSeconds.
type sizes struct {
	rows           int // OpenAQ table
	residentBudget int // the 1 % sample dash_sample answers from
	streamSeedRows int
	streamBudget   int
	batchRows      int
	refreshEvery   int // batches between explicit refreshes

	budgetBuilds    [2]int
	autoscaleBuilds [2]int
	narrow          [2]int
	wide            [2]int
	cold            [2]int
	solo            [2]int
	duo             [2]int
	batches         [2]int
	recovers        [2]int
}

// fullSizes is paper scale: 2 M rows and ~11.7 k strata. The counts are
// what fits the driver's time cap (about 30 s per run on two cores)
// while keeping every median within its bound run to run.
var fullSizes = sizes{
	rows:           2_000_000,
	residentBudget: 20_000,
	streamSeedRows: 100_000,
	streamBudget:   10_000,
	batchRows:      128,
	refreshEvery:   80,

	budgetBuilds:    [2]int{4, 6},
	autoscaleBuilds: [2]int{2, 3},
	narrow:          [2]int{5000, 8000},
	wide:            [2]int{60, 100},
	cold:            [2]int{600, 2000},
	solo:            [2]int{120, 300},
	duo:             [2]int{240, 480},
	batches:         [2]int{1600, 4000},
	recovers:        [2]int{5, 5},
}

// smokeSizes shrinks rows and ops 100× (floors keep every phase
// non-empty); the test suite runs all four workloads at this scale.
// The budget stays above the stratum count (~5.7 k at 20 k rows): the
// CV predictor treats an unsampled one-row stratum as variance-free, so
// the Chebyshev check is only meaningful when every stratum is drawn
// from, as it is at full scale.
var smokeSizes = sizes{
	rows:           20_000,
	residentBudget: 8_000,
	streamSeedRows: 2_000,
	streamBudget:   500,
	batchRows:      16,
	refreshEvery:   8,

	budgetBuilds:    [2]int{1, 2},
	autoscaleBuilds: [2]int{1, 1},
	narrow:          [2]int{30, 240},
	wide:            [2]int{2, 4},
	cold:            [2]int{6, 40},
	solo:            [2]int{4, 8},
	duo:             [2]int{4, 8},
	batches:         [2]int{20, 40},
	recovers:        [2]int{1, 2},
}

// count picks a family's op count for this run: the background size, or
// the focus size scaled by -seconds when the family is the workload.
func count(pair [2]int, focus bool, seconds int) int {
	if !focus {
		return pair[0]
	}
	return max(pair[1]*seconds/defaultSeconds, pair[0])
}

// paperWorkload is W, the sample's declared workload: the monthly
// per-(country, parameter) series and the per-(country, parameter)
// summary of value and latitude — 38 × 7 × 4 × 12 possible strata.
func paperWorkload() []apiv1.QuerySpec {
	return []apiv1.QuerySpec{
		{GroupBy: []string{"country", "parameter", "year", "month"}, Aggs: []apiv1.Agg{{Column: "value"}}},
		{GroupBy: []string{"country", "parameter"}, Aggs: []apiv1.Agg{{Column: "value"}, {Column: "latitude"}}},
	}
}

// streamWorkload is the live table's stratification (~3.1 k strata).
func streamWorkload() []apiv1.QuerySpec {
	return []apiv1.QuerySpec{
		{GroupBy: []string{"country", "parameter", "month"}, Aggs: []apiv1.Agg{{Column: "value"}}},
	}
}

func coreSpecs(specs []apiv1.QuerySpec) []core.QuerySpec {
	out := make([]core.QuerySpec, len(specs))
	for i, s := range specs {
		aggs := make([]core.AggColumn, len(s.Aggs))
		for j, a := range s.Aggs {
			aggs[j] = core.AggColumn{Column: a.Column}
		}
		out[i] = core.QuerySpec{GroupBy: s.GroupBy, Aggs: aggs}
	}
	return out
}

// daemon is one in-process cvserve: a registry behind the real HTTP
// handler with the QoS front end mounted, listening on a loopback port,
// plus the closed-loop clients that drive it.
type daemon struct {
	reg     *serve.Registry
	fe      *qos.FrontEnd
	srv     *serve.Server
	ts      *httptest.Server
	clients []*client.Client
}

// qosConfig is the front end every benchmark daemon mounts: four
// execution slots, a 16-deep queue (two closed-loop clients never fill
// either) and a default tenant bucket too large to ever refuse.
var qosConfig = qos.Config{MaxInflight: 4, MaxQueue: 16, TenantLimits: "*=1e9:1e9"}

func newDaemon(reg *serve.Registry) (*daemon, error) {
	fe, err := qos.New(qosConfig)
	if err != nil {
		return nil, err
	}
	d := &daemon{reg: reg, fe: fe}
	d.srv = serve.NewServer(reg, serve.WithQoS(fe))
	d.ts = httptest.NewServer(d.srv) // binds 127.0.0.1:0
	for range numClients {
		// one transport per client = one connection per client; no
		// retries, so a refused or failed request counts as failed
		hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
		c, err := client.New(d.ts.URL, hc, client.WithRetry(client.RetryPolicy{MaxAttempts: 1}))
		if err != nil {
			d.close()
			return nil, err
		}
		d.clients = append(d.clients, c)
	}
	return d, nil
}

// close stops the listener (waiting for in-flight requests) and the
// registry's background goroutines.
func (d *daemon) close() {
	d.ts.Close()
	d.reg.Close()
}

// phase is the outcome of one closed-loop phase.
type phase struct {
	lat      []time.Duration // per op, in op-list order
	end      []time.Time     // per op, when its answer arrived
	failed   int
	firstErr error
}

// measured returns the latencies after warm-up.
func (p *phase) measured() []time.Duration { return warm(p.lat) }

// throughputWindows is how many equal windows a phase's measured ops are
// cut into for perSecond.
const throughputWindows = 10

// perSecond is the phase's throughput: the measured ops (completion
// order, warm-up dropped) are cut into throughputWindows equal windows
// and the median window's ops-per-second is reported, so that a burst of
// interference from the sandbox's other tenants moves one window, not
// the metric.
func (p *phase) perSecond() float64 {
	ends := append([]time.Time(nil), p.end...)
	sort.Slice(ends, func(i, j int) bool { return ends[i].Before(ends[j]) })
	first := len(ends) / 20 // the last warm-up completion opens window 0
	if first == 0 {
		first = 1
	}
	size := max((len(ends)-first)/throughputWindows, 1)
	var rates []float64
	for from := first; from+size <= len(ends); from += size {
		rates = append(rates, float64(size)/ends[from+size-1].Sub(ends[from-1]).Seconds())
	}
	return median(rates)
}

// closedLoop runs n ops from the given clients, each client sending its
// next op only after the previous one completed. Ops are handed out in
// list order from a shared cursor, so the op sequence is fixed and only
// its split between clients varies. do times its own request (so that
// checking the answer is not part of the latency) and reports the op's
// failure: a transport error, a non-2xx status or a wrong answer.
func closedLoop(ctx context.Context, clients []*client.Client, n int, do func(ctx context.Context, c *client.Client, i int) (time.Duration, error)) *phase {
	p := &phase{lat: make([]time.Duration, n), end: make([]time.Time, n)}
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				lat, err := do(ctx, c, i)
				p.lat[i], p.end[i] = lat, time.Now()
				if err != nil {
					mu.Lock()
					p.failed++
					if p.firstErr == nil {
						p.firstErr = fmt.Errorf("op %d: %w", i, err)
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return p
}

// answer is a reference answer in wire form: what the HTTP response's
// groups must equal, value for value.
type answer []apiv1.Group

// toAnswer renders an interpreter result the way the server renders a
// plan result, so the two can be compared field by field.
func toAnswer(res *exec.Result) answer {
	out := make(answer, len(res.Rows))
	for i, row := range res.Rows {
		out[i] = apiv1.Group{Set: row.Set, Key: row.Key, Aggs: apiv1.Float64s(row.Aggs)}
		if row.SE != nil {
			out[i].SE = apiv1.Float64s(row.SE)
		}
	}
	return out
}

// matches reports whether got equals the reference: the same groups
// with the same aggregates and standard errors, bit for bit (JSON
// round-trips a float64 exactly). Group order is not part of the
// contract, so a same-order comparison is tried first and a keyed one
// second.
func (a answer) matches(got []apiv1.Group) bool {
	if len(a) != len(got) {
		return false
	}
	inOrder := true
	for i := range a {
		if !sameGroup(a[i], got[i]) {
			inOrder = false
			break
		}
	}
	if inOrder {
		return true
	}
	byKey := make(map[string]apiv1.Group, len(a))
	for _, g := range a {
		byKey[exec.KeyOf(g.Set, g.Key)] = g
	}
	for _, g := range got {
		want, ok := byKey[exec.KeyOf(g.Set, g.Key)]
		if !ok || !sameGroup(want, g) {
			return false
		}
	}
	return true
}

func sameGroup(a, b apiv1.Group) bool {
	return a.Set == b.Set && slices.Equal(a.Key, b.Key) && sameFloats(a.Aggs, b.Aggs) && sameFloats(a.SE, b.SE)
}

func sameFloats(a, b []*float64) bool {
	return slices.EqualFunc(a, b, func(x, y *float64) bool {
		if x == nil || y == nil {
			return x == y
		}
		return *x == *y
	})
}
