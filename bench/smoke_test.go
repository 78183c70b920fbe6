package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

func smokeConfig(t *testing.T, workload string, trace bool) config {
	dir := t.TempDir()
	return config{workload: workload, seed: 5, seconds: defaultSeconds, trace: trace, scale: "smoke",
		workDir: filepath.Join(dir, "work"), outDir: filepath.Join(dir, "out")}
}

// Every workload, end to end at smoke scale, including the correctness
// gate: no op may fail, and every end-to-end metric must be measured.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			cfg := smokeConfig(t, w, false)
			r := newRun(cfg)
			err := r.execute(context.Background())
			r.tearDown()
			if err != nil {
				t.Fatal(err)
			}
			rec, err := r.record()
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Fatalf("correct=%v failed=%d attempted=%d\n%s", rec.Correct, rec.Failed, rec.Attempted, r.report())
			}
			res := rec.result()
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics on the result line, want %d", len(res.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				if v := res.Metrics[d.Name]; !(v.Value > 0) || v.Unit != d.Unit {
					t.Errorf("%s = %v %s", d.Name, v.Value, v.Unit)
				}
			}
			if left, _ := os.ReadDir(cfg.workDir); len(left) != 0 {
				t.Errorf("%d entries left behind in the work directory", len(left))
			}
		})
	}
}

// The traced run reports every per-layer metric and writes the spans.
func TestSmokeTracedRun(t *testing.T) {
	cfg := smokeConfig(t, wlDashSample, true)
	r := newRun(cfg)
	err := r.execute(context.Background())
	r.tearDown()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := r.record()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Failed != 0 {
		t.Fatalf("%d ops failed\n%s", rec.Failed, r.report())
	}
	res := rec.result()
	for _, d := range perLayer {
		if _, ok := rec.Metrics[d.Name]; !ok {
			t.Errorf("per-layer metric %s missing", d.Name)
		}
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d metrics on the result line, want %d", len(res.Metrics), len(perLayer))
	}
	if rec.Metrics["serve.plan_compiles"] < 1 || rec.Metrics["serve.interpreted_share"] != 0 {
		t.Errorf("plan compiles %v, interpreted share %v", rec.Metrics["serve.plan_compiles"], rec.Metrics["serve.interpreted_share"])
	}
	info, err := os.Stat(filepath.Join(cfg.outDir, wlDashSample+".trace.jsonl"))
	if err != nil || info.Size() == 0 {
		t.Errorf("span file: %v", err)
	}
}

// A canceled run stops, reports no result and leaves nothing behind.
func TestCanceledRunCleansUp(t *testing.T) {
	cfg := smokeConfig(t, wlStreamIngest, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := newRun(cfg)
	err := r.execute(ctx)
	r.tearDown()
	if err == nil {
		t.Fatal("a canceled run reported success")
	}
	if left, _ := os.ReadDir(cfg.workDir); len(left) != 0 {
		t.Errorf("%d entries left behind in the work directory", len(left))
	}
}
