package core

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/obs"
	"repro/internal/tracegen"
)

// determinismConfig is a small but non-trivial fleet: enough cars to
// exercise the parallel workers and enough gate traffic that the
// matchers and the shared Router's path cache are hit from several
// goroutines at once.
func determinismConfig() Config {
	return Config{
		CitySeed: 42,
		Fleet: tracegen.Config{
			Seed:            42,
			Cars:            3,
			TripsPerCar:     8,
			GateRunFraction: 0.35,
		},
	}
}

// TestRunParallelMatchesSerial asserts that the concurrent Pipeline.Run
// produces byte-identical results to a serial per-car loop. This is the
// guarantee that the shared Router — its sync.Pool scratch, pooled
// heaps and sharded path cache — leaks no state between cars: cache
// warmth and scratch reuse may change timings, never results.
func TestRunParallelMatchesSerial(t *testing.T) {
	parallel, err := NewPipeline(determinismConfig())
	if err != nil {
		t.Fatal(err)
	}
	parRes, err := parallel.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	serial, err := NewPipeline(determinismConfig())
	if err != nil {
		t.Fatal(err)
	}
	serRes := &Result{Cars: make([]CarResult, serial.Gen.Cars())}
	for car := 1; car <= serial.Gen.Cars(); car++ {
		cr, err := serial.RunCarContext(context.Background(), car)
		if err != nil {
			t.Fatalf("car %d: %v", car, err)
		}
		serRes.Cars[car-1] = cr
	}

	parJSON, err := json.Marshal(parRes)
	if err != nil {
		t.Fatal(err)
	}
	serJSON, err := json.Marshal(serRes)
	if err != nil {
		t.Fatal(err)
	}
	if len(parRes.Transitions()) == 0 {
		t.Fatal("degenerate test: no transitions produced")
	}
	if !bytes.Equal(parJSON, serJSON) {
		t.Fatalf("parallel Run() diverged from the serial per-car loop:\nparallel %d bytes, serial %d bytes",
			len(parJSON), len(serJSON))
	}

	// Re-running a warmed pipeline must also be stable: every cached
	// path the second pass reads was produced by the deterministic
	// bidirectional search the first pass ran.
	again, err := parallel.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	againJSON, err := json.Marshal(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(parJSON, againJSON) {
		t.Fatal("re-running a warmed pipeline changed the results")
	}
	if s := parallel.Router.CacheStats(); s.Hits == 0 {
		t.Fatalf("expected path-cache hits on the warmed re-run, got %+v", s)
	}

	// Instrumentation must not perturb determinism: a pipeline with a
	// live metrics registry produces byte-identical output.
	cfg := determinismConfig()
	cfg.Metrics = obs.NewRegistry()
	instrumented, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	insRes, err := instrumented.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	insJSON, err := json.Marshal(insRes)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(parJSON, insJSON) {
		t.Fatal("enabling metrics changed the pipeline output")
	}
	if _, _, err := instrumented.GridAnalysis(insRes.Transitions()); err != nil {
		t.Fatal(err)
	}
	snap := cfg.Metrics.Snapshot()
	if got := snap.Counters["pipeline_cars_processed"]; got != 3 {
		t.Fatalf("pipeline_cars_processed = %d, want 3", got)
	}
	for _, stage := range StageNames {
		if h := snap.Histograms["pipeline_"+stage+"_duration_seconds"]; h.Count == 0 {
			t.Errorf("stage %s recorded no spans", stage)
		}
		if g := snap.Gauges["pipeline_"+stage+"_active"]; g != 0 {
			t.Errorf("stage %s active gauge did not return to 0: %v", stage, g)
		}
	}

	// The strict invariant checker must not perturb determinism either:
	// checks observe stage outputs, never mutate them, so a strict run
	// over invariant-respecting data is byte-identical — and records
	// zero violations.
	ccfg := determinismConfig()
	ccfg.Metrics = obs.NewRegistry()
	ccfg.Check = check.Config{Strict: true}
	checked, err := NewPipeline(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	chkRes, err := checked.RunContext(context.Background())
	if err != nil {
		t.Fatalf("strict checker failed a clean fleet: %v", err)
	}
	chkJSON, err := json.Marshal(chkRes)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(parJSON, chkJSON) {
		t.Fatal("enabling the strict checker changed the pipeline output")
	}
	if _, _, err := checked.GridAnalysis(chkRes.Transitions()); err != nil {
		t.Fatal(err)
	}
	for name, n := range ccfg.Metrics.Snapshot().Counters {
		if strings.HasPrefix(name, "check_violations_total") && n != 0 {
			t.Errorf("clean fleet recorded violations: %s = %d", name, n)
		}
	}
}
