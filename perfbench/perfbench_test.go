package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/sink"
	"repro/internal/trace"
)

// benchmarkSpec is the part of ../BENCHMARK.json the tests check
// against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// smallRun runs one workload on a small fleet for a short time and
// returns the decoded result line.
func smallRun(t *testing.T, workload string, traced bool) reportJSON {
	t.Helper()
	var out bytes.Buffer
	o := options{workload: workload, seed: 7, seconds: 1, trace: traced, out: t.TempDir(), scale: 0.05}
	if err := run(o, &out); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep reportJSON
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", workload, err, out.String())
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d\n%s", workload, rep.Correct, rep.Attempted, rep.Failed, out.String())
	}
	return rep
}

// TestEveryWorkloadReportsEveryMetric runs each workload small, untraced
// and traced, and requires exactly the metrics BENCHMARK.json names,
// with their units.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			rep := smallRun(t, w.Name, traced)
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s traced=%v: %s unit %q, want %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestCorruptedBatchReferenceFails corrupts the batch workload's
// reference snapshot and requires the run to report incorrect output.
func TestCorruptedBatchReferenceFails(t *testing.T) {
	o := options{workload: "batch", seed: 7, seconds: 0.5, scale: 0.05}
	var w batchWorkload
	if err := w.prepare(o); err != nil {
		t.Fatal(err)
	}
	w.want = corrupt(w.want)
	res, _, err := w.measure(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.problems) == 0 || res.failed == 0 {
		t.Fatal("a corrupted reference passed the batch check")
	}
	var out bytes.Buffer
	if err := report(&out, o, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"correct":false`) {
		t.Fatalf("report does not say incorrect:\n%s", out.String())
	}
}

// TestCorruptedFirehoseReferenceFails does the same for the streamed
// snapshot's batch-equivalence check.
func TestCorruptedFirehoseReferenceFails(t *testing.T) {
	o := options{workload: "firehose", seed: 7, seconds: 0.5, scale: 0.05}
	var w firehoseWorkload
	if err := w.prepare(o); err != nil {
		t.Fatal(err)
	}
	w.want = corrupt(w.want)
	res, _, err := w.measure(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.problems) == 0 {
		t.Fatal("a corrupted reference passed the firehose check")
	}
}

// corrupt returns a copy of s whose first cell mean is off by far more
// than accumulation-order rounding.
func corrupt(s *sink.Snapshot) *sink.Snapshot {
	bad := *s
	bad.Cells = map[grid.CellID]sink.CellStats{}
	for id, c := range s.Cells {
		bad.Cells[id] = c
	}
	id := s.CellIDs()[0]
	c := bad.Cells[id]
	c.MeanKmh *= 1 + 1e-6
	bad.Cells[id] = c
	return &bad
}

// TestCompareSnapshotsTolerance pins the comparison: accumulation-order
// rounding passes, anything larger or any count change fails.
func TestCompareSnapshotsTolerance(t *testing.T) {
	id := grid.CellID{I: 1, J: 2}
	base := &sink.Snapshot{Complete: true, Points: 10,
		Cells: map[grid.CellID]sink.CellStats{id: {N: 10, MeanKmh: 30, VarKmh: 4, MinKmh: 1, MaxKmh: 50}}}
	with := func(f func(*sink.Snapshot, *sink.CellStats)) *sink.Snapshot {
		s := *base
		c := base.Cells[id]
		f(&s, &c)
		s.Cells = map[grid.CellID]sink.CellStats{id: c}
		return &s
	}
	if d := compareSnapshots(with(func(_ *sink.Snapshot, c *sink.CellStats) { c.MeanKmh = 30 * (1 + 1e-12) }), base); d != nil {
		t.Fatalf("rounding-level difference reported: %v", d)
	}
	for name, s := range map[string]*sink.Snapshot{
		"mean":   with(func(_ *sink.Snapshot, c *sink.CellStats) { c.MeanKmh = 30.001 }),
		"count":  with(func(_ *sink.Snapshot, c *sink.CellStats) { c.N = 11 }),
		"points": with(func(s *sink.Snapshot, _ *sink.CellStats) { s.Points = 11 }),
		"sealed": with(func(s *sink.Snapshot, _ *sink.CellStats) { s.Complete = false }),
	} {
		if compareSnapshots(s, base) == nil {
			t.Errorf("%s difference not reported", name)
		}
	}
}

// TestQuantileFallsBackToSupportedPercentile checks the sample-count
// rule: a percentile with fewer than ten samples beyond it falls back
// to the highest one that has ten, and failures count as misses.
func TestQuantileFallsBackToSupportedPercentile(t *testing.T) {
	var l latencies
	for i := 0; i < 100; i++ {
		l.ms = append(l.ms, float64(i))
	}
	if v, used, n := l.quantile(0.99); math.Abs(used-0.9) > 1e-12 || n != 100 || v != 89 {
		t.Fatalf("p99 of 100 samples = %v (used p%v, n=%d), want p90 = 89", v, used, n)
	}
	l.fail()
	if v, _, _ := l.quantile(0.5); v != 50 {
		t.Fatalf("p50 with one failure = %v, want 50", v)
	}
}

// TestQuantileIsPlainNearestRank checks that a stalled stretch of the
// stream counts in full: 3000 samples, 40 of them stalled, give a p99
// inside the stall.
func TestQuantileIsPlainNearestRank(t *testing.T) {
	var l latencies
	for i := 0; i < 3000; i++ {
		v := float64(i%100) / 10 // 0 .. 9.9 ms
		if i >= 1000 && i < 1040 {
			v += 100 // the stalled stretch
		}
		l.ms = append(l.ms, v)
	}
	v, used, n := l.quantile(0.99)
	if used != 0.99 || n != 3000 || v < 100 {
		t.Fatalf("p99 = %v (p%v of n=%d), want a stalled sample", v, used, n)
	}
}

// TestUniqueTimesKeepsFirstOfEachMillisecond checks the firehose
// generator's tie rule: within a trip, a point sharing its millisecond
// with an earlier point is dropped; other trips are independent.
func TestUniqueTimesKeepsFirstOfEachMillisecond(t *testing.T) {
	t0 := time.UnixMilli(1_000_000).UTC()
	pt := func(id int, ms int64, us int64) trace.RoutePoint {
		return trace.RoutePoint{PointID: id, Time: t0.Add(time.Duration(ms)*time.Millisecond + time.Duration(us)*time.Microsecond)}
	}
	a := &trace.Trip{ID: 1, Points: []trace.RoutePoint{pt(1, 0, 0), pt(2, 5, 0), pt(3, 0, 300), pt(4, 5, 0), pt(5, 9, 0)}}
	b := &trace.Trip{ID: 2, Points: []trace.RoutePoint{pt(1, 0, 0), pt(2, 5, 0)}}
	d := &testData{byCar: map[int][]*trace.Trip{1: {a, b}}}
	if n := d.uniqueTimes(); n != 2 {
		t.Fatalf("dropped %d points, want 2", n)
	}
	var ids []int
	for _, p := range a.Points {
		ids = append(ids, p.PointID)
	}
	if fmt.Sprint(ids) != "[1 2 5]" || len(b.Points) != 2 {
		t.Fatalf("kept ids %v and %d points of the second trip, want [1 2 5] and 2", ids, len(b.Points))
	}
}
