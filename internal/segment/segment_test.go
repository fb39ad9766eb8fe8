package segment

import (
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/trace"
)

var t0 = time.Date(2012, 10, 1, 8, 0, 0, 0, time.UTC)

// builder assembles synthetic trips point by point.
type builder struct {
	tr  *trace.Trip
	now time.Time
	pos geo.XY
	id  int
}

func newBuilder() *builder {
	return &builder{tr: &trace.Trip{ID: 1, CarID: 1}, now: t0}
}

// drive appends points moving east at stepM per stepDT for n steps.
func (b *builder) drive(n int, stepM float64, stepDT time.Duration) *builder {
	for i := 0; i < n; i++ {
		b.pos.X += stepM
		b.now = b.now.Add(stepDT)
		b.emit()
	}
	return b
}

// idle appends points standing still, one per interval, for total time.
func (b *builder) idle(total, interval time.Duration) *builder {
	for waited := interval; waited <= total; waited += interval {
		b.now = b.now.Add(interval)
		b.emit()
	}
	return b
}

// gap advances time and position without emitting.
func (b *builder) gap(d time.Duration, moveM float64) *builder {
	b.now = b.now.Add(d)
	b.pos.X += moveM
	return b
}

func (b *builder) emit() {
	b.id++
	b.tr.Points = append(b.tr.Points, trace.RoutePoint{
		PointID: b.id, TripID: 1, Pos: b.pos, Time: b.now,
	})
}

func lengths(segs []*trace.Trip) []int {
	out := make([]int, len(segs))
	for i, s := range segs {
		out[i] = len(s.Points)
	}
	return out
}

func TestSplitNoStops(t *testing.T) {
	tr := newBuilder().drive(10, 100, 30*time.Second).tr
	segs := Split(tr, DefaultRules(), nil)
	if len(segs) != 1 || len(segs[0].Points) != 10 {
		t.Fatalf("continuous trip split: %v", lengths(segs))
	}
}

func TestRule1StillGap(t *testing.T) {
	// Drive, stand 4 min (heartbeat points 80 s apart), drive again.
	tr := newBuilder().
		drive(6, 100, 30*time.Second).
		idle(4*time.Minute, 80*time.Second).
		drive(6, 100, 30*time.Second).tr
	var stats Stats
	segs := Split(tr, DefaultRules(), &stats)
	if len(segs) < 2 {
		t.Fatalf("stand not split: %v", lengths(segs))
	}
	if stats.StopGapsByRule[0] == 0 {
		t.Fatalf("rule 1 did not fire: %+v", stats.StopGapsByRule)
	}
}

func TestRule2SlowGap(t *testing.T) {
	// A single 8-minute silent gap moving only 500 m.
	tr := newBuilder().
		drive(6, 100, 30*time.Second).
		gap(8*time.Minute, 500).
		drive(6, 100, 30*time.Second).tr
	var stats Stats
	segs := Split(tr, DefaultRules(), &stats)
	if len(segs) != 2 {
		t.Fatalf("slow gap not split: %v", lengths(segs))
	}
	if stats.StopGapsByRule[1] == 0 {
		t.Fatalf("rule 2 did not fire: %+v", stats.StopGapsByRule)
	}
}

func TestRule3Crawl(t *testing.T) {
	// Movement below 0.002 m/s: 0.05 m over 30 s.
	tr := newBuilder().
		drive(6, 100, 30*time.Second).
		drive(1, 0.05, 30*time.Second).
		drive(6, 100, 30*time.Second).tr
	var stats Stats
	segs := Split(tr, DefaultRules(), &stats)
	if len(segs) != 2 {
		t.Fatalf("crawl not split: %v", lengths(segs))
	}
	if stats.StopGapsByRule[2] == 0 {
		t.Fatalf("rule 3 did not fire: %+v", stats.StopGapsByRule)
	}
}

func TestRule4LongSlowGap(t *testing.T) {
	// 16 minutes, 1 km moved: above crawl speed, below 3 km.
	tr := newBuilder().
		drive(6, 100, 30*time.Second).
		gap(16*time.Minute, 1000).
		drive(6, 100, 30*time.Second).tr
	var stats Stats
	segs := Split(tr, DefaultRules(), &stats)
	if len(segs) != 2 {
		t.Fatalf("long slow gap not split: %v", lengths(segs))
	}
	if stats.StopGapsByRule[3] == 0 {
		t.Fatalf("rule 4 did not fire: %+v", stats.StopGapsByRule)
	}
}

func TestRule5Resplit(t *testing.T) {
	// 60 km of driving with a 2-minute pause in the middle: rules 1-4
	// miss it (2 min < 3 min), rule 5 re-splits at 1.5 min.
	b := newBuilder().drive(300, 100, 9*time.Second) // 30 km fast driving
	// A 2-minute pause moving only 10 m: rules 1-4 all miss it (too
	// short for rule 1, too slow-but-moving for rule 3).
	b.gap(2*time.Minute, 10)
	b.emit()
	b.drive(300, 100, 9*time.Second)
	var stats Stats
	segs := Split(b.tr, DefaultRules(), &stats)
	if stats.Resplit == 0 {
		t.Fatalf("rule 5 never engaged: %+v", stats)
	}
	if stats.StopGapsByRule[4] == 0 {
		t.Fatalf("rule 5 gap not recorded: %+v", stats.StopGapsByRule)
	}
	// Both halves are 30 km; the <=30 km filter keeps them.
	if len(segs) != 2 {
		t.Fatalf("resplit produced %d segments: %v", len(segs), lengths(segs))
	}
}

func TestPostFilterMinPoints(t *testing.T) {
	tr := newBuilder().
		drive(3, 100, 30*time.Second). // only 3 points
		idle(5*time.Minute, 80*time.Second).
		drive(8, 100, 30*time.Second).tr
	var stats Stats
	segs := Split(tr, DefaultRules(), &stats)
	if stats.TooFewPoints == 0 {
		t.Fatalf("short segment not dropped: %+v", stats)
	}
	for _, s := range segs {
		if len(s.Points) < DefaultRules().MinPoints {
			t.Fatalf("kept a %d-point segment", len(s.Points))
		}
	}
}

func TestPostFilterMaxLength(t *testing.T) {
	// One continuous 35 km drive: no stops, too long, dropped.
	tr := newBuilder().drive(350, 100, 9*time.Second).tr
	var stats Stats
	segs := Split(tr, DefaultRules(), &stats)
	if len(segs) != 0 || stats.TooLong != 1 {
		t.Fatalf("long trip kept: %v (stats %+v)", lengths(segs), stats)
	}
}

func TestSegmentsPreserveIDAndDistinctKeys(t *testing.T) {
	tr := newBuilder().
		drive(6, 100, 30*time.Second).
		idle(5*time.Minute, 80*time.Second).
		drive(6, 100, 30*time.Second).tr
	segs := Split(tr, DefaultRules(), nil)
	if len(segs) < 2 {
		t.Fatalf("want >=2 segments, got %v", lengths(segs))
	}
	keys := map[trace.Key]bool{}
	for _, s := range segs {
		if s.ID != tr.ID {
			t.Fatalf("segment lost trip id: %d", s.ID)
		}
		k := s.Key()
		if keys[k] {
			t.Fatalf("duplicate segment key %v", k)
		}
		keys[k] = true
	}
}

// TestSplitStatsAccumulate: one Stats shared across Split calls sums
// over every trip of a car.
func TestSplitStatsAccumulate(t *testing.T) {
	a := newBuilder().drive(8, 100, 30*time.Second).tr
	b := newBuilder().
		drive(6, 100, 30*time.Second).
		idle(5*time.Minute, 80*time.Second).
		drive(6, 100, 30*time.Second).tr
	var stats Stats
	var segs []*trace.Trip
	for _, tr := range []*trace.Trip{a, b} {
		segs = append(segs, Split(tr, DefaultRules(), &stats)...)
	}
	if stats.InputTrips != 2 {
		t.Fatalf("InputTrips = %d", stats.InputTrips)
	}
	if stats.KeptSegments != len(segs) {
		t.Fatalf("KeptSegments %d != len %d", stats.KeptSegments, len(segs))
	}
	if stats.TotalKeptLength <= 0 {
		t.Fatal("TotalKeptLength not accumulated")
	}
}

func TestSplitEmptyTrip(t *testing.T) {
	segs := Split(&trace.Trip{ID: 1}, DefaultRules(), nil)
	if len(segs) != 0 {
		t.Fatalf("empty trip produced %d segments", len(segs))
	}
}

func TestSplitPreservesAllPoints(t *testing.T) {
	// Segmentation must partition the points: nothing lost before the
	// post-filters.
	tr := newBuilder().
		drive(7, 100, 30*time.Second).
		idle(4*time.Minute, 80*time.Second).
		drive(9, 100, 30*time.Second).tr
	rules := DefaultRules()
	rules.MinPoints = 1 // disable dropping for this check
	var stats Stats
	segs := Split(tr, rules, &stats)
	total := 0
	for _, s := range segs {
		total += len(s.Points)
	}
	// Segmentation partitions the points up to the heartbeat points
	// discarded inside detected stops.
	if total+stats.DroppedStopPoints != len(tr.Points) {
		t.Fatalf("segments hold %d + %d dropped, input had %d",
			total, stats.DroppedStopPoints, len(tr.Points))
	}
}

func TestZeroDTGapIgnored(t *testing.T) {
	b := newBuilder().drive(6, 100, 30*time.Second)
	// Duplicate timestamp at a new position: dt == 0 must not split or
	// divide by zero.
	b.pos.X += 100
	b.emit()
	b.drive(4, 100, 30*time.Second)
	segs := Split(b.tr, DefaultRules(), nil)
	if len(segs) != 1 {
		t.Fatalf("zero-dt gap split the trip: %v", lengths(segs))
	}
}

func TestSplitIdempotent(t *testing.T) {
	// Re-splitting the kept segments must not split further: the
	// pipeline can safely re-run segmentation.
	tr := newBuilder().
		drive(8, 100, 30*time.Second).
		idle(5*time.Minute, 80*time.Second).
		drive(8, 100, 30*time.Second).
		gap(8*time.Minute, 500).
		drive(8, 100, 30*time.Second).tr
	first := Split(tr, DefaultRules(), nil)
	if len(first) < 3 {
		t.Fatalf("setup: expected >=3 segments, got %d", len(first))
	}
	for i, seg := range first {
		again := Split(seg, DefaultRules(), nil)
		if len(again) != 1 {
			t.Fatalf("segment %d re-split into %d", i, len(again))
		}
		if len(again[0].Points) != len(seg.Points) {
			t.Fatalf("segment %d lost points on re-split", i)
		}
	}
}

// --- Post-filter boundary semantics -------------------------------
//
// The paper's filters are "fewer than five route points" and "longer
// than 30 km": both are strict, so a segment with exactly MinPoints
// points or exactly MaxLengthM metres is kept. These tests pin the
// comparison direction against off-by-one regressions.

func TestPostFilterExactlyMinPointsKept(t *testing.T) {
	rules := DefaultRules()
	tr := newBuilder().drive(rules.MinPoints, 100, 30*time.Second).tr
	var stats Stats
	segs := Split(tr, rules, &stats)
	if len(segs) != 1 || len(segs[0].Points) != rules.MinPoints {
		t.Fatalf("exactly-%d-point segment not kept: %v (stats %+v)",
			rules.MinPoints, lengths(segs), stats)
	}
	// One point fewer crosses the boundary.
	tr = newBuilder().drive(rules.MinPoints-1, 100, 30*time.Second).tr
	if segs := Split(tr, rules, nil); len(segs) != 0 {
		t.Fatalf("%d-point segment kept: %v", rules.MinPoints-1, lengths(segs))
	}
}

func TestPostFilterExactlyMaxLengthKept(t *testing.T) {
	rules := DefaultRules()
	// 5 points, 4 legs of 7.5 km in 1 min each: exactly 30 000 m.
	tr := newBuilder().drive(5, rules.MaxLengthM/4, time.Minute).tr
	if l := trace.PathLength(tr.Points); l != rules.MaxLengthM {
		t.Fatalf("setup: trip is %.1f m, want exactly %.1f", l, rules.MaxLengthM)
	}
	var stats Stats
	segs := Split(tr, rules, &stats)
	if len(segs) != 1 || stats.TooLong != 0 {
		t.Fatalf("exactly-%.0f-m segment not kept: %v (stats %+v)",
			rules.MaxLengthM, lengths(segs), stats)
	}
	// One extra metre over the four legs crosses the boundary.
	tr = newBuilder().drive(5, (rules.MaxLengthM+1)/4, time.Minute).tr
	segs = Split(tr, rules, &stats)
	if len(segs) != 0 || stats.TooLong != 1 {
		t.Fatalf("over-length segment kept: %v (stats %+v)", lengths(segs), stats)
	}
}

// TestSplitZeroDurationPairs feeds a trip whose consecutive points all
// share one timestamp. The gap rules divide by dt; they must treat
// dt <= 0 as "no stop" rather than producing an Inf/NaN speed that
// fires rule 3.
func TestSplitZeroDurationPairs(t *testing.T) {
	tr := &trace.Trip{ID: 1, CarID: 1}
	for i := 0; i < 6; i++ {
		tr.Points = append(tr.Points, trace.RoutePoint{
			PointID: i + 1, TripID: 1,
			Pos:  geo.V(float64(i)*100, 0),
			Time: t0, // every pair has dt == 0
		})
	}
	var stats Stats
	segs := Split(tr, DefaultRules(), &stats)
	if len(segs) != 1 || len(segs[0].Points) != 6 {
		t.Fatalf("zero-duration trip mangled: %v (stats %+v)", lengths(segs), stats)
	}
	if got := stats.StopGapsByRule; got != [5]int{} {
		t.Fatalf("zero-duration gaps classified as stops: %v", got)
	}
}

// TestSubTripDoesNotAliasParent pins that segments copy their point
// slices: writing through a returned segment must never reach the
// cleaned source trip other stages still hold.
func TestSubTripDoesNotAliasParent(t *testing.T) {
	tr := newBuilder().
		drive(6, 100, 30*time.Second).
		idle(5*time.Minute, 80*time.Second).
		drive(6, 100, 30*time.Second).tr
	segs := Split(tr, DefaultRules(), nil)
	if len(segs) < 2 {
		t.Fatalf("want >=2 segments, got %v", lengths(segs))
	}
	for _, s := range segs {
		for i := range s.Points {
			s.Points[i].PointID = -1
			s.Points[i].Pos = geo.V(-1e9, -1e9)
		}
	}
	for i, p := range tr.Points {
		if p.PointID == -1 || p.Pos.X == -1e9 {
			t.Fatalf("segment mutation reached parent point %d", i)
		}
	}
}
