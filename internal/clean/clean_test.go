package clean

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/geo"
	"repro/internal/trace"
)

var t0 = time.Date(2012, 10, 1, 8, 0, 0, 0, time.UTC)

// straightTrip builds a clean eastbound trip with n points 100 m and
// 30 s apart, in true order.
func straightTrip(n int) *trace.Trip {
	tr := &trace.Trip{ID: 1, CarID: 1}
	for i := 0; i < n; i++ {
		tr.Points = append(tr.Points, trace.RoutePoint{
			PointID:  i + 1,
			TripID:   1,
			Pos:      geo.V(float64(i)*100, 0),
			Time:     t0.Add(time.Duration(i) * 30 * time.Second),
			SpeedKmh: 12,
			FuelMl:   float64(i) * 8,
			DistM:    float64(i) * 100,
		})
	}
	return tr
}

func TestRepairCleanTripUnchanged(t *testing.T) {
	tr := straightTrip(6)
	r := Repair(tr, Config{})
	if r.Trip == nil || r.Dropped != 0 || r.Reordered {
		t.Fatalf("clean trip mangled: %+v", r)
	}
	if r.LengthByID != r.LengthByTime {
		t.Fatalf("lengths differ on a clean trip: %f vs %f", r.LengthByID, r.LengthByTime)
	}
	for i, p := range r.Trip.Points {
		if p.Pos != tr.Points[i].Pos || p.PointID != i+1 {
			t.Fatalf("point %d changed", i)
		}
	}
}

func TestRepairDoesNotModifyInput(t *testing.T) {
	tr := straightTrip(5)
	tr.Points[1], tr.Points[3] = tr.Points[3], tr.Points[1] // shuffled arrival
	snapshot := append([]trace.RoutePoint(nil), tr.Points...)
	Repair(tr, Config{})
	for i := range snapshot {
		if tr.Points[i] != snapshot[i] {
			t.Fatal("Repair mutated its input")
		}
	}
}

func TestRepairArrivalShuffle(t *testing.T) {
	tr := straightTrip(8)
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(tr.Points), func(i, j int) {
		tr.Points[i], tr.Points[j] = tr.Points[j], tr.Points[i]
	})
	r := Repair(tr, Config{})
	if !r.Reordered {
		t.Fatal("shuffled trip not flagged as reordered")
	}
	for i, p := range r.Trip.Points {
		if p.Pos != (geo.V(float64(i)*100, 0)) {
			t.Fatalf("point %d at %v, want x=%d00", i, p.Pos, i)
		}
	}
}

func TestRepairPicksTimestampWhenIDsGlitched(t *testing.T) {
	tr := straightTrip(8)
	// Swap ids of points 3 and 4 (0-based 2,3): id ordering zigzags.
	tr.Points[2].PointID, tr.Points[3].PointID = tr.Points[3].PointID, tr.Points[2].PointID
	r := Repair(tr, Config{})
	if r.ChosenOrder != OrderByTime {
		t.Fatalf("chose %v, want timestamp (lenID=%f lenTime=%f)",
			r.ChosenOrder, r.LengthByID, r.LengthByTime)
	}
	if r.LengthByID <= r.LengthByTime {
		t.Fatalf("id length %f must exceed time length %f", r.LengthByID, r.LengthByTime)
	}
	// Cleaned geometry must be the straight line.
	if got := trace.PathLength(r.Trip.Points); math.Abs(got-700) > 1e-9 {
		t.Fatalf("cleaned length = %f, want 700", got)
	}
}

func TestRepairPicksIDWhenTimestampsGlitched(t *testing.T) {
	tr := straightTrip(8)
	tr.Points[4].Time, tr.Points[5].Time = tr.Points[5].Time, tr.Points[4].Time
	r := Repair(tr, Config{})
	if r.ChosenOrder != OrderByID {
		t.Fatalf("chose %v, want id", r.ChosenOrder)
	}
	if got := trace.PathLength(r.Trip.Points); math.Abs(got-700) > 1e-9 {
		t.Fatalf("cleaned length = %f, want 700", got)
	}
}

func TestRealignMonotonicity(t *testing.T) {
	tr := straightTrip(8)
	// Corrupt both timestamps (swap) and shuffle arrival.
	tr.Points[4].Time, tr.Points[5].Time = tr.Points[5].Time, tr.Points[4].Time
	tr.Points[0], tr.Points[6] = tr.Points[6], tr.Points[0]
	r := Repair(tr, Config{})
	pts := r.Trip.Points
	for i := 1; i < len(pts); i++ {
		if pts[i].PointID != pts[i-1].PointID+1 {
			t.Fatalf("ids not sequential at %d", i)
		}
		if pts[i].Time.Before(pts[i-1].Time) {
			t.Fatalf("time not monotone at %d", i)
		}
		if pts[i].FuelMl < pts[i-1].FuelMl || pts[i].DistM < pts[i-1].DistM {
			t.Fatalf("cumulative measurements not monotone at %d", i)
		}
	}
}

func TestFilterDropsInvalid(t *testing.T) {
	tr := straightTrip(6)
	tr.Points[1].Pos = geo.V(math.NaN(), 0)
	tr.Points[2].SpeedKmh = math.Inf(1)
	tr.Points[3].Time = time.Time{}
	r := Repair(tr, Config{})
	if r.Dropped != 3 {
		t.Fatalf("dropped %d, want 3", r.Dropped)
	}
	if len(r.Trip.Points) != 3 {
		t.Fatalf("kept %d, want 3", len(r.Trip.Points))
	}
}

func TestFilterDropsDuplicateIDs(t *testing.T) {
	tr := straightTrip(5)
	tr.Points[3].PointID = tr.Points[2].PointID
	r := Repair(tr, Config{})
	if r.Dropped != 1 || len(r.Trip.Points) != 4 {
		t.Fatalf("dup handling: dropped=%d kept=%d", r.Dropped, len(r.Trip.Points))
	}
}

func TestFilterDropsGPSSpike(t *testing.T) {
	tr := straightTrip(7)
	tr.Points[3].Pos = geo.V(300, 50000) // 50 km sideways in 30 s
	r := Repair(tr, Config{})
	if r.Dropped != 1 {
		t.Fatalf("spike not dropped: %+v", r)
	}
	for _, p := range r.Trip.Points {
		if p.Pos.Y > 1000 {
			t.Fatal("spike survived")
		}
	}
}

func TestFilterArea(t *testing.T) {
	tr := straightTrip(6)
	cfg := Config{Area: geo.R(-10, -10, 250, 10)}
	r := Repair(tr, cfg)
	if len(r.Trip.Points) != 3 || r.Dropped != 3 {
		t.Fatalf("area filter kept %d dropped %d", len(r.Trip.Points), r.Dropped)
	}
}

func TestRepairEmptyAndSingle(t *testing.T) {
	r := Repair(&trace.Trip{ID: 1}, Config{})
	if r.Trip != nil {
		t.Fatal("empty trip must yield nil")
	}
	tr := straightTrip(1)
	r = Repair(tr, Config{})
	if r.Trip == nil || len(r.Trip.Points) != 1 {
		t.Fatalf("single-point trip mishandled: %+v", r)
	}
}

// TestDropStatsAttribution checks every reason is counted in its own
// bucket and that the buckets always sum to Dropped.
func TestDropStatsAttribution(t *testing.T) {
	tr := straightTrip(8)
	tr.Points[1].SpeedKmh = math.NaN()                // non_finite
	tr.Points[2].PointID = tr.Points[3].PointID       // duplicate_id
	tr.Points[4].Pos = geo.V(tr.Points[4].Pos.X, 1e7) // spike (inside area)
	tr.Points[6].Pos = geo.V(-9e5, 0)                 // out_of_area
	cfg := Config{Area: geo.R(-1e4, -1e4, 1e4, 2e7)}
	r := Repair(tr, cfg)
	want := DropStats{NonFinite: 1, OutOfArea: 1, DuplicateID: 1, Spike: 1}
	if r.Drops != want {
		t.Fatalf("Drops = %+v, want %+v", r.Drops, want)
	}
	if r.Drops.Total() != r.Dropped {
		t.Fatalf("Drops %+v does not sum to Dropped %d", r.Drops, r.Dropped)
	}
}

func TestOrderString(t *testing.T) {
	if OrderByID.String() != "id" || OrderByTime.String() != "timestamp" {
		t.Fatal("Order.String broken")
	}
}

// Property: for a monotone ground-truth trajectory, corrupting either
// ordering key on one adjacent inner pair never changes the recovered
// geometry.
func TestRepairRecoversTruePathProperty(t *testing.T) {
	f := func(seed int64, corruptIDs bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(10)
		tr := &trace.Trip{ID: 1, CarID: 1}
		// Random walk with strictly positive step so orderings are
		// distinguishable.
		x, y := 0.0, 0.0
		for i := 0; i < n; i++ {
			x += 80 + rng.Float64()*120
			y += rng.Float64()*60 - 30
			tr.Points = append(tr.Points, trace.RoutePoint{
				PointID: i + 1, TripID: 1,
				Pos:  geo.V(x, y),
				Time: t0.Add(time.Duration(i) * 25 * time.Second),
			})
		}
		want := trace.PathLength(tr.Points)
		i := 1 + rng.Intn(n-3)
		if corruptIDs {
			tr.Points[i].PointID, tr.Points[i+1].PointID = tr.Points[i+1].PointID, tr.Points[i].PointID
		} else {
			tr.Points[i].Time, tr.Points[i+1].Time = tr.Points[i+1].Time, tr.Points[i].Time
		}
		// Also shuffle arrival order.
		rng.Shuffle(len(tr.Points), func(a, b int) {
			tr.Points[a], tr.Points[b] = tr.Points[b], tr.Points[a]
		})
		r := Repair(tr, Config{MaxSpeedKmh: 1e9})
		return math.Abs(trace.PathLength(r.Trip.Points)-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestNaNConfigDoesNotDisableSpikeFilter is the regression test for the
// NaN-threshold hole: Config{MaxSpeedKmh: NaN} passed the old "<= 0"
// default check untouched, and since every "v > NaN" comparison is
// false, the GPS spike filter was silently disabled. A non-finite
// threshold must select the default, exactly like zero does.
func TestNaNConfigDoesNotDisableSpikeFilter(t *testing.T) {
	tr := straightTrip(6)
	tr.Points[3].Pos = geo.V(100000, 100000) // wild GPS spike

	ref := Repair(tr, Config{})
	if ref.Dropped != 1 {
		t.Fatalf("default config dropped %d, want 1 (the spike)", ref.Dropped)
	}
	got := Repair(tr, Config{MaxSpeedKmh: math.NaN()})
	if got.Dropped != 1 {
		t.Fatalf("NaN MaxSpeedKmh dropped %d, want 1: the spike filter was disabled", got.Dropped)
	}
	// An explicit +Inf remains a deliberate opt-out.
	off := Repair(tr, Config{MaxSpeedKmh: math.Inf(1)})
	if off.Dropped != 0 {
		t.Fatalf("+Inf MaxSpeedKmh dropped %d, want 0 (filter explicitly off)", off.Dropped)
	}
}

// TestRepairRealignmentSpikeConverges pins the concrete mechanism that
// made Repair non-idempotent: every time-adjacent pair of the arriving
// points passes the spike filter, but the id ordering wins the length
// comparison, and realignment then pairs the sorted timestamps with
// the id-ordered positions — creating an adjacency (A→C below: 45 m in
// the 1 s gap that originally separated A and B) implying > 150 km/h.
// The old single-pass Repair returned that trip; running Repair again
// dropped the new spike, more points gone. The fixpoint loop must
// converge on the first call.
func TestRepairRealignmentSpikeConverges(t *testing.T) {
	tr := &trace.Trip{ID: 1, CarID: 1}
	mk := func(id int, x, y float64, dtMs int64) trace.RoutePoint {
		return trace.RoutePoint{
			PointID: id, TripID: 1,
			Pos:  geo.V(x, y),
			Time: t0.Add(time.Duration(dtMs) * time.Millisecond),
		}
	}
	// Time order A,B,C,D (gaps 1 s, 99 s, 1 s), id order A,C,B,D.
	//   byTime path: |AB|+|BC|+|CD| = 40.3+43.0+39.7 ≈ 123 m
	//   byID path:   |AC|+|CB|+|BD| = 45.0+43.0+ 3.6 ≈  92 m  → chosen
	// Arriving time-adjacent speeds all < 150 km/h, but the realigned
	// A→C leg is 45 m over 1 s = 162 km/h.
	tr.Points = append(tr.Points,
		mk(1, 0, 0, 0),        // A
		mk(3, 20, 35, 1000),   // B
		mk(2, 45, 0, 100000),  // C
		mk(4, 23, 33, 101000), // D
	)

	r1 := Repair(tr, Config{})
	if r1.Trip == nil {
		t.Fatal("trip fully filtered")
	}
	if r1.ChosenOrder != OrderByID || !r1.Reordered {
		t.Fatalf("setup broken: order %v reordered %v", r1.ChosenOrder, r1.Reordered)
	}
	// The fixpoint must already have removed the realignment-created
	// spike: 3 of 4 points survive (single-pass code kept all 4).
	if len(r1.Trip.Points) != 3 || r1.Dropped != 1 {
		t.Fatalf("first Repair kept %d points (dropped %d), want 3 (dropped 1)",
			len(r1.Trip.Points), r1.Dropped)
	}
	r2 := Repair(r1.Trip, Config{})
	if r2.Trip == nil || len(r2.Trip.Points) != len(r1.Trip.Points) || r2.Dropped != 0 {
		t.Fatalf("Repair not idempotent: %d points -> %v (dropped %d)",
			len(r1.Trip.Points), len(r2.Trip.Points), r2.Dropped)
	}
}
