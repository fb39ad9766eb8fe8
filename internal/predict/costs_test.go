package predict

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/digiroad"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/sink"
)

// referencePredict is the per-request algorithm the cost tables
// replace: fold the snapshot's profile buckets into a per-edge map on
// every call, then route through a closure that shrinks each observed
// edge's ratio on the fly. The memoized Predict must agree with it
// bit for bit.
func referencePredict(p *Predictor, snap *sink.Snapshot, from, to geo.XY, hour int) (*Prediction, error) {
	type edgeObservation struct {
		n    int
		pace float64
	}
	if hour > 23 {
		return nil, fmt.Errorf("predict: hour %d out of range 0..23", hour)
	}
	a, b := p.Graph.NearestNode(from), p.Graph.NearestNode(to)
	if a == nil || b == nil {
		return nil, fmt.Errorf("predict: the road graph has no nodes")
	}
	edges := make(map[roadnet.EdgeID]edgeObservation)
	var ratioSum, weightSum float64
	for _, key := range snap.EdgeProfileKeys() {
		if hour >= 0 && key.Hour != hour {
			continue
		}
		ps := snap.EdgeProfiles[key]
		if ps.N <= 0 || int(key.Edge) < 0 || int(key.Edge) >= len(p.Graph.Edges) {
			continue
		}
		ff := freeFlowPaceSPerKm(&p.Graph.Edges[key.Edge])
		if ff <= 0 {
			continue
		}
		prev := edges[key.Edge]
		n := prev.n + ps.N
		edges[key.Edge] = edgeObservation{
			n:    n,
			pace: (prev.pace*float64(prev.n) + ps.MeanSPerKm*float64(ps.N)) / float64(n),
		}
		ratioSum += float64(ps.N) * (ps.MeanSPerKm / ff)
		weightSum += float64(ps.N)
	}
	global := 1.0
	if weightSum != 0 {
		global = ratioSum / weightSum
	}
	k := p.ShrinkK
	if k == 0 {
		k = DefaultShrinkK
	} else if k < 0 {
		k = 0
	}
	weight := func(e *roadnet.Edge, forward bool) float64 {
		ff := roadnet.TravelTimeWeight(e, forward)
		o, ok := edges[e.ID]
		if !ok {
			return ff
		}
		ffPace := freeFlowPaceSPerKm(e)
		if ffPace <= 0 {
			return ff
		}
		ratio := o.pace / ffPace
		shrunk := (float64(o.n)*ratio + k*global) / (float64(o.n) + k)
		return ff * shrunk
	}
	path, err := p.Router.ShortestPath(a.ID, b.ID, weight)
	if err != nil {
		return nil, err
	}
	pred := &Prediction{
		TravelS:     path.Cost,
		DistanceKm:  path.Length / 1000,
		Edges:       len(path.Steps),
		GlobalRatio: global,
		Hour:        hour,
	}
	if hour < 0 {
		pred.Hour = -1
	}
	for _, st := range path.Steps {
		pred.FreeFlowS += roadnet.TravelTimeWeight(st.Edge, st.Forward)
		if _, ok := edges[st.Edge.ID]; ok {
			pred.ObservedEdges++
		}
	}
	if math.IsNaN(pred.TravelS) || math.IsInf(pred.TravelS, 0) {
		return nil, fmt.Errorf("predict: non-finite travel time over %d edges", pred.Edges)
	}
	return pred, nil
}

// randomGraph builds a 6x6 street grid with mixed speed limits and some
// one-way streets, then zeroes one edge's speed limit (an edge that has
// no free-flow pace and so can never be observed).
func randomGraph(t *testing.T, rng *rand.Rand) *roadnet.Graph {
	t.Helper()
	const n, step = 6, 150.0
	db := digiroad.NewDatabase(digiroad.OuluOrigin)
	id := 1
	add := func(x1, y1, x2, y2 float64) {
		flow := digiroad.FlowBoth
		switch rng.Intn(8) {
		case 0:
			flow = digiroad.FlowForward
		case 1:
			flow = digiroad.FlowBackward
		}
		if _, err := db.AddElement(digiroad.TrafficElement{
			ID: id, Geom: geo.Line(x1, y1, x2, y2), Class: digiroad.ClassLocal,
			Flow: flow, SpeedLimitKmh: float64(30 + 10*rng.Intn(4)),
		}); err != nil {
			t.Fatal(err)
		}
		id++
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i+1 < n {
				add(float64(i)*step, float64(j)*step, float64(i+1)*step, float64(j)*step)
			}
			if j+1 < n {
				add(float64(i)*step, float64(j)*step, float64(i)*step, float64(j+1)*step)
			}
		}
	}
	g, err := roadnet.Build(db)
	if err != nil {
		t.Fatal(err)
	}
	g.Edges[rng.Intn(len(g.Edges))].SpeedLimitKmh = 0
	return g
}

// randomSnapshot draws profile buckets over g, including the cases the
// fold must skip or merge: non-positive counts, edge IDs outside the
// graph, zero-speed-limit edges, and edges observed at several hours
// (plus the all-day bucket -1).
func randomSnapshot(g *roadnet.Graph, rng *rand.Rand) *sink.Snapshot {
	profiles := map[sink.EdgeProfileKey]sink.EdgeProfileStats{}
	for i := 0; i < 3*len(g.Edges); i++ {
		edge := roadnet.EdgeID(rng.Intn(len(g.Edges)+6) - 3)
		ffPace := 100.0
		if int(edge) >= 0 && int(edge) < len(g.Edges) && g.Edges[edge].SpeedLimitKmh > 0 {
			ffPace = 3600 / g.Edges[edge].SpeedLimitKmh
		}
		// Few hours, so edges collect several buckets each.
		hour := []int{-1, 7, 8, 17}[rng.Intn(4)]
		pace := ffPace * (0.5 + 3.5*rng.Float64())
		profiles[sink.EdgeProfileKey{Edge: edge, Hour: hour}] = sink.EdgeProfileStats{
			N: rng.Intn(40) - 2, MeanSPerKm: pace, MinSPerKm: pace, MaxSPerKm: pace,
		}
	}
	return &sink.Snapshot{Epoch: 1, EdgeProfiles: profiles}
}

// TestPredictMatchesReference holds the memoized cost tables to the
// per-request reference: equal Prediction structs (every float bit for
// bit) and equal errors, over random graphs and snapshots, every hour
// bucket and several shrinkage weights, with one predictor reused
// across snapshots so tables are rebuilt and reused in between.
func TestPredictMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	compared := 0
	for trial := 0; trial < 4; trial++ {
		g := randomGraph(t, rng)
		r := roadnet.NewRouter(g, roadnet.RouterOptions{})
		for _, k := range []float64{0, -1, 3} {
			p := NewPredictor(g, r)
			p.ShrinkK = k
			for s := 0; s < 3; s++ {
				snap := randomSnapshot(g, rng)
				for hour := -1; hour <= 23; hour++ {
					for q := 0; q < 3; q++ {
						from := geo.V(rng.Float64()*750, rng.Float64()*750)
						to := geo.V(rng.Float64()*750, rng.Float64()*750)
						want, wantErr := referencePredict(p, snap, from, to, hour)
						got, err := p.Predict(snap, from, to, hour)
						if fmt.Sprint(err) != fmt.Sprint(wantErr) {
							t.Fatalf("k=%g hour %d: error %v, reference %v", k, hour, err, wantErr)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("k=%g hour %d: %+v, reference %+v", k, hour, got, want)
						}
						if want != nil && want.ObservedEdges > 0 {
							compared++
						}
					}
				}
			}
		}
	}
	if compared == 0 {
		t.Fatal("no compared prediction crossed an observed edge")
	}
}

// TestPredictSameEpochDistinctSnapshots: the memo is keyed by snapshot,
// not epoch, so two snapshots that share an epoch never share a table.
func TestPredictSameEpochDistinctSnapshots(t *testing.T) {
	g, r := testGraph(t)
	p := NewPredictor(g, r)
	slow := profiled(g, 8, 10, allEdgesRatio(g, 2))
	slower := profiled(g, 8, 10, allEdgesRatio(g, 3))
	if slow.Epoch != slower.Epoch {
		t.Fatal("fixture snapshots must share an epoch")
	}
	for i, c := range []struct {
		snap *sink.Snapshot
		want float64
	}{{slow, 80}, {slower, 120}, {slow, 80}} {
		pred, err := p.Predict(c.snap, odFrom, odTo, 8)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(pred.TravelS-c.want) > 1e-6 {
			t.Fatalf("query %d: %+v, want %g s", i, pred, c.want)
		}
	}
}

// TestPredictConcurrentSnapshots runs several goroutines predicting
// over two snapshots in alternation, so the memo is replaced while
// other queries build and read tables; run it under -race.
func TestPredictConcurrentSnapshots(t *testing.T) {
	g, r := testGraph(t)
	p := NewPredictor(g, r)
	snaps := []*sink.Snapshot{
		profiled(g, 8, 10, allEdgesRatio(g, 2)),
		profiled(g, 8, 10, allEdgesRatio(g, 3)),
	}
	want := make([][]*Prediction, len(snaps))
	for i, snap := range snaps {
		for hour := -1; hour <= 23; hour++ {
			pred, err := referencePredict(p, snap, odFrom, odTo, hour)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = append(want[i], pred)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s, hour := (w+i)%len(snaps), i%25-1
				got, err := p.Predict(snaps[s], odFrom, odTo, hour)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[s][hour+1]) {
					t.Errorf("snapshot %d hour %d: %+v, want %+v", s, hour, got, want[s][hour+1])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPredictBuildsOneTablePerHour: the cost table of a (snapshot,
// hour) is built once, however many queries read it; a new hour or a
// new snapshot builds one more.
func TestPredictBuildsOneTablePerHour(t *testing.T) {
	g, r := testGraph(t)
	reg := obs.NewRegistry()
	p := NewPredictor(g, r).WithMetrics(reg)
	snap := profiled(g, 8, 10, allEdgesRatio(g, 2))
	built := func() uint64 { return reg.Snapshot().Counters["predict_cost_tables_built_total"] }
	for i := 0; i < 10; i++ {
		if _, err := p.Predict(snap, odFrom, odTo, 8); err != nil {
			t.Fatal(err)
		}
	}
	if got := built(); got != 1 {
		t.Fatalf("10 queries of one hour built %d tables, want 1", got)
	}
	if _, err := p.Predict(snap, odFrom, odTo, -1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Predict(profiled(g, 8, 10, allEdgesRatio(g, 2)), odFrom, odTo, 8); err != nil {
		t.Fatal(err)
	}
	if got := built(); got != 3 {
		t.Fatalf("after a new hour and a new snapshot: %d tables built, want 3", got)
	}
}
