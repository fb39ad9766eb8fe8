// Package predict is the serving layer's estimation side: it turns the
// sink's learned per-edge travel-time profiles into answers — OD
// travel-time predictions routed over learned edge costs, and
// reference-vs-current anomaly reports over epoch history.
//
// The travel-time model follows the floating-car-data recipe: each
// matched route contributes per-edge pace observations (seconds per
// kilometre, bucketed by hour of day) on the ingest path; prediction
// routes the query OD pair over the road graph with each edge costed by
// its learned pace. Edges the fleet never drove fall back to free-flow
// time (length over speed limit), and sparsely observed edges are
// shrunk toward the fleet-wide mean congestion ratio with an LMM-style
// precision-weighted prior — a bucket with n observations gets weight
// n/(n+k) on its own mean and k/(n+k) on the global one, so a single
// noisy traversal cannot dominate an edge cost.
//
// Everything here reads immutable sink snapshots, and every answer is a
// pure function of one snapshot, which keeps the /v1 ETag contract
// (equal epochs imply equal answers) intact. A Predictor carries the
// graph, the router and a memo of the learned edge costs of the last
// snapshot it served: the per-hour cost tables depend on the snapshot
// and hour but not on the query, so each is built once (on the first
// query that needs it) and every later query on that snapshot only runs
// Dijkstra over it. Predictors are safe for concurrent use.
package predict

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/sink"
)

// DefaultShrinkK is the default shrinkage prior weight: an edge bucket
// needs this many observations to count its own mean as much as the
// global prior.
const DefaultShrinkK = 8

// Predictor answers OD travel-time queries over one road graph. The
// exported fields are read-only once serving starts; methods are safe
// for concurrent use.
type Predictor struct {
	Graph  *roadnet.Graph
	Router *roadnet.Router
	// ShrinkK is the shrinkage prior weight k (default DefaultShrinkK;
	// negative disables shrinkage entirely — observed means are used
	// raw).
	ShrinkK float64

	// memo holds the edge-cost tables of the last snapshot served. It is
	// keyed by snapshot pointer (and the effective ShrinkK), not epoch:
	// distinct snapshots may share an epoch (a restarted coordinator's
	// merge sequence starts over). Replacing it drops the previous
	// snapshot, so the memo pins at most one superseded snapshot.
	memo atomic.Pointer[costMemo]

	met predictorMetrics
}

type predictorMetrics struct {
	requests    *obs.Counter
	noPath      *obs.Counter
	tablesBuilt *obs.Counter
	latency     *obs.Histogram
}

// NewPredictor builds a predictor over the pipeline's graph and router.
func NewPredictor(g *roadnet.Graph, r *roadnet.Router) *Predictor {
	return &Predictor{Graph: g, Router: r, ShrinkK: DefaultShrinkK}
}

// WithMetrics registers the predict_* instrumentation with reg
// (requests, no-path misses, cost tables built, latency); returns p for
// chaining.
func (p *Predictor) WithMetrics(reg *obs.Registry) *Predictor {
	p.met = predictorMetrics{
		requests:    reg.Counter("predict_requests_total"),
		noPath:      reg.Counter("predict_no_path_total"),
		tablesBuilt: reg.Counter("predict_cost_tables_built_total"),
		latency:     reg.Histogram("predict_seconds"),
	}
	return p
}

// Prediction is one answered OD query.
type Prediction struct {
	// TravelS is the predicted travel time in seconds: the path cost
	// over learned (shrunk) edge paces with free-flow fallback.
	TravelS float64
	// FreeFlowS is the same path timed at free flow — the congestion-
	// free lower bound the learned costs deviate from.
	FreeFlowS float64
	// DistanceKm is the routed path length.
	DistanceKm float64
	// Edges and ObservedEdges count the path's directed edge traversals
	// and how many of them had a learned profile bucket — the coverage
	// signal behind the prediction.
	Edges         int
	ObservedEdges int
	// GlobalRatio is the fleet-wide mean congestion ratio (observed
	// pace over free-flow pace) of the queried hour bucket — the
	// shrinkage prior target (1 with no observations).
	GlobalRatio float64
	// Hour is the queried hour bucket (-1: all-day profile).
	Hour int
}

// costMemo is one snapshot's learned routing costs: its sorted profile
// keys and, per hour bucket, a cost table built on first use.
type costMemo struct {
	snap *sink.Snapshot
	k    float64
	keys func() []sink.EdgeProfileKey
	// hours[0] is the all-day table, hours[h+1] hour h's.
	hours [25]struct {
		once  sync.Once
		table *costTable
	}
}

// costTable is one hour bucket's routing cost of every edge, indexed by
// EdgeID. Free-flow time does not depend on the direction of travel, so
// one cost serves both.
type costTable struct {
	// cost is the edge's traversal time in seconds: free-flow time
	// scaled by the shrunk congestion ratio when observed.
	cost []float64
	// observed marks edges with a learned profile for the hour.
	observed []bool
	// global is the hour's fleet-wide mean congestion ratio.
	global float64
}

// freeFlowPaceSPerKm is an edge's free-flow pace in seconds per km.
func freeFlowPaceSPerKm(e *roadnet.Edge) float64 {
	if e.SpeedLimitKmh <= 0 {
		return 0
	}
	return 3600 / e.SpeedLimitKmh
}

// shrinkK is the effective shrinkage prior weight.
func (p *Predictor) shrinkK() float64 {
	switch k := p.ShrinkK; {
	case k == 0:
		return DefaultShrinkK
	case k < 0:
		return 0
	default:
		return k
	}
}

// costs returns the cost table of snap's hour bucket (negative: all
// day), building it on the first query that needs it. Concurrent
// queries on a new snapshot share one memo unless another snapshot
// replaces it in between; a query that loses that race builds its
// tables privately.
func (p *Predictor) costs(snap *sink.Snapshot, hour int) *costTable {
	k := p.shrinkK()
	m := p.memo.Load()
	if m == nil || m.snap != snap || m.k != k {
		fresh := &costMemo{snap: snap, k: k, keys: sync.OnceValue(snap.EdgeProfileKeys)}
		if p.memo.CompareAndSwap(m, fresh) {
			m = fresh
		} else if m = p.memo.Load(); m.snap != snap || m.k != k {
			m = fresh
		}
	}
	if hour < 0 {
		hour = -1
	}
	slot := &m.hours[hour+1]
	slot.once.Do(func() {
		slot.table = p.buildCosts(snap, m.keys(), hour, k)
		p.met.tablesBuilt.Inc()
	})
	return slot.table
}

// buildCosts folds the profile buckets of the queried hour (hour < 0
// folds all buckets of an edge together, n-weighted) into per-edge
// observation counts and mean paces plus the global congestion ratio
// prior, then prices every edge: free-flow time, scaled for observed
// edges by the ratio shrunk toward the prior with weight k. keys are
// in sorted order so the float accumulation — and therefore the
// prediction — is a deterministic function of the snapshot values.
func (p *Predictor) buildCosts(snap *sink.Snapshot, keys []sink.EdgeProfileKey, hour int, k float64) *costTable {
	edges := p.Graph.Edges
	n := make([]int, len(edges))
	pace := make([]float64, len(edges))
	var ratioSum, weight float64
	for _, key := range keys {
		if hour >= 0 && key.Hour != hour {
			continue
		}
		ps := snap.EdgeProfiles[key]
		if ps.N <= 0 || int(key.Edge) < 0 || int(key.Edge) >= len(edges) {
			continue
		}
		ff := freeFlowPaceSPerKm(&edges[key.Edge])
		if ff <= 0 {
			continue
		}
		prev := n[key.Edge]
		n[key.Edge] = prev + ps.N
		pace[key.Edge] = (pace[key.Edge]*float64(prev) + ps.MeanSPerKm*float64(ps.N)) / float64(n[key.Edge])
		ratioSum += float64(ps.N) * (ps.MeanSPerKm / ff)
		weight += float64(ps.N)
	}
	t := &costTable{
		cost:     make([]float64, len(edges)),
		observed: make([]bool, len(edges)),
		global:   1,
	}
	if weight != 0 {
		t.global = ratioSum / weight
	}
	for i := range edges {
		e := &edges[i]
		t.cost[i] = roadnet.TravelTimeWeight(e, true)
		if n[i] == 0 {
			continue
		}
		ratio := pace[i] / freeFlowPaceSPerKm(e)
		shrunk := (float64(n[i])*ratio + k*t.global) / (float64(n[i]) + k)
		t.cost[i] *= shrunk
		t.observed[i] = true
	}
	return t
}

// Predict routes from the node nearest `from` to the node nearest `to`
// over learned edge costs for the given hour bucket (0-23; negative
// uses the all-day profile) and returns the predicted travel time.
// Unroutable pairs return roadnet.ErrNoPath.
func (p *Predictor) Predict(snap *sink.Snapshot, from, to geo.XY, hour int) (*Prediction, error) {
	start := time.Now()
	p.met.requests.Inc()
	defer func() { p.met.latency.Observe(time.Since(start).Seconds()) }()

	if hour > 23 {
		return nil, fmt.Errorf("predict: hour %d out of range 0..23", hour)
	}
	a, b := p.Graph.NearestNode(from), p.Graph.NearestNode(to)
	if a == nil || b == nil {
		return nil, fmt.Errorf("predict: the road graph has no nodes")
	}
	t := p.costs(snap, hour)
	weight := func(e *roadnet.Edge, _ bool) float64 { return t.cost[e.ID] }
	path, err := p.Router.ShortestPath(a.ID, b.ID, weight)
	if err != nil {
		p.met.noPath.Inc()
		return nil, err
	}

	pred := &Prediction{
		TravelS:     path.Cost,
		DistanceKm:  path.Length / 1000,
		Edges:       len(path.Steps),
		GlobalRatio: t.global,
		Hour:        hour,
	}
	if hour < 0 {
		pred.Hour = -1
	}
	for _, st := range path.Steps {
		pred.FreeFlowS += roadnet.TravelTimeWeight(st.Edge, st.Forward)
		if t.observed[st.Edge.ID] {
			pred.ObservedEdges++
		}
	}
	// Guard against IEEE residue on the sums: the prediction must never
	// carry NaN/Inf into a JSON surface.
	if math.IsNaN(pred.TravelS) || math.IsInf(pred.TravelS, 0) {
		return nil, fmt.Errorf("predict: non-finite travel time over %d edges", pred.Edges)
	}
	return pred, nil
}
