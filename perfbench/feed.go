package main

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/runner"
	"repro/internal/sink"
)

// feedResult is one closed-loop fleet run through the runner.
type feedResult struct {
	cars, failed int
	elapsed      time.Duration
	cpuS         float64 // process processor time the run took
}

// feed pushes every car through runner → Pipeline.ProcessBinaryContext
// → sink.AbsorbEvent, closed loop with one runner worker per core, then
// seals the sink. visible gets each car's time from the start of its
// processing to the return of the AbsorbEvent that published it; acc,
// when non-nil, gets the per-layer counts. With a tracer, each car runs
// under a "runner.car" span that the pipeline's own stage spans nest
// under, and each absorb under a "sink.absorb" span.
func feed(p *core.Pipeline, snk *sink.Sink, cars []int, blobs [][]byte, tr *obs.Tracer,
	visible *latencies, acc *layerAcc) feedResult {
	index := make(map[int]int, len(cars))
	for i, car := range cars {
		index[car] = i
	}
	starts := make([]time.Time, len(cars))
	taskNs := make([]int64, len(cars))
	workers := runtime.GOMAXPROCS(0)
	begin, cpu0 := time.Now(), cpuSeconds()
	st := runner.RunList(context.Background(), runner.Config{Workers: workers}, cars,
		func(ctx context.Context, car int) (core.CarResult, error) {
			i := index[car]
			starts[i] = time.Now()
			sp := tr.StartSpan("runner.car", car)
			if sp.Active() {
				ctx = obs.ContextWithSpan(ctx, sp)
			}
			cr, err := p.ProcessBinaryContext(ctx, car, bytes.NewReader(blobs[i]))
			sp.End()
			taskNs[i] = time.Since(starts[i]).Nanoseconds()
			return cr, err
		})
	var res feedResult
	for ev := range st.Events() {
		sp := tr.StartSpan("sink.absorb", ev.Car)
		snk.AbsorbEvent(ev)
		sp.End()
		res.cars++
		if ev.Err != nil {
			res.failed++
			visible.fail()
			continue
		}
		visible.add(time.Since(starts[index[ev.Car]]))
		if acc != nil {
			acc.addCar(&ev.Result)
		}
	}
	if st.Err() != nil {
		res.failed++
	}
	res.elapsed = time.Since(begin)
	snk.Seal()
	res.cpuS = cpuSeconds() - cpu0
	if acc != nil {
		for _, ns := range taskNs {
			acc.task.add(time.Duration(ns))
			acc.busyNs += ns
		}
		acc.availNs += int64(workers) * res.elapsed.Nanoseconds()
	}
	return res
}

// predictReply is the part of a /v1/predict reply the check compares.
type predictReply struct {
	TravelS       float64 `json:"travel_s"`
	FreeFlowS     float64 `json:"free_flow_s"`
	DistanceKm    float64 `json:"distance_km"`
	Edges         int     `json:"edges"`
	ObservedEdges int     `json:"observed_edges"`
	GlobalRatio   float64 `json:"global_ratio"`
	Hour          int     `json:"hour"`
}

// checkPredicts compares every predict reply the reader received with a
// direct Predictor.Predict on the same snapshot; the answers must be
// identical. It returns the number of mismatches and the first one.
func checkPredicts(rd *reader, reqs []request, direct map[int]*predict.Prediction) (int, string) {
	bad, first := 0, ""
	for i, r := range reqs {
		if !r.isPredict() || rd.bodies[i] == nil {
			continue
		}
		var got predictReply
		err := json.Unmarshal(rd.bodies[i], &got)
		want := direct[i]
		if err != nil || want == nil || got != (predictReply{
			TravelS: want.TravelS, FreeFlowS: want.FreeFlowS, DistanceKm: want.DistanceKm,
			Edges: want.Edges, ObservedEdges: want.ObservedEdges, GlobalRatio: want.GlobalRatio, Hour: want.Hour,
		}) {
			if bad == 0 {
				first = r.path + ": " + string(rd.bodies[i])
			}
			bad++
		}
	}
	return bad, first
}
