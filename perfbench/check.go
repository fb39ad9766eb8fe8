package main

import (
	"fmt"
	"math"

	"repro/internal/sink"
)

// feq compares floats to within accumulation-order rounding: the
// system folds cars into sharded Welford accumulators in completion
// order, the reference in car order. This is the tolerance the repo's
// differential suites use; byte equality of the encodings is not yet a
// property of the sink.
func feq(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// maxDiffs caps how many mismatches one comparison reports.
const maxDiffs = 5

// compareSnapshots checks a sealed snapshot against its reference:
// integer counts and extrema exactly, float moments to accumulation-order
// rounding. It returns the mismatches found (nil when equal).
func compareSnapshots(got, want *sink.Snapshot) []string {
	var diffs []string
	bad := func(format string, args ...any) bool {
		diffs = append(diffs, fmt.Sprintf(format, args...))
		return len(diffs) >= maxDiffs
	}
	if !got.Complete {
		bad("snapshot not sealed")
	}
	if got.CarsIngested != want.CarsIngested || got.CarsFailed != want.CarsFailed {
		bad("cars %d/%d, want %d/%d", got.CarsIngested, got.CarsFailed, want.CarsIngested, want.CarsFailed)
	}
	if got.Points != want.Points {
		bad("points %d, want %d", got.Points, want.Points)
	}
	if len(got.Cells) != len(want.Cells) {
		bad("cells %d, want %d", len(got.Cells), len(want.Cells))
	}
	for id, wc := range want.Cells {
		gc, ok := got.Cells[id]
		if !ok || gc.N != wc.N || gc.MinKmh != wc.MinKmh || gc.MaxKmh != wc.MaxKmh ||
			!feq(gc.MeanKmh, wc.MeanKmh) || !feq(gc.VarKmh, wc.VarKmh) {
			if bad("cell %v: %+v, want %+v", id, gc, wc) {
				return diffs
			}
		}
	}
	if len(got.OD) != len(want.OD) {
		bad("directions %v, want %v", got.Directions(), want.Directions())
	}
	for dir, wo := range want.OD {
		g, ok := got.OD[dir]
		if !ok {
			if bad("direction %s missing", dir) {
				return diffs
			}
			continue
		}
		if g.Trips != wo.Trips || g.Attrs != wo.Attrs || !g.TravelTimeS.Equal(wo.TravelTimeS) {
			if bad("direction %s: trips %d attrs %+v, want %d %+v (or travel-time histogram differs)",
				dir, g.Trips, g.Attrs, wo.Trips, wo.Attrs) {
				return diffs
			}
		}
		for _, m := range [][2]sink.MetricStats{
			{g.DistKm, wo.DistKm}, {g.FuelMl, wo.FuelMl},
			{g.LowSpeedPct, wo.LowSpeedPct}, {g.NormalSpeedPct, wo.NormalSpeedPct},
		} {
			if m[0].N != m[1].N || m[0].Min != m[1].Min || m[0].Max != m[1].Max || !feq(m[0].Mean, m[1].Mean) {
				if bad("direction %s metric: %+v, want %+v", dir, m[0], m[1]) {
					return diffs
				}
			}
		}
	}
	if len(got.EdgeProfiles) != len(want.EdgeProfiles) {
		bad("edge profiles %d, want %d", len(got.EdgeProfiles), len(want.EdgeProfiles))
	}
	for key, wp := range want.EdgeProfiles {
		gp, ok := got.EdgeProfiles[key]
		if !ok || gp.N != wp.N || gp.MinSPerKm != wp.MinSPerKm || gp.MaxSPerKm != wp.MaxSPerKm ||
			!feq(gp.MeanSPerKm, wp.MeanSPerKm) || !feq(gp.VarSPerKm, wp.VarSPerKm) {
			if bad("edge profile %+v: %+v, want %+v", key, gp, wp) {
				return diffs
			}
		}
	}
	return diffs
}
