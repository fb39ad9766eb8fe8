package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/sink"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// citySeed fixes the synthetic city for every workload; only the fleet
// varies with --seed.
const citySeed = 42

// fleetSpec sizes one simulated fleet.
type fleetSpec struct {
	cars     int
	trips    int     // engine-on trips per car (tracegen TripsPerCar)
	gateFrac float64 // share of customer runs between two gates
	days     int     // simulated span in days; 0 selects the tracegen default
}

// scaled shrinks the fleet for small test runs (scale 1 = benchmark size).
func (s fleetSpec) scaled(scale float64) fleetSpec {
	if scale > 0 && scale < 1 {
		s.cars = max(4, int(float64(s.cars)*scale))
	}
	return s
}

// pipelineConfig is the fixed pipeline configuration. The fleet seed
// only selects the weather model the pipeline tags transitions with, so
// system and reference agree on it.
func pipelineConfig(seed int64, spec fleetSpec) core.Config {
	return core.Config{
		CitySeed: citySeed,
		Fleet: tracegen.Config{
			Seed: seed, Cars: spec.cars, TripsPerCar: spec.trips,
			GateRunFraction: spec.gateFrac, Days: spec.days,
		},
	}
}

// testData is one generated fleet. The generator runs on its own
// pipeline (city, graph and router), which also computes the reference
// results, so neither test-data generation nor checking warms a cache
// of the system under test.
type testData struct {
	seed  int64
	spec  fleetSpec
	ref   *core.Pipeline
	byCar map[int][]*trace.Trip
	cars  []int // sorted car IDs
}

// generate simulates cars 1..spec.cars with one goroutine per core.
func generate(seed int64, spec fleetSpec) (*testData, error) {
	ref, err := core.NewPipeline(pipelineConfig(seed, spec))
	if err != nil {
		return nil, fmt.Errorf("generator pipeline: %w", err)
	}
	trips := make([][]*trace.Trip, spec.cars)
	var wg sync.WaitGroup
	var next sync.Mutex
	car := 0
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				c := car
				car++
				next.Unlock()
				if c >= spec.cars {
					return
				}
				trips[c] = ref.Gen.CarTrips(c + 1)
			}
		}()
	}
	wg.Wait()
	d := &testData{seed: seed, spec: spec, ref: ref, byCar: map[int][]*trace.Trip{}}
	for i, ts := range trips {
		if ts = sequential(ts); len(ts) == 0 {
			continue
		}
		d.byCar[i+1] = ts
		d.cars = append(d.cars, i+1)
	}
	if len(d.cars) == 0 {
		return nil, fmt.Errorf("fleet seed %d produced no trips", seed)
	}
	return d, nil
}

// sequential keeps a car's trips that do not overlap in time: the
// simulator draws each engine-on trip's start independently, so over a
// short span two trips of one car can run at once, which no taxi does
// and which the streaming close rule (a car's next trip starts after
// its previous one ended) does not admit.
func sequential(ts []*trace.Trip) []*trace.Trip {
	type span struct {
		t      *trace.Trip
		lo, hi time.Time
	}
	spans := make([]span, 0, len(ts))
	for _, t := range ts {
		if len(t.Points) > 0 {
			lo, hi := timeSpan(t)
			spans = append(spans, span{t, lo, hi})
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo.Before(spans[j].lo) })
	var out []*trace.Trip
	var end time.Time
	for _, s := range spans {
		if len(out) > 0 && !s.lo.After(end) {
			continue
		}
		out = append(out, s.t)
		end = s.hi
	}
	return out
}

// timeSpan returns the earliest and latest point time of t.
func timeSpan(t *trace.Trip) (lo, hi time.Time) {
	for i, p := range t.Points {
		if i == 0 || p.Time.Before(lo) {
			lo = p.Time
		}
		if i == 0 || p.Time.After(hi) {
			hi = p.Time
		}
	}
	return lo, hi
}

// uniqueTimes drops every point that shares its millisecond with an
// earlier point of the same trip, keeping the first in generation
// order, and returns how many it dropped.
func (d *testData) uniqueTimes() int {
	dropped := 0
	for _, ts := range d.byCar {
		for _, t := range ts {
			seen := make(map[int64]bool, len(t.Points))
			kept := t.Points[:0]
			for _, p := range t.Points {
				ms := p.Time.UnixMilli()
				if seen[ms] {
					dropped++
					continue
				}
				seen[ms] = true
				kept = append(kept, p)
			}
			t.Points = kept
		}
	}
	return dropped
}

// encodeBinary returns each car's trips as a TAXITRCB blob, in d.cars
// order.
func (d *testData) encodeBinary() ([][]byte, error) {
	out := make([][]byte, len(d.cars))
	var buf bytes.Buffer
	for i, car := range d.cars {
		buf.Reset()
		if err := trace.WriteBinary(&buf, d.byCar[car], d.ref.City.DB.Proj); err != nil {
			return nil, fmt.Errorf("encode car %d: %w", car, err)
		}
		out[i] = append([]byte(nil), buf.Bytes()...)
	}
	return out, nil
}

// points flattens the fleet into the firehose event stream, passed once
// through the TAXIPNTB wire format so the returned points carry exactly
// the quantised values the server will decode.
func (d *testData) points() ([]ingest.Point, error) {
	pts := ingest.FleetPoints(d.byCar, d.ref.City.DB.Proj)
	var buf bytes.Buffer
	if err := ingest.WriteBinary(&buf, pts); err != nil {
		return nil, fmt.Errorf("encode stream: %w", err)
	}
	return ingest.ReadBinary(&buf)
}

// streamTrips regroups wire points into per-car trips (trip order by
// ID, points in stream order): the trips the ingest engine flushes.
func streamTrips(d *testData, pts []ingest.Point) map[int][]*trace.Trip {
	proj := d.ref.City.DB.Proj
	byCar := map[int][]*trace.Trip{}
	open := map[int64]*trace.Trip{}
	for _, pt := range pts {
		tr := open[pt.Trip]
		if tr == nil {
			tr = &trace.Trip{ID: pt.Trip, CarID: pt.Car}
			open[pt.Trip] = tr
			byCar[pt.Car] = append(byCar[pt.Car], tr)
		}
		tr.Points = append(tr.Points, pt.RoutePoint(proj))
	}
	for _, ts := range byCar {
		sort.Slice(ts, func(i, j int) bool { return ts[i].ID < ts[j].ID })
	}
	return byCar
}

// referenceSnapshot runs the cars serially through the generator's
// pipeline on the row path (ProcessContext over decoded trips), folds
// them into a single-shard sink that publishes only at the end, and
// seals it. It shares no worker pool, shard layout, publish cadence or
// decoder with the system under test.
func (d *testData) referenceSnapshot(byCar map[int][]*trace.Trip) (*sink.Snapshot, error) {
	s, err := newSink(d.ref, nil, 1, -1)
	if err != nil {
		return nil, err
	}
	cars := make([]int, 0, len(byCar))
	for car := range byCar {
		cars = append(cars, car)
	}
	sort.Ints(cars)
	var res core.Result
	for _, car := range cars {
		cr, err := d.ref.ProcessContext(context.Background(), car, byCar[car])
		if err != nil {
			return nil, fmt.Errorf("reference car %d: %w", car, err)
		}
		res.Cars = append(res.Cars, cr)
	}
	s.AbsorbResult(&res)
	return s.Seal(), nil
}

// newSink builds a sink on p's analysis frame. shards and publishEvery
// of 0 take the sink defaults; publishEvery < 0 disables auto-publish.
func newSink(p *core.Pipeline, reg *obs.Registry, shards, publishEvery int) (*sink.Sink, error) {
	g, err := sink.GridForPipeline(p)
	if err != nil {
		return nil, fmt.Errorf("sink grid: %w", err)
	}
	return sink.New(sink.Config{
		Grid: g, Shards: shards, PublishEvery: publishEvery,
		Metrics: reg, Gates: p.Selector.GateNames(),
	})
}

// releaseMemory returns generation garbage to the OS so the peak RSS
// sampled afterwards reflects the system, not the simulator.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}
