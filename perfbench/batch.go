package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/sink"
	"repro/internal/trace"
)

// batch: distinct simulated cars at the default 10% gate-run share,
// pre-encoded as per-car TAXITRCB blobs, pushed closed loop through
// runner → ProcessBinaryContext → sink.AbsorbEvent (publishing every
// car), then sealed. One pass is a batch job over the whole fleet from
// a cold system; passes repeat until the feed share of the run is
// spent, each against a freshly built system, so the router's path
// cache only ever sees distinct cars. The sealed view is then read
// closed loop over HTTP.
var batchSpec = fleetSpec{cars: 384, trips: 3, gateFrac: 0.10}

const (
	batchFeedShare = 0.7 // share of the run spent feeding cars; the rest reads
	// readPool is how many requests a reader plans; it cycles through
	// them. The server caches no reply by URL, so a repeat costs what
	// the first send did.
	readPool     = 2000
	setupRepeats = 3
)

// queryMix is the read mix over a sealed view. It is an assumption (the
// repository has no traffic record): predictions are half the reads, so
// predict_* and read_* get about equal sample counts, and every other
// read route but anomalies takes an equal share of the rest.
var queryMix = map[string]int{"snapshot": 1, "grid": 1, "cell": 1, "od": 1, "odpair": 1, "predict": 5}

type batchWorkload struct {
	data  *testData
	blobs [][]byte
	want  *sink.Snapshot
}

func (w *batchWorkload) prepare(o options) error {
	d, err := generate(o.seed, batchSpec.scaled(o.scale))
	if err != nil {
		return err
	}
	w.data = d
	if w.blobs, err = d.encodeBinary(); err != nil {
		return err
	}
	// The reference decodes the same blobs on the row path.
	rows := map[int][]*trace.Trip{}
	for i, car := range d.cars {
		ts, err := trace.ReadBinary(bytes.NewReader(w.blobs[i]), d.ref.City.DB.Proj)
		if err != nil {
			return fmt.Errorf("decode car %d: %w", car, err)
		}
		rows[car] = ts
	}
	if w.want, err = d.referenceSnapshot(rows); err != nil {
		return err
	}
	if !o.trace {
		d.byCar = nil // only the traced run's ingest probe replays the trips
	}
	return nil
}

func (w *batchWorkload) measure(o options, tr *obs.Tracer) (*results, *layerAcc, error) {
	res, acc := &results{}, newLayerAcc()
	spec := batchSpec.scaled(o.scale)
	build := func() (*system, error) { return newSystem(o.seed, spec, false, tr) }
	releaseMemory()
	rss := startRSS()
	sys, setups, err := setupTimes(setupRepeats, build)
	if err != nil {
		return nil, nil, err
	}
	defer func() { sys.close() }()

	var visible latencies
	var cars int
	var passRates []float64
	feedEnd := time.Now().Add(time.Duration(batchFeedShare * o.seconds * float64(time.Second)))
	for pass := 0; ; pass++ {
		if pass > 0 {
			start := cpuSeconds()
			next, err := build()
			if err != nil {
				return nil, nil, err
			}
			setups = append(setups, cpuSeconds()-start)
			sys.close()
			sys = next
		}
		runtime.GC() // start each pass without the previous pass's garbage
		before := sys.p.Router.CacheStats()
		fr := feed(sys.p, sys.sink, w.data.cars, w.blobs, tr, &visible, acc)
		cars += fr.cars
		passRates = append(passRates, float64(fr.cars)/fr.cpuS)
		res.attempted += int64(fr.cars)
		res.failed += int64(fr.failed)
		final := sys.sink.Snapshot()
		for _, d := range compareSnapshots(final, w.want) {
			res.problem("batch pass %d: %s", pass, d)
		}
		acc.addStages(sys.reg, fr.cars, pipelineStages...)
		acc.addCache(sys.p.Router, before)
		acc.addSink(sys.reg, final)
		if time.Now().After(feedEnd) {
			break
		}
	}

	// Read phase: the sealed view of the last pass, closed loop.
	reads := readSealed(sys, w.data, o.seed, (1-batchFeedShare)*o.seconds, tr)
	rssMB := rss.finish()
	reads.check(sys, res, acc)

	res.addE2E("setup_s", median(setups), "s", fmt.Sprintf("median processor time of %d set-ups", len(setups)))
	res.addE2E("peak_rss_mb", rssMB, "MiB", "sampled every 20 ms")
	res.addE2E("cars_per_cpu_s", median(passRates), "1/s", fmt.Sprintf("median of %d passes, %d cars", len(passRates), cars))
	res.percentiles("visible", &visible)
	res.percentiles("read", &reads.rd.read)
	res.percentiles("predict", &reads.rd.predict)
	if tr != nil {
		if err := reads.traceLayers(sys, w.data, w.blobs, acc); err != nil {
			return nil, nil, err
		}
	}
	return res, acc, nil
}

func (w *batchWorkload) primary() (string, bool) { return "cars_per_cpu_s", true }
