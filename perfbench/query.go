package main

import (
	"fmt"

	"repro/internal/obs"
)

// query: read-only, closed loop on one connection against a sealed snapshot
// built from a 50% gate-share fleet. Building the system and priming
// its snapshot through the batch path (runner → ProcessBinaryContext →
// sink.AbsorbEvent, then Seal) is its set-up, so every per-epoch cache
// of the read path can hit.
var querySpec = fleetSpec{cars: 352, trips: 3, gateFrac: 0.5}

// querySetups is how many times a query run builds and primes its
// system. Each priming run is about a second of the batch path, so
// cars_per_cpu_s and visible_p50_ms, which come from them, take more runs
// than set-up time alone would need.
const querySetups = 5

type queryWorkload struct {
	data  *testData
	blobs [][]byte
}

func (w *queryWorkload) primary() (string, bool) { return "read_p50_ms", false }

func (w *queryWorkload) prepare(o options) error {
	d, err := generate(o.seed, querySpec.scaled(o.scale))
	if err != nil {
		return err
	}
	w.data = d
	if w.blobs, err = d.encodeBinary(); err != nil {
		return err
	}
	if !o.trace {
		d.byCar = nil // only the traced run's ingest probe replays the trips
	}
	return nil
}

func (w *queryWorkload) measure(o options, tr *obs.Tracer) (*results, *layerAcc, error) {
	res, acc := &results{}, newLayerAcc()
	spec := querySpec.scaled(o.scale)
	releaseMemory()
	rss := startRSS()
	var visible latencies
	var primeRates []float64
	sys, setups, err := setupTimes(querySetups, func() (*system, error) {
		s, err := newSystem(o.seed, spec, false, tr)
		if err != nil {
			return nil, err
		}
		before := s.p.Router.CacheStats()
		fr := feed(s.p, s.sink, w.data.cars, w.blobs, tr, &visible, acc)
		primeRates = append(primeRates, float64(fr.cars)/fr.cpuS)
		res.attempted += int64(fr.cars)
		res.failed += int64(fr.failed)
		acc.addStages(s.reg, fr.cars, pipelineStages...)
		acc.addCache(s.p.Router, before)
		acc.addSink(s.reg, s.sink.Snapshot())
		return s, nil
	})
	if err != nil {
		return nil, nil, err
	}
	defer sys.close()

	reads := readSealed(sys, w.data, o.seed, o.seconds, tr)
	rssMB := rss.finish()
	reads.check(sys, res, acc)

	res.addE2E("setup_s", median(setups), "s", fmt.Sprintf("median processor time of %d set-ups, each priming %d cars", len(setups), len(w.data.cars)))
	res.addE2E("peak_rss_mb", rssMB, "MiB", "sampled every 20 ms")
	res.addE2E("cars_per_cpu_s", median(primeRates), "1/s", fmt.Sprintf("median of the %d set-ups' priming runs", len(primeRates)))
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
