package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/clean"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/roadnet"
	"repro/internal/segment"
	"repro/internal/serve"
	"repro/internal/sink"
	"repro/internal/trace"
)

// layerAcc accumulates the raw per-layer measurements of one traced
// run; rows turns them into the per-layer metrics.
type layerAcc struct {
	decodeNs   int64 // direct trace decode of the run's TAXITRCB blobs
	decodeCars int

	task            latencies // runner task time per car
	busyNs, availNs int64     // Σ task time; workers × wall time

	stageCars int                // cars behind the stage sums below
	stageS    map[string]float64 // seconds per stage: clean, segment, ...

	rawPoints, droppedPoints int
	rawSegs, keptSegs        int
	odSegs, odAccepted       int
	transitions              int

	cache roadnet.CacheStats // router path-cache counters, summed

	absorbS, publishS float64
	absorbN, publishN uint64
	epochs            uint64
	snapshotBytes     int

	admitNs, admitPoints int64
	flushS               float64
	flushRounds          uint64
	bufferedMax          int64
	lateDrops            uint64

	handlerUs        map[string]float64 // mean in-process handler time per route
	httpOverheadUs   float64
	responseBytes    float64
	predictUs        float64
	coverage         float64
	anomalyUs        float64
	loadLateP99      float64
	loadSent, loadKO int64
	overhead         float64
}

func newLayerAcc() *layerAcc {
	return &layerAcc{stageS: map[string]float64{}, handlerUs: map[string]float64{}}
}

// pipelineStages are the pipeline's obs stage histograms the traced run
// splits a ProcessBinaryContext call by.
var pipelineStages = []string{"clean", "segment", "odselect", "mapmatch", "mapattr"}

// addStages folds a pipeline registry's stage histograms covering cars
// cars into the accumulator.
func (a *layerAcc) addStages(reg *obs.Registry, cars int, names ...string) {
	for _, st := range names {
		s, _ := histSum(reg, "pipeline_"+st+"_duration_seconds")
		a.stageS[st] += s
	}
	a.stageCars += cars
}

// addCar folds one car's pipeline outcome into the ratio counters.
func (a *layerAcc) addCar(cr *core.CarResult) {
	a.rawPoints += cr.CleanStats.RawPoints
	a.droppedPoints += cr.CleanStats.DroppedPoints
	a.rawSegs += cr.SegStats.RawSegments
	a.keptSegs += cr.SegStats.KeptSegments
	a.odSegs += cr.Funnel.TripSegments
	a.odAccepted += cr.Funnel.PostFiltered
	a.transitions += cr.MatchStats.Matched
}

// addCache adds the router's counters accumulated since before.
func (a *layerAcc) addCache(r *roadnet.Router, before roadnet.CacheStats) {
	s := r.CacheStats()
	a.cache.Hits += s.Hits - before.Hits
	a.cache.Misses += s.Misses - before.Misses
}

// addSink folds a sink registry's absorb and publish histograms and the
// sealed snapshot's epoch and encoded size.
func (a *layerAcc) addSink(reg *obs.Registry, final *sink.Snapshot) {
	s, n := histSum(reg, "sink_absorb_seconds")
	a.absorbS += s
	a.absorbN += n
	s, n = histSum(reg, "sink_publish_seconds")
	a.publishS += s
	a.publishN += n
	a.epochs += final.Epoch
	a.snapshotBytes = len(sink.EncodeSnapshot(final))
}

// timeDecode decodes every blob with the trace package's columnar
// reader, the decoder ProcessBinaryContext runs, and records the time.
func (a *layerAcc) timeDecode(d *testData, blobs [][]byte) error {
	proj := d.ref.City.DB.Proj
	arena := trace.NewArena(4096)
	var br *trace.BinaryReader
	start := time.Now()
	for _, b := range blobs {
		arena.Reset()
		var err error
		if br == nil {
			br, err = trace.NewBinaryReader(bytes.NewReader(b), proj)
		} else {
			err = br.Reset(bytes.NewReader(b), proj)
		}
		if err != nil {
			return fmt.Errorf("decode: %w", err)
		}
		for {
			if _, err := br.Next(arena); err == io.EOF {
				break
			} else if err != nil {
				return fmt.Errorf("decode: %w", err)
			}
		}
	}
	a.decodeNs += time.Since(start).Nanoseconds()
	a.decodeCars += len(blobs)
	return nil
}

// timeRowKernels runs the row kernels the ingest engine flushes through
// — clean.Repair, segment.Split and the OD selector — over every trip
// of byCar, timing each stage and counting its ratios.
func (a *layerAcc) timeRowKernels(p *core.Pipeline, byCar map[int][]*trace.Trip, tr *obs.Tracer) {
	cars := make([]int, 0, len(byCar))
	for car := range byCar {
		cars = append(cars, car)
	}
	sort.Ints(cars)
	for _, car := range cars {
		var segs []*trace.Trip
		var st segment.Stats
		for _, t := range byCar[car] {
			a.rawPoints += len(t.Points)
			sp := tr.StartSpan("clean.repair", car)
			start := time.Now()
			res := clean.Repair(t, p.Config.Clean)
			a.stageS["clean"] += time.Since(start).Seconds()
			sp.End()
			a.droppedPoints += res.Drops.Total()
			if res.Trip == nil {
				continue
			}
			sp = tr.StartSpan("segment.split", car)
			start = time.Now()
			segs = append(segs, segment.Split(res.Trip, p.Rules, &st)...)
			a.stageS["segment"] += time.Since(start).Seconds()
			sp.End()
		}
		a.rawSegs += st.RawSegments
		a.keptSegs += st.KeptSegments
		sp := tr.StartSpan("odselect.run", car)
		start := time.Now()
		f, _ := p.Selector.Run(car, segs)
		a.stageS["odselect"] += time.Since(start).Seconds()
		sp.End()
		a.odSegs += f.TripSegments
		a.odAccepted += f.PostFiltered
	}
}

// ingestNumbers are the ingest layer's measurements.
type ingestNumbers struct {
	admitNs, points int64 // time admitting points, excluding flushes
	flushS          float64
	rounds          uint64
	bufferedMax     int64
	late            uint64
}

// setIngest records the ingest layer's numbers.
func (a *layerAcc) setIngest(n ingestNumbers) {
	a.admitNs, a.admitPoints = n.admitNs, n.points
	a.flushS, a.flushRounds = n.flushS, n.rounds
	a.bufferedMax = max(a.bufferedMax, n.bufferedMax)
	a.lateDrops = n.late
}

// ingestProbe replays pts through a fresh in-process ingest engine over
// p — PushBatch in the API's 512-point batches, then Close — and
// measures admission time per point (PushBatch time minus the flushes
// it ran), flush rounds and time, the buffered-point peak and late
// drops. Workloads without a firehose measure their ingest layer this
// way; the firehose takes its admission cost from it.
func ingestProbe(p *core.Pipeline, pts []ingest.Point) (ingestNumbers, error) {
	var n ingestNumbers
	reg := obs.NewRegistry()
	snk, err := newSink(p, reg, 0, 0)
	if err != nil {
		return n, err
	}
	eng, err := ingest.New(ingest.Config{
		Pipeline: p, Sink: snk, AllowedLateness: allowedLateness, IdleTimeout: idleTimeout, Metrics: reg,
	})
	if err != nil {
		return n, fmt.Errorf("ingest probe: %w", err)
	}
	peak := startGaugeMax(reg.Gauge("ingest_buffered_points"))
	start := time.Now()
	for i := 0; i < len(pts); i += 512 {
		eng.PushBatch(pts[i:min(i+512, len(pts))])
	}
	push := time.Since(start)
	flushS, _ := histSum(reg, "ingest_flush_seconds")
	eng.Close()
	n.bufferedMax = peak.finish()
	n.admitNs = push.Nanoseconds() - int64(flushS*1e9)
	n.points = int64(len(pts))
	n.flushS, n.rounds = histSum(reg, "ingest_flush_seconds")
	n.late = eng.Stats().Dropped[obs.DropReason("late")]
	return n, nil
}

// timeHandlers replays reqs in-process through api.ServeHTTP on the
// current snapshot and records the mean handler time per route; routes
// the request stream lacks are timed on extra planned requests, so
// every route is measured on every workload.
func (a *layerAcc) timeHandlers(api *serve.API, reqs []request, extra func(route string) []request) {
	byRoute := map[string][]request{}
	for _, r := range reqs {
		byRoute[r.route] = append(byRoute[r.route], r)
	}
	for _, route := range routes {
		rs := byRoute[route]
		if len(rs) == 0 {
			rs = extra(route)
		}
		var total time.Duration
		for _, r := range rs {
			hr := httptest.NewRequest(http.MethodGet, r.path, nil)
			if r.etag != "" {
				hr.Header.Set("If-None-Match", r.etag)
			}
			w := httptest.NewRecorder()
			start := time.Now()
			api.ServeHTTP(w, hr)
			total += time.Since(start)
		}
		a.handlerUs[route] = float64(total.Microseconds()) / float64(max(1, len(rs)))
	}
}

// timePredict calls Predictor.Predict directly for every predict
// request on snap and records the mean call time and path coverage. It
// returns the answers, by request index, for the HTTP check.
func (a *layerAcc) timePredict(pr *predict.Predictor, snap *sink.Snapshot, reqs []request) map[int]*predict.Prediction {
	out := map[int]*predict.Prediction{}
	var total time.Duration
	var edges, observed int
	for i, r := range reqs {
		if !r.isPredict() {
			continue
		}
		start := time.Now()
		p, err := pr.Predict(snap, r.from, r.to, r.hour)
		total += time.Since(start)
		if err != nil {
			continue
		}
		out[i] = p
		edges += p.Edges
		observed += p.ObservedEdges
	}
	if n := len(out); n > 0 {
		a.predictUs = float64(total.Nanoseconds()) / 1e3 / float64(n)
	}
	if edges > 0 {
		a.coverage = float64(observed) / float64(edges)
	}
	return out
}

// timeAnomalies scores snap with freshly primed detectors (Report is
// memoized per epoch, so each call needs its own detector) and records
// the mean Report time.
func (a *layerAcc) timeAnomalies(snap *sink.Snapshot) {
	const calls = 20
	var total time.Duration
	for i := 0; i < calls; i++ {
		det := predict.NewAnomalyDetector(predict.AnomalyConfig{})
		for j := 0; j < 3; j++ {
			det.Observe(snap)
		}
		start := time.Now()
		det.Report(snap)
		total += time.Since(start)
	}
	a.anomalyUs = float64(total.Nanoseconds()) / 1e3 / calls
}

// addReader folds the reader's own numbers: requests sent and failed,
// and the HTTP overhead over in-process handler time.
func (a *layerAcc) addReader(rd *reader, reqs []request) {
	a.loadSent += rd.sent.Load()
	a.loadKO += rd.failed.Load()
	if n := rd.sent.Load(); n > 0 {
		a.responseBytes = float64(rd.bytes.Load()) / float64(n)
	}
	var handler float64
	for _, r := range reqs {
		handler += a.handlerUs[r.route]
	}
	if len(reqs) > 0 {
		a.httpOverheadUs = rd.serviceUs() - handler/float64(len(reqs))
	}
}

func perCar(seconds float64, cars int) float64 {
	if cars == 0 {
		return 0
	}
	return seconds * 1e3 / float64(cars)
}

func frac(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// rows emits every per-layer metric, in BENCHMARK.json order.
func (a *layerAcc) rows(r *results) {
	r.addLayer("trace.decode_ms", perCar(float64(a.decodeNs)/1e9, a.decodeCars), "ms", "per car, direct decode")
	r.addLayer("runner.busy_frac", float64(a.busyNs)/float64(max(1, a.availNs)), "frac", "task time over workers x wall")
	p99, used, n := a.task.quantile(0.99)
	r.addLayer("runner.car_p99_ms", p99, "ms", fmt.Sprintf("p%s of n=%d", fmtPct(used), n))
	r.addLayer("clean.ms", perCar(a.stageS["clean"], a.stageCars), "ms", "per car")
	r.addLayer("clean.drop_frac", frac(a.droppedPoints, a.rawPoints), "frac", "")
	r.addLayer("segment.ms", perCar(a.stageS["segment"], a.stageCars), "ms", "per car")
	r.addLayer("segment.keep_frac", frac(a.keptSegs, a.rawSegs), "frac", "")
	r.addLayer("odselect.ms", perCar(a.stageS["odselect"], a.stageCars), "ms", "per car")
	r.addLayer("odselect.accept_frac", frac(a.odAccepted, a.odSegs), "frac", "")
	r.addLayer("mapmatch.ms", perCar(a.stageS["mapmatch"], a.stageCars), "ms", "per car")
	r.addLayer("mapmatch.transitions", float64(a.transitions), "count", "")
	r.addLayer("mapattr.ms", perCar(a.stageS["mapattr"], a.stageCars), "ms", "per car")
	r.addLayer("roadnet.cache_hit_frac", a.cache.HitRate(), "frac", "")
	r.addLayer("roadnet.cache_misses", float64(a.cache.Misses), "count", "")
	r.addLayer("sink.absorb_ms", a.absorbS*1e3/float64(max(1, a.absorbN)), "ms", fmt.Sprintf("per absorb, n=%d", a.absorbN))
	r.addLayer("sink.publish_ms", a.publishS*1e3/float64(max(1, a.publishN)), "ms", fmt.Sprintf("per publish, n=%d", a.publishN))
	r.addLayer("sink.epochs", float64(a.epochs), "count", "")
	r.addLayer("sink.snapshot_bytes", float64(a.snapshotBytes), "bytes", "TAXISNPB length")
	r.addLayer("ingest.admit_us_per_point", float64(a.admitNs)/1e3/float64(max(1, a.admitPoints)), "us", "")
	r.addLayer("ingest.flush_ms", a.flushS*1e3/float64(max(1, a.flushRounds)), "ms", "per flush round")
	r.addLayer("ingest.flush_rounds", float64(a.flushRounds), "count", "")
	r.addLayer("ingest.buffered_points_max", float64(a.bufferedMax), "count", "")
	r.addLayer("ingest.late_drops", float64(a.lateDrops), "count", "")
	for _, route := range routes {
		r.addLayer("serve.handler_us."+route, a.handlerUs[route], "us", "in-process API.ServeHTTP")
	}
	r.addLayer("serve.http_overhead_us", a.httpOverheadUs, "us", "client service time minus handler time")
	r.addLayer("serve.response_bytes", a.responseBytes, "bytes", "mean per response")
	r.addLayer("predict.us", a.predictUs, "us", "direct Predictor.Predict")
	r.addLayer("predict.coverage_frac", a.coverage, "frac", "observed over routed edges")
	r.addLayer("predict.anomaly_report_us", a.anomalyUs, "us", "")
	r.addLayer("loadgen.late_p99_ms", a.loadLateP99, "ms", "")
	r.addLayer("loadgen.sent", float64(a.loadSent), "count", "")
	r.addLayer("loadgen.failed", float64(a.loadKO), "count", "")
	r.addLayer("tracing.overhead_frac", a.overhead, "frac", "traced primary metric against the untraced run")
}

// selfTimes reports, per span name, the summed self time: each span's
// duration minus the part of it its child spans cover.
func selfTimes(recs []*obs.SpanRecord) []row {
	children := map[uint64][]*obs.SpanRecord{}
	for _, r := range recs {
		if r.Parent != 0 {
			children[r.Parent] = append(children[r.Parent], r)
		}
	}
	selfNs := map[string]int64{}
	count := map[string]int{}
	for _, r := range recs {
		kids := children[r.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, end := int64(0), r.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, end), min(k.StartNs+k.DurNs, r.StartNs+r.DurNs)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		selfNs[r.Name] += r.DurNs - covered
		count[r.Name]++
	}
	names := make([]string, 0, len(selfNs))
	for n := range selfNs {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]row, len(names))
	for i, n := range names {
		out[i] = row{name: "self." + n, value: float64(selfNs[n]) / 1e6, unit: "ms",
			note: fmt.Sprintf("%d spans, %.4f ms each", count[n], float64(selfNs[n])/1e6/float64(count[n]))}
	}
	return out
}

// writeTrace exports the tracer's spans as Chrome trace_event JSON
// (loadable in Perfetto) to dir/name.
func writeTrace(tr *obs.Tracer, dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := tr.WriteTraceEvent(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// gaugeMax samples a gauge every 2 ms until finish.
type gaugeMax struct {
	g    *obs.Gauge
	peak int64
	stop chan struct{}
	done chan struct{}
}

func startGaugeMax(g *obs.Gauge) *gaugeMax {
	m := &gaugeMax{g: g, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			m.peak = max(m.peak, g.Value())
			select {
			case <-m.stop:
				return
			case <-t.C:
			}
		}
	}()
	return m
}

// finish stops the sampler and returns the peak seen.
func (m *gaugeMax) finish() int64 {
	close(m.stop)
	<-m.done
	return max(m.peak, m.g.Value())
}
