package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"time"

	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/sink"
)

// firehose: one fleet at a 50% gate-run share over a few simulated
// days, flattened to a TAXIPNTB point stream, shuffled within the
// allowed lateness, and POSTed by one open-loop writer to the localhost
// /v1/ingest of an API + ingest engine wired as `taxiflow -ingest-addr`.
// The writer is paced by event time at a fixed replay speed: the
// simulated span fills half the run. One closed-loop reader reads
// beside it while the snapshot epoch churns. The same stream is then
// replayed closed loop, each time on a fresh system with no reader, for
// the throughput.
var firehoseSpec = fleetSpec{cars: 200, trips: 8, gateFrac: 0.5, days: 8}

const (
	postEvery     = 5 * time.Millisecond // wall width of one POST's slice of the stream
	shuffleWindow = 32                   // points per shuffle window
	shuffleCapMs  = 20_000               // event-time span cap per window, below the lateness
	// pacedShare is the share of the run the paced stream fills; the
	// closed-loop replays of the same stream take about the rest.
	pacedShare = 0.5
	replays    = 3
)

// firehoseMix is the reader's mix, an assumption like queryMix: half
// predictions, the rest shared equally by bbox grid reads, the OD
// matrix and anomaly reports.
var firehoseMix = map[string]int{"grid": 1, "od": 1, "anomalies": 1, "predict": 3}

type firehoseWorkload struct {
	data   *testData
	stream []ingest.Point // shuffled, in send order
	points int            // stream length
	slices []streamSlice
	trips  []tripBound // trips the watermark can close
	want   *sink.Snapshot
	blobs  [][]byte // the fleet as generated, TAXITRCB, for the reference run
	speed  float64  // event ms per wall ms
	// tiesDropped counts generated points dropped for sharing a
	// millisecond with an earlier point of their trip.
	tiesDropped int
}

// streamSlice is one POST body: the stream positions due in one
// postEvery slice, sent at the slice's end.
type streamSlice struct {
	sendMs float64
	body   []byte
	points int
}

// tripBound is one trip followed by a later trip of the same car: per
// DESIGN.md "Trip close" it closes once the watermark passes
// max(trip.max, nextTrip.min). Its visible latency starts when the
// first stream event at or past bound + lateness is due.
type tripBound struct {
	bound int64
	dueMs float64 // wall offset from the stream start
}

func (w *firehoseWorkload) primary() (string, bool) { return "visible_p50_ms", false }

func (w *firehoseWorkload) prepare(o options) error {
	spec := firehoseSpec.scaled(o.scale)
	d, err := generate(o.seed, spec)
	if err != nil {
		return err
	}
	w.data = d
	// DESIGN.md's batch-equivalence argument holds for trips whose
	// points have unique timestamps: cleaning sorts a trip by time
	// stably, so points sharing a millisecond keep their arrival order,
	// which the stream shuffles. The simulator does emit such ties, so
	// this workload keeps the first point of each millisecond of a trip
	// and reports how many it dropped.
	w.tiesDropped = d.uniqueTimes()
	pts, err := d.points()
	if err != nil {
		return err
	}
	w.stream = append([]ingest.Point(nil), pts...)
	if span := ingest.ShuffleWindows(w.stream, shuffleWindow, shuffleCapMs, o.seed); span >= allowedLateness.Milliseconds() {
		return fmt.Errorf("shuffle span %d ms reaches the allowed lateness", span)
	}
	// The reference is the batch path over the same fleet as generated:
	// runner → ProcessBinaryContext on the generator's own pipeline.
	if w.blobs, err = d.encodeBinary(); err != nil {
		return err
	}
	refSink, err := newSink(d.ref, nil, 0, -1)
	if err != nil {
		return err
	}
	var discard latencies
	if fr := feed(d.ref, refSink, d.cars, w.blobs, nil, &discard, nil); fr.failed > 0 {
		return fmt.Errorf("reference run: %d cars failed", fr.failed)
	}
	w.want = refSink.Snapshot()

	w.speed = float64(spec.days) * 86400e3 / (pacedShare * o.seconds * 1e3)
	w.points = len(pts)
	t0 := pts[0].TimeMs
	dueMs := make([]float64, len(pts))
	prefix := make([]int64, len(pts)) // running maximum of stream event times
	run := int64(math.MinInt64)
	for i := range pts {
		// Position i is due when the i-th event in time order would be:
		// the stream is disordered, its schedule is not.
		dueMs[i] = float64(pts[i].TimeMs-t0) / w.speed
		run = max(run, w.stream[i].TimeMs)
		prefix[i] = run
	}
	for lo := 0; lo < len(pts); {
		k := math.Floor(dueMs[lo] / float64(postEvery.Milliseconds()))
		end := float64(postEvery.Milliseconds()) * (k + 1)
		hi := lo
		for hi < len(pts) && dueMs[hi] < end {
			hi++
		}
		var buf bytes.Buffer
		if err := ingest.WriteBinary(&buf, w.stream[lo:hi]); err != nil {
			return fmt.Errorf("encode slice: %w", err)
		}
		w.slices = append(w.slices, streamSlice{sendMs: end, body: buf.Bytes(), points: hi - lo})
		lo = hi
	}
	lateness := allowedLateness.Milliseconds()
	for _, car := range d.cars {
		ts := d.byCar[car]
		type span struct{ lo, hi int64 }
		spans := make([]span, 0, len(ts))
		for _, t := range ts {
			lo, hi := timeSpan(t)
			spans = append(spans, span{lo.UnixMilli(), hi.UnixMilli()})
		}
		sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
		for i := 0; i+1 < len(spans); i++ {
			bound := max(spans[i].hi, spans[i+1].lo)
			j := sort.Search(len(prefix), func(k int) bool { return prefix[k] >= bound+lateness })
			if j < len(prefix) { // otherwise only /v1/ingest/close closes it
				w.trips = append(w.trips, tripBound{bound: bound, dueMs: dueMs[j]})
			}
		}
	}
	// The untraced run needs only the POST bodies and trip bounds; the
	// traced run regroups the stream into trips itself.
	d.byCar = nil
	if !o.trace {
		w.stream, w.blobs = nil, nil
	}
	return nil
}

// ingestReply is the part of a /v1/ingest reply the writer reads.
type ingestReply struct {
	Received    int            `json:"received"`
	Admitted    int            `json:"admitted"`
	Dropped     map[string]int `json:"dropped"`
	WatermarkMs int64          `json:"watermark_ms"`
}

// postDone is one completed POST: when, and the watermark it reported.
type postDone struct {
	at time.Time
	wm int64
}

func (w *firehoseWorkload) measure(o options, tr *obs.Tracer) (*results, *layerAcc, error) {
	res, acc := &results{}, newLayerAcc()
	spec := firehoseSpec.scaled(o.scale)
	releaseMemory()
	rss := startRSS()
	sys, setups, err := setupTimes(setupRepeats, func() (*system, error) { return newSystem(o.seed, spec, true, tr) })
	if err != nil {
		return nil, nil, err
	}
	defer sys.close()
	stopTick := make(chan struct{})
	tickDone := make(chan struct{})
	go func() {
		// taxiflow's wall tick: keeps the watermark moving on slow streams.
		defer close(tickDone)
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-stopTick:
				return
			case <-t.C:
				sys.engine.Advance()
			}
		}
	}()
	var buffered *gaugeMax
	if tr != nil {
		buffered = startGaugeMax(sys.reg.Gauge("ingest_buffered_points"))
	}
	cacheBefore := sys.p.Router.CacheStats()

	pl := newPlanner(w.data, o.seed)
	runtime.GC()
	streamMs := w.slices[len(w.slices)-1].sendMs
	reqs := pl.plan(readPool, firehoseMix, nil)
	rd := &reader{client: newClient(1), base: sys.base, tracer: tr}
	start := time.Now().Add(20 * time.Millisecond)
	readDone := make(chan struct{})
	go func() {
		defer close(readDone)
		rd.loop(start.Add(time.Duration(streamMs*float64(time.Millisecond))), reqs)
	}()

	client := newClient(1)
	var posts []postDone
	var late latencies
	var postFailed int
	for i, sl := range w.slices {
		due := start.Add(time.Duration(sl.sendMs * float64(time.Millisecond)))
		sleepUntil(due)
		late.add(time.Since(due))
		sp := tr.StartSpan("ingest.post", i)
		var rep ingestReply
		err := postJSON(client, sys.base+"/v1/ingest", sl.body, &rep)
		sp.End()
		res.attempted++
		switch {
		case err != nil:
			postFailed++
			res.problem("POST /v1/ingest slice %d: %v", i, err)
		case rep.Admitted != sl.points:
			res.problem("POST /v1/ingest slice %d: admitted %d of %d points, dropped %v", i, rep.Admitted, sl.points, rep.Dropped)
		}
		posts = append(posts, postDone{at: time.Now(), wm: rep.WatermarkMs})
	}
	var closed ingestReply
	res.attempted++
	if err := postJSON(client, sys.base+"/v1/ingest/close", nil, &closed); err != nil {
		postFailed++
		res.problem("POST /v1/ingest/close: %v", err)
	}
	streamed := time.Since(start)
	client.CloseIdleConnections()
	<-readDone
	rd.client.CloseIdleConnections()
	close(stopTick)
	<-tickDone
	rssMB := rss.finish()
	res.attempted += rd.sent.Load()
	res.failed += rd.failed.Load()
	for _, f := range rd.failures {
		res.problems = append(res.problems, "read "+f)
	}

	// Visible latency per trip the watermark closes: from the due time
	// of the first stream event at or past bound + lateness to the
	// completion of the first POST whose watermark passes the bound.
	var visible latencies
	for _, t := range w.trips {
		k := sort.Search(len(posts), func(i int) bool { return posts[i].wm > t.bound })
		if k == len(posts) {
			continue // closed by /v1/ingest/close, not by the watermark
		}
		due := start.Add(time.Duration(t.dueMs * float64(time.Millisecond)))
		visible.add(posts[k].at.Sub(due))
	}

	final := sys.sink.Snapshot()
	for _, d := range compareSnapshots(final, w.want) {
		res.problem("streamed snapshot: %s", d)
	}
	st := sys.engine.Stats()
	if st.Received != uint64(w.points) || st.Admitted != st.Received {
		res.problem("engine received %d, admitted %d of %d points", st.Received, st.Admitted, w.points)
	}
	stages := map[string]obs.StageSnapshot{}
	for _, s := range sys.lin.Snapshot(0).Stages {
		stages[s.Stage] = s
	}
	if stages["ingest"].Out != stages["clean"].In {
		res.problem("lineage: ingest.out %d != clean.in %d", stages["ingest"].Out, stages["clean"].In)
	}

	// The paced stream's wall time is fixed by the replay speed, so the
	// throughput comes from closed-loop replays of the same stream. A
	// traced run reports no end-to-end metric and skips them.
	var rates []float64
	for i := 0; tr == nil && i < replays; i++ {
		cpuS, setupS, err := w.replay(o, spec, res)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, setupS)
		rates = append(rates, float64(len(w.data.cars))/cpuS)
	}
	res.addE2E("setup_s", median(setups), "s", fmt.Sprintf("median processor time of %d set-ups", len(setups)))
	res.addE2E("peak_rss_mb", rssMB, "MiB", "sampled every 20 ms, paced stream")
	res.addE2E("cars_per_cpu_s", median(rates), "1/s",
		fmt.Sprintf("median of %d closed-loop replays of %d cars; %d points (%d tied dropped) paced over %.1f s, replay x%.0f",
			len(rates), len(w.data.cars), w.points, w.tiesDropped, streamed.Seconds(), w.speed))
	res.percentiles("visible", &visible)
	res.percentiles("read", &rd.read)
	res.percentiles("predict", &rd.predict)
	res.generatorLate("writer", &late)

	if tr != nil {
		acc.bufferedMax = buffered.finish()
		acc.addCache(sys.p.Router, cacheBefore)
		acc.stageCars = len(w.data.cars)
		acc.stageS["mapmatch"], _ = histSum(sys.reg, "pipeline_mapmatch_duration_seconds")
		acc.stageS["mapattr"], _ = histSum(sys.reg, "pipeline_mapattr_duration_seconds")
		acc.timeRowKernels(w.data.ref, streamTrips(w.data, w.stream), tr)
		for _, od := range final.OD {
			acc.transitions += od.Trips
		}
		acc.addSink(sys.reg, final)
		live := ingestNumbers{}
		live.flushS, live.rounds = histSum(sys.reg, "ingest_flush_seconds")
		live.late = st.Dropped[obs.DropReason("late")]
		probe, err := ingestProbe(w.data.ref, w.stream)
		if err != nil {
			return nil, nil, err
		}
		live.admitNs, live.points = probe.admitNs, probe.points
		acc.setIngest(live)
		// The firehose has no runner: its runner and decode layers are
		// measured on the batch-equivalence reference run of the same
		// fleet.
		refSink, err := newSink(w.data.ref, nil, 0, -1)
		if err != nil {
			return nil, nil, err
		}
		var discard latencies
		runAcc := newLayerAcc()
		feed(w.data.ref, refSink, w.data.cars, w.blobs, tr, &discard, runAcc)
		acc.task.ms, acc.busyNs, acc.availNs = runAcc.task.ms, runAcc.busyNs, runAcc.availNs
		if err := acc.timeDecode(w.data, w.blobs); err != nil {
			return nil, nil, err
		}
		extra := func(route string) []request { return pl.plan(100, map[string]int{route: 1}, final) }
		acc.timeHandlers(sys.api, reqs, extra)
		acc.timePredict(sys.predictor, final, reqs)
		acc.timeAnomalies(final)
		acc.addReader(rd, reqs)
		v, _, _ := late.quantile(0.99)
		acc.loadLateP99 = max(acc.loadLateP99, v)
		acc.loadSent += int64(len(w.slices)) + 1
		acc.loadKO += int64(postFailed)
	}
	return res, acc, nil
}

// replay POSTs the whole stream closed loop, each slice as soon as the
// previous reply is read and no reader beside it, to a freshly built
// system, closes the stream and checks the sealed snapshot. It returns
// the processor time the process spent from the first POST to the
// close reply and the system's set-up processor time.
func (w *firehoseWorkload) replay(o options, spec fleetSpec, res *results) (cpuS, setupS float64, err error) {
	start := cpuSeconds()
	sys, err := newSystem(o.seed, spec, true, nil)
	if err != nil {
		return 0, 0, err
	}
	defer sys.close()
	setupS = cpuSeconds() - start
	client := newClient(1)
	defer client.CloseIdleConnections()
	runtime.GC()
	cpu0 := cpuSeconds()
	for i, sl := range w.slices {
		var rep ingestReply
		res.attempted++
		if err := postJSON(client, sys.base+"/v1/ingest", sl.body, &rep); err != nil {
			res.problem("replay: POST /v1/ingest slice %d: %v", i, err)
		}
	}
	var closed ingestReply
	res.attempted++
	if err := postJSON(client, sys.base+"/v1/ingest/close", nil, &closed); err != nil {
		res.problem("replay: POST /v1/ingest/close: %v", err)
	}
	cpuS = cpuSeconds() - cpu0
	for _, d := range compareSnapshots(sys.sink.Snapshot(), w.want) {
		res.problem("replayed snapshot: %s", d)
	}
	return cpuS, setupS, nil
}

// postJSON POSTs body and decodes the JSON reply into out; a non-2xx
// reply is an error.
func postJSON(c *http.Client, url string, body []byte, out any) error {
	resp, err := c.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, out)
}
