package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/roadnet"
	"repro/internal/sink"
)

// Read routes of the /v1 API, as serve names them.
var routes = []string{"snapshot", "grid", "cell", "od", "odpair", "predict", "anomalies"}

// request is one planned /v1 read.
type request struct {
	route string
	path  string // path and query
	etag  string // If-None-Match value; the reply must then be 304
	from  geo.XY // predict endpoints and hour, for the direct-call check
	to    geo.XY
	hour  int
}

func (r request) isPredict() bool { return r.route == "predict" }

// planner draws seeded requests. Predict endpoints are graph nodes
// spread over the whole network, checked routable on the generator's
// own graph so no request is planned to fail.
type planner struct {
	rng   *rand.Rand
	area  geo.Rect
	nodes []geo.XY
	check *predict.Predictor
	empty *sink.Snapshot
}

func newPlanner(d *testData, seed int64) *planner {
	g := d.ref.Graph
	var largest []roadnet.NodeID
	for _, c := range g.Components() {
		if len(c) > len(largest) {
			largest = c
		}
	}
	nodes := make([]geo.XY, len(largest))
	for i, id := range largest {
		nodes[i] = g.Nodes[id].Pos
	}
	return &planner{
		rng:   rand.New(rand.NewSource(seed)),
		area:  d.ref.City.StudyArea,
		nodes: nodes,
		check: predict.NewPredictor(g, d.ref.Router),
		empty: &sink.Snapshot{},
	}
}

// bbox draws a random sub-rectangle covering 5-30% of each side of the
// study area.
func (pl *planner) bbox() string {
	a := pl.area
	w := a.Width() * (0.05 + 0.25*pl.rng.Float64())
	h := a.Height() * (0.05 + 0.25*pl.rng.Float64())
	x := a.MinX + (a.Width()-w)*pl.rng.Float64()
	y := a.MinY + (a.Height()-h)*pl.rng.Float64()
	return fmt.Sprintf("%s,%s,%s,%s", ff(x), ff(y), ff(x+w), ff(y+h))
}

func (pl *planner) predictRequest() request {
	for {
		from := pl.nodes[pl.rng.Intn(len(pl.nodes))]
		to := pl.nodes[pl.rng.Intn(len(pl.nodes))]
		if from == to {
			continue
		}
		hour := pl.rng.Intn(25) - 1 // -1 is the all-day profile
		if _, err := pl.check.Predict(pl.empty, from, to, hour); err != nil {
			continue
		}
		path := fmt.Sprintf("/v1/predict?from=%s,%s&to=%s,%s", ff(from.X), ff(from.Y), ff(to.X), ff(to.Y))
		if hour >= 0 {
			path += "&t=" + strconv.Itoa(hour)
		}
		return request{route: "predict", path: path, from: from, to: to, hour: hour}
	}
}

// plan draws n requests from the weighted route mix. snap, when non-nil,
// is the sealed snapshot that cell and direction lookups are drawn from
// (and whose ETag half of the snapshot polls send).
func (pl *planner) plan(n int, mix map[string]int, snap *sink.Snapshot) []request {
	var wheel []string
	for _, r := range routes {
		for i := 0; i < mix[r]; i++ {
			wheel = append(wheel, r)
		}
	}
	var cells []grid.CellID
	var dirs []sink.ODKey
	etag := ""
	if snap != nil {
		cells, dirs = snap.CellIDs(), snap.Directions()
		etag = fmt.Sprintf("\"v%d\"", snap.Epoch)
	}
	out := make([]request, n)
	for i := range out {
		route := wheel[pl.rng.Intn(len(wheel))]
		switch route {
		case "snapshot":
			out[i] = request{route: route, path: "/v1/snapshot"}
			if etag != "" && pl.rng.Intn(2) == 0 {
				out[i].etag = etag
			}
		case "grid":
			out[i] = request{route: route, path: "/v1/grid?bbox=" + pl.bbox()}
		case "cell":
			out[i] = request{route: route, path: "/v1/cells/" + cells[pl.rng.Intn(len(cells))].String()}
		case "od":
			out[i] = request{route: route, path: "/v1/od"}
		case "odpair":
			out[i] = request{route: route, path: "/v1/od/" + dirs[pl.rng.Intn(len(dirs))].String()}
		case "predict":
			out[i] = pl.predictRequest()
		case "anomalies":
			out[i] = request{route: route, path: "/v1/anomalies"}
		}
	}
	return out
}

func ff(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// reader is a closed-loop /v1 client on one connection: it sends its
// planned requests back to back, cycling through them, and measures each
// from sending it to reading the whole reply. Back to back, the
// processors never idle between requests, so the latency is the
// program's service time and not how long an idle virtual processor
// takes to wake, which on a shared host varies run to run more than the
// service time itself (METRICS.md, "Steadiness").
type reader struct {
	client *http.Client
	base   string
	tracer *obs.Tracer // nil unless traced

	read, predict latencies // completion minus send time
	sent, failed  atomic.Int64
	bytes         atomic.Int64
	serviceNs     atomic.Int64 // Σ completion minus send time
	bodies        [][]byte     // predict replies, by request index, for the check

	mu       sync.Mutex
	failures []string
}

// loop sends reqs back to back, cycling through them, until deadline.
func (rd *reader) loop(deadline time.Time, reqs []request) {
	rd.bodies = make([][]byte, len(reqs))
	for i := 0; time.Now().Before(deadline); i++ {
		rd.do(i%len(reqs), reqs[i%len(reqs)])
	}
}

func (rd *reader) do(i int, req request) {
	rd.sent.Add(1)
	sp := rd.tracer.StartSpan("http."+req.route, i)
	sent := time.Now()
	body, err := rd.get(req)
	rd.serviceNs.Add(time.Since(sent).Nanoseconds())
	sp.End()
	lat := &rd.read
	if req.isPredict() {
		lat = &rd.predict
	}
	if err != nil {
		rd.failed.Add(1)
		lat.fail()
		rd.mu.Lock()
		if len(rd.failures) < 5 {
			rd.failures = append(rd.failures, fmt.Sprintf("%s: %v", req.path, err))
		}
		rd.mu.Unlock()
		return
	}
	lat.add(time.Since(sent))
	rd.bytes.Add(int64(len(body)))
	if req.isPredict() {
		rd.bodies[i] = body
	}
}

// serviceUs is the mean time from sending a request to its completion.
func (rd *reader) serviceUs() float64 {
	return float64(rd.serviceNs.Load()) / 1e3 / float64(max(1, rd.sent.Load()))
}

// get performs one request; any status but the intended one is an
// error.
func (rd *reader) get(req request) ([]byte, error) {
	hr, err := http.NewRequestWithContext(context.Background(), http.MethodGet, rd.base+req.path, nil)
	if err != nil {
		return nil, err
	}
	want := http.StatusOK
	if req.etag != "" {
		hr.Header.Set("If-None-Match", req.etag)
		want = http.StatusNotModified
	}
	resp, err := rd.client.Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("status %d, want %d", resp.StatusCode, want)
	}
	return body, nil
}

// sealedReads is a closed-loop read phase over a sealed view.
type sealedReads struct {
	final *sink.Snapshot
	pl    *planner
	reqs  []request
	rd    *reader
}

// readSealed reads the sealed view of sys with queryMix, closed loop on
// one connection, for seconds.
func readSealed(sys *system, d *testData, seed int64, seconds float64, tr *obs.Tracer) *sealedReads {
	s := &sealedReads{final: sys.sink.Snapshot(), pl: newPlanner(d, seed)}
	s.reqs = s.pl.plan(readPool, queryMix, s.final)
	s.rd = &reader{client: newClient(1), base: sys.base, tracer: tr}
	runtime.GC()
	s.rd.loop(time.Now().Add(time.Duration(seconds*float64(time.Second))), s.reqs)
	s.rd.client.CloseIdleConnections()
	return s
}

// check counts the phase's requests and failures into res and requires
// every predict reply to equal a direct Predictor.Predict on the view.
func (s *sealedReads) check(sys *system, res *results, acc *layerAcc) {
	res.attempted += s.rd.sent.Load()
	res.failed += s.rd.failed.Load()
	for _, f := range s.rd.failures {
		res.problems = append(res.problems, "read "+f)
	}
	direct := acc.timePredict(sys.predictor, s.final, s.reqs)
	if bad, first := checkPredicts(s.rd, s.reqs, direct); bad > 0 {
		res.problem("%d predict replies differ from Predictor.Predict, first %s", bad, first)
	}
}

// traceLayers measures, for a workload whose fleet was fed through the
// runner and then read sealed, the layers its traffic does not time
// itself: decode, in-process handlers, anomaly reports, and the ingest
// layer on the fleet's points.
func (s *sealedReads) traceLayers(sys *system, d *testData, blobs [][]byte, acc *layerAcc) error {
	if err := acc.timeDecode(d, blobs); err != nil {
		return err
	}
	acc.timeHandlers(sys.api, s.reqs, func(route string) []request {
		return s.pl.plan(100, map[string]int{route: 1}, s.final)
	})
	acc.addReader(s.rd, s.reqs)
	acc.timeAnomalies(s.final)
	probe, err := ingestProbe(d.ref, ingest.FleetPoints(d.byCar, d.ref.City.DB.Proj))
	if err != nil {
		return err
	}
	acc.setIngest(probe)
	return nil
}
