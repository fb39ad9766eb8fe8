package main

import (
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/serve"
	"repro/internal/sink"
)

// Ingest settings of `taxiflow -ingest-addr` (its flag defaults).
const (
	allowedLateness = 30 * time.Second
	idleTimeout     = 10 * time.Minute
)

// system is the program under test, wired as `taxiflow -ingest-addr`
// wires it: one pipeline, sink, predictor, anomaly detector and /v1 API
// (plus, for the firehose, the ingest engine) behind one localhost
// listener, with the metrics registry and lineage ledger attached.
type system struct {
	p         *core.Pipeline
	reg       *obs.Registry
	lin       *obs.Lineage
	sink      *sink.Sink
	engine    *ingest.Engine
	api       *serve.API
	predictor *predict.Predictor
	detector  *predict.AnomalyDetector
	srv       *obs.DebugServer
	base      string // http://host:port
}

// newSystem builds the system from scratch: city, graph, router, sink,
// API and listener, and with withIngest the ingest engine. tr, when
// non-nil, is the pipeline's tracer (traced runs only).
func newSystem(seed int64, spec fleetSpec, withIngest bool, tr *obs.Tracer) (*system, error) {
	reg := obs.NewRegistry()
	lin := obs.NewLineage(reg)
	cfg := pipelineConfig(seed, spec)
	cfg.Metrics, cfg.Lineage, cfg.Tracer = reg, lin, tr
	p, err := core.NewPipeline(cfg)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	snk, err := newSink(p, reg, 0, 0)
	if err != nil {
		return nil, err
	}
	s := &system{
		p: p, reg: reg, lin: lin, sink: snk,
		predictor: predict.NewPredictor(p.Graph, p.Router).WithMetrics(reg),
		detector:  predict.NewAnomalyDetector(predict.AnomalyConfig{}).WithMetrics(reg),
	}
	s.api = serve.NewAPI(snk, reg).WithLineage(lin).WithPredictor(s.predictor).WithAnomalies(s.detector)
	if withIngest {
		s.engine, err = ingest.New(ingest.Config{
			Pipeline: p, Sink: snk,
			AllowedLateness: allowedLateness, IdleTimeout: idleTimeout,
			Metrics: reg, Lineage: lin,
		})
		if err != nil {
			return nil, fmt.Errorf("ingest engine: %w", err)
		}
		s.api.WithIngest(s.engine)
	}
	mux := reg.DebugMux()
	serve.Mount(mux, s.api)
	if s.srv, err = obs.Serve("127.0.0.1:0", mux); err != nil {
		return nil, err
	}
	s.base = "http://" + s.srv.Addr
	return s, nil
}

// close stops the listener; every connection and serving goroutine has
// ended when it returns.
func (s *system) close() {
	if s != nil && s.srv != nil {
		s.srv.Close()
	}
}

// setupTimes builds the system `n` times through build, keeping the last
// build and closing the others; it returns the kept system and every
// build's processor time (cpuSeconds: the work set-up does, without the
// time a shared host's hypervisor takes away).
func setupTimes(n int, build func() (*system, error)) (*system, []float64, error) {
	var kept *system
	var secs []float64
	for i := 0; i < n; i++ {
		start := cpuSeconds()
		s, err := build()
		if err != nil {
			kept.close()
			return nil, nil, err
		}
		secs = append(secs, cpuSeconds()-start)
		kept.close()
		kept = s
	}
	return kept, secs, nil
}

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// histSum returns the named histogram's total in seconds and its count.
func histSum(reg *obs.Registry, name string) (float64, uint64) {
	h := reg.Histogram(name)
	return h.Sum(), h.Count()
}
