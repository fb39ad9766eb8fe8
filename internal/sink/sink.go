// Package sink is the serving layer's ingest side: a mergeable,
// incrementally updated aggregation over the fleet stream. Where the
// batch pipeline computes grid-cell speed maps (Table 5), OD transition
// statistics (Tables 3-4) and travel-time distributions once at the end
// of a run, the sink folds each car in as it completes — consuming the
// runner's CarEvents — and periodically publishes immutable,
// epoch-numbered snapshots that the HTTP query API (internal/serve)
// reads without ever blocking ingest.
//
// Concurrency model:
//
//   - Ingest is sharded: each car lands entirely in one shard (car
//     number modulo shard count), guarded by that shard's mutex, so
//     per-car absorption from parallel runner workers contends only
//     within a shard and every shard always holds a whole number of
//     cars.
//   - Publish is incremental. Each shard records the cells, OD
//     directions and edge-profile buckets it absorbed into since the
//     last publish (its dirty keys). Publish locks every shard, drains
//     the dirty sets and recomputes only those keys; every other entry
//     is copied from the previous epoch, whose values it shares (cell
//     and profile stats are plain values, travel-time histograms are
//     immutable FrozenHistograms). The new *Snapshot is swapped in with
//     one atomic pointer store; earlier epochs are never mutated.
//   - A dirty key is merged from empty across the shards in index
//     order — Welford merge for moments, exact bucket-count merge for
//     histograms, addition for counts. That is the sequence of merges a
//     from-scratch rebuild of every key would perform, so an epoch is
//     bit-identical to a one-shot publish of the same absorbed state
//     (TestIncrementalPublishMatchesOneShot).
//   - Readers call Snapshot() — a single atomic load. A reader holds one
//     immutable epoch forever; there is nothing to tear and nothing to
//     lock.
//
// The final sealed snapshot is value-identical to the batch Result
// aggregation over the same fleet: integer counts (cells, trips, points,
// histogram buckets) match exactly, and floating-point moments match up
// to accumulation-order rounding (see TestFinalSnapshotMatchesBatch).
package sink

import (
	"context"
	"fmt"
	"log/slog"
	"maps"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Config assembles one sink.
type Config struct {
	// Grid is the analysis grid frame cells are keyed on (required;
	// use the pipeline's study area and cell size to make the final
	// snapshot comparable to the batch aggregation).
	Grid *grid.Grid
	// Shards is the ingest shard count (default GOMAXPROCS). More
	// shards mean less lock contention between runner workers and
	// proportionally more merge work per recomputed key on publish.
	Shards int
	// PublishEvery is the auto-publish cadence in absorbed cars: after
	// every PublishEvery-th car a new epoch is published (default 1 —
	// every completed car becomes queryable immediately). Zero or
	// negative disables auto-publish; the owner then calls Publish or
	// Seal explicitly.
	PublishEvery int
	// Metrics instruments ingest and publish (sink_* metrics); nil
	// disables.
	Metrics *obs.Registry
	// Gates registers the gate names OD directions may reference; the
	// set is published on every snapshot (Snapshot.Gates) so the query
	// layer can reject lookups naming unknown gates. Empty disables
	// gate validation.
	Gates []string
	// Check enables the correctness harness on the sink's own boundary:
	// every publish validates the snapshot transition (strictly
	// advancing epoch, non-shrinking non-negative counts) against the
	// previous one, counting violations on Metrics. With Check.Strict a
	// violation is additionally latched and reported by CheckErr.
	Check check.Config
	// Now is the publish timestamp source (test hook); nil selects
	// time.Now.
	Now func() time.Time
	// Log receives one structured line per publish (Debug) and per seal
	// (Info) — epoch, cars, cells, OD pairs. Nil disables.
	Log *slog.Logger
}

func (c Config) withDefaults() (Config, error) {
	if c.Grid == nil {
		return c, fmt.Errorf("sink: Config.Grid is required")
	}
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.PublishEvery == 0 {
		c.PublishEvery = 1
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c, nil
}

// Sink accumulates fleet results and publishes epoch-swapped immutable
// snapshots. Construct with New; all methods are safe for concurrent
// use.
type Sink struct {
	cfg    Config
	shards []*shard
	// cur is the atomic snapshot pointer readers load; publishes are
	// serialised by pubMu and swap cur exactly once each.
	cur      atomic.Pointer[Snapshot]
	pubMu    sync.Mutex
	absorbed atomic.Uint64 // successful cars folded in, drives auto-publish
	sealed   atomic.Bool

	// checker validates snapshot transitions when Config.Check is on
	// (nil otherwise); checkErr latches the first strict violation.
	// Both are guarded by pubMu (the checker runs only inside publish).
	checker  *check.Validator
	checkErr error
	// pending unions the shards' dirty keys during one publish (guarded
	// by pubMu, emptied after use so its maps keep their capacity).
	pending keySet

	met sinkMetrics
}

// shard is one ingest lane. A car is absorbed entirely under its
// shard's lock, so any publish observes whole cars only.
type shard struct {
	mu     sync.Mutex
	cars   int
	failed int
	points int
	agg    *grid.Aggregator
	od     map[ODKey]*odAcc
	// profiles accumulates per-edge pace observations (seconds per km
	// by edge and hour bucket) from the shard's matched routes.
	profiles map[EdgeProfileKey]*stats.Welford
	// dirty holds the keys absorbed into since the last publish.
	dirty keySet
}

// keySet is a set of snapshot keys, one map per snapshot table.
type keySet struct {
	cells    map[grid.CellID]struct{}
	od       map[ODKey]struct{}
	profiles map[EdgeProfileKey]struct{}
}

func newKeySet() keySet {
	return keySet{
		cells:    map[grid.CellID]struct{}{},
		od:       map[ODKey]struct{}{},
		profiles: map[EdgeProfileKey]struct{}{},
	}
}

func (k *keySet) len() int { return len(k.cells) + len(k.od) + len(k.profiles) }

// drainInto moves every key of k into dst, leaving k empty.
func (k *keySet) drainInto(dst *keySet) {
	maps.Copy(dst.cells, k.cells)
	maps.Copy(dst.od, k.od)
	maps.Copy(dst.profiles, k.profiles)
	k.clear()
}

func (k *keySet) clear() {
	clear(k.cells)
	clear(k.od)
	clear(k.profiles)
}

// odAcc accumulates one direction's transition statistics.
type odAcc struct {
	from, to string
	trips    int
	// travel is the travel-time distribution in seconds, on the obs
	// log-linear bucket layout (merges exactly across shards).
	travel *obs.Histogram
	// Per-transition metric moments (Table 4 rows).
	distKm, fuelMl, lowPct, normalPct stats.Welford
	// Route attribute totals along the matched routes.
	lights, busStops, pedestrian, junctions int
}

type sinkMetrics struct {
	carsAbsorbed *obs.Counter
	carsFailed   *obs.Counter
	publishes    *obs.Counter
	absorbTime   *obs.Histogram
	publishTime  *obs.Histogram
	publishKeys  *obs.Histogram
	epoch        *obs.Gauge
	cells        *obs.Gauge
	odPairs      *obs.Gauge
	profiles     *obs.Gauge
}

// New builds a sink and publishes the empty epoch-0 snapshot, so
// readers attached before the first car completes already see a
// consistent (if empty) world.
func New(cfg Config) (*Sink, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Sink{
		cfg:     cfg,
		shards:  make([]*shard, cfg.Shards),
		checker: check.New(cfg.Check, cfg.Gates, nil, cfg.Metrics),
		pending: newKeySet(),
	}
	for i := range s.shards {
		s.shards[i] = &shard{
			agg:      grid.NewAggregator(cfg.Grid),
			od:       map[ODKey]*odAcc{},
			profiles: map[EdgeProfileKey]*stats.Welford{},
			dirty:    newKeySet(),
		}
	}
	reg := cfg.Metrics
	s.met = sinkMetrics{
		carsAbsorbed: reg.Counter("sink_cars_absorbed"),
		carsFailed:   reg.Counter("sink_cars_failed"),
		publishes:    reg.Counter("sink_publishes"),
		absorbTime:   reg.Histogram("sink_absorb_seconds"),
		publishTime:  reg.Histogram("sink_publish_seconds"),
		publishKeys:  reg.Histogram("sink_publish_keys"),
		epoch:        reg.Gauge("sink_epoch"),
		cells:        reg.Gauge("sink_cells_nonempty"),
		odPairs:      reg.Gauge("sink_od_pairs"),
		profiles:     reg.Gauge("sink_edge_profiles"),
	}
	s.cur.Store(&Snapshot{
		Grid:        cfg.Grid,
		PublishedAt: cfg.Now(),
		Cells:       map[grid.CellID]CellStats{},
		OD:          map[ODKey]ODStats{},
		Gates:       cfg.Gates,
	})
	return s, nil
}

// CheckErr returns the first strict-mode invariant violation a publish
// latched (nil while the sink's snapshot sequence has stayed valid, or
// when checking is off). The error is sticky: once a transition has
// violated the epoch/count monotonicity contract, every later epoch is
// suspect.
func (s *Sink) CheckErr() error {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	return s.checkErr
}

// Snapshot returns the current immutable snapshot: one atomic load,
// never nil, never blocked by ingest. Every field of the returned value
// belongs to a single epoch.
func (s *Sink) Snapshot() *Snapshot { return s.cur.Load() }

// AbsorbEvent consumes one runner event — the function to tee onto
// Pipeline.Stream / pass to Pipeline.RunObserved. Failed cars are
// counted; successful cars are folded into the aggregation, and the
// auto-publish cadence may publish a new epoch.
func (s *Sink) AbsorbEvent(ev core.CarEvent) {
	if ev.Err != nil {
		sh := s.shardFor(ev.Car)
		sh.mu.Lock()
		sh.failed++
		sh.mu.Unlock()
		s.met.carsFailed.Inc()
		return
	}
	s.Absorb(&ev.Result)
}

// Absorb folds one completed car into the aggregation and applies the
// auto-publish cadence.
func (s *Sink) Absorb(cr *core.CarResult) {
	start := time.Now()
	sh := s.shardFor(cr.Car)
	sh.mu.Lock()
	sh.absorb(cr)
	sh.mu.Unlock()
	s.met.absorbTime.Observe(time.Since(start).Seconds())
	s.met.carsAbsorbed.Inc()
	if n := s.absorbed.Add(1); s.cfg.PublishEvery > 0 && n%uint64(s.cfg.PublishEvery) == 0 {
		s.Publish()
	}
}

// AbsorbResult folds a whole batch result in — the bridge for inputs
// that bypass the stream (e.g. trips reloaded from CSV).
func (s *Sink) AbsorbResult(res *core.Result) {
	for i := range res.Cars {
		s.Absorb(&res.Cars[i])
	}
}

// AbsorbTransitions folds newly completed transitions of one car into
// the aggregation without counting the car as ingested — the streaming
// ingest layer's partial-absorb path, called once per trip the
// watermark closes. The car's transitions may arrive across many calls
// (and interleaved with other cars); once no more will come, one
// CarComplete call finishes the car's accounting. The final sealed
// snapshot is then value-identical to absorbing the same transitions
// through Absorb in one piece.
//
// AbsorbTransitions never auto-publishes: watermark-driven owners
// publish explicitly after each flush round so snapshot epochs track
// watermark advances rather than trip counts.
func (s *Sink) AbsorbTransitions(car int, recs []*core.TransitionRecord) {
	if len(recs) == 0 {
		return
	}
	start := time.Now()
	sh := s.shardFor(car)
	sh.mu.Lock()
	sh.absorbTransitions(recs)
	sh.mu.Unlock()
	s.met.absorbTime.Observe(time.Since(start).Seconds())
}

// CarComplete marks one car's stream of transitions finished, counting
// it toward CarsIngested and applying the auto-publish cadence. Call
// exactly once per car, after its last AbsorbTransitions.
func (s *Sink) CarComplete(car int) {
	sh := s.shardFor(car)
	sh.mu.Lock()
	sh.cars++
	sh.mu.Unlock()
	s.met.carsAbsorbed.Inc()
	if n := s.absorbed.Add(1); s.cfg.PublishEvery > 0 && n%uint64(s.cfg.PublishEvery) == 0 {
		s.Publish()
	}
}

// shardFor maps a car to its shard. The modulo is unsigned so every
// int, math.MinInt included, lands on a valid index.
func (s *Sink) shardFor(car int) *shard {
	return s.shards[uint(car)%uint(len(s.shards))]
}

// absorb folds one car in; the caller holds the shard lock.
func (sh *shard) absorb(cr *core.CarResult) {
	sh.cars++
	sh.absorbTransitions(cr.Transitions)
}

// absorbTransitions folds transition records into the shard's grid and
// OD accumulators and marks every key it touched dirty; the caller
// holds the shard lock.
func (sh *shard) absorbTransitions(recs []*core.TransitionRecord) {
	for _, rec := range recs {
		for _, sp := range core.TransitionSpeedPoints(rec) {
			if id, ok := sh.agg.Add(sp.Pos, sp.SpeedKmh); ok {
				sh.points++
				sh.dirty.cells[id] = struct{}{}
			}
		}
		key := ODKey{From: rec.Transition.From, To: rec.Transition.To}
		od := sh.od[key]
		if od == nil {
			od = &odAcc{from: key.From, to: key.To, travel: &obs.Histogram{}}
			sh.od[key] = od
		}
		sh.dirty.od[key] = struct{}{}
		od.trips++
		od.travel.Observe(rec.RouteTimeH * 3600)
		od.distKm.Add(rec.RouteDistKm)
		od.fuelMl.Add(rec.FuelMl)
		od.lowPct.Add(rec.LowSpeedPct)
		od.normalPct.Add(rec.NormalSpeedPct)
		od.lights += rec.Attrs.TrafficLights
		od.busStops += rec.Attrs.BusStops
		od.pedestrian += rec.Attrs.PedestrianCrossings
		od.junctions += rec.Attrs.Junctions
		for _, ep := range core.TransitionEdgePaces(rec) {
			key := EdgeProfileKey{Edge: ep.Edge, Hour: ep.Hour}
			w := sh.profiles[key]
			if w == nil {
				w = &stats.Welford{}
				sh.profiles[key] = w
			}
			w.Add(ep.SecPerKm)
			sh.dirty.profiles[key] = struct{}{}
		}
	}
}

// Publish builds the next immutable snapshot from the previous one and
// the keys absorbed into since, bumps the epoch and swaps it in.
// Publishes are serialised; readers are never blocked (they keep
// whatever epoch they already loaded). Returns the published snapshot.
func (s *Sink) Publish() *Snapshot { return s.publish(false) }

// Seal publishes the final snapshot with Complete set — the run is
// over, the aggregation will not change again. Further absorbs are
// still folded in defensively but a sealed sink is meant to be
// read-only.
func (s *Sink) Seal() *Snapshot {
	s.sealed.Store(true)
	return s.publish(true)
}

func (s *Sink) publish(complete bool) *Snapshot {
	start := time.Now()
	s.pubMu.Lock()
	defer s.pubMu.Unlock()

	// Start from a copy of the previous epoch: only pubMu writes cur, so
	// prev is stable, and it is immutable, so its values are shared.
	prev := s.cur.Load()
	snap := &Snapshot{
		Grid:         s.cfg.Grid,
		Complete:     complete || s.sealed.Load(),
		Cells:        maps.Clone(prev.Cells),
		OD:           maps.Clone(prev.OD),
		Gates:        s.cfg.Gates,
		EdgeProfiles: maps.Clone(prev.EdgeProfiles),
	}
	// Lock every shard, in index order, for one consistent cut of whole
	// cars. Absorbs hold at most one shard lock, so this cannot
	// deadlock; the locks are held only while the dirty keys merge.
	for _, sh := range s.shards {
		sh.mu.Lock()
		snap.CarsIngested += sh.cars
		snap.CarsFailed += sh.failed
		snap.Points += sh.points
		sh.dirty.drainInto(&s.pending)
	}
	for id := range s.pending.cells {
		snap.Cells[id] = s.mergeCell(id)
	}
	for key := range s.pending.od {
		snap.OD[key] = s.mergeOD(key)
	}
	if snap.EdgeProfiles == nil && len(s.pending.profiles) > 0 {
		snap.EdgeProfiles = make(map[EdgeProfileKey]EdgeProfileStats, len(s.pending.profiles))
	}
	for key := range s.pending.profiles {
		snap.EdgeProfiles[key] = s.mergeProfile(key)
	}
	for _, sh := range s.shards {
		sh.mu.Unlock()
	}
	keys := s.pending.len()
	s.pending.clear()

	snap.Epoch = prev.Epoch + 1
	snap.PublishedAt = s.cfg.Now()
	if err := s.checker.SnapshotTransition(
		check.SnapshotMeta{Epoch: prev.Epoch, CarsIngested: prev.CarsIngested, CarsFailed: prev.CarsFailed, Points: prev.Points},
		check.SnapshotMeta{Epoch: snap.Epoch, CarsIngested: snap.CarsIngested, CarsFailed: snap.CarsFailed, Points: snap.Points},
	); err != nil && s.checkErr == nil {
		s.checkErr = err
	}
	s.cur.Store(snap)

	s.met.publishes.Inc()
	s.met.publishTime.Observe(time.Since(start).Seconds())
	s.met.publishKeys.Observe(float64(keys))
	s.met.epoch.Set(int64(snap.Epoch))
	s.met.cells.Set(int64(len(snap.Cells)))
	s.met.odPairs.Set(int64(len(snap.OD)))
	s.met.profiles.Set(int64(len(snap.EdgeProfiles)))
	if log := s.cfg.Log; log != nil {
		msg, level := "snapshot published", slog.LevelDebug
		if snap.Complete {
			msg, level = "sink sealed", slog.LevelInfo
		}
		log.Log(context.Background(), level, msg,
			slog.Uint64("epoch", snap.Epoch),
			slog.Int("cars", snap.CarsIngested),
			slog.Int("failed", snap.CarsFailed),
			slog.Int("points", snap.Points),
			slog.Int("cells", len(snap.Cells)),
			slog.Int("od_pairs", len(snap.OD)),
			slog.Bool("complete", snap.Complete))
	}
	return snap
}

// The merge helpers below recompute one key from empty, visiting the
// shards in index order; the caller holds pubMu and every shard lock.

func (s *Sink) mergeCell(id grid.CellID) CellStats {
	var w stats.Welford
	for _, sh := range s.shards {
		if c := sh.agg.Cell(id); c != nil {
			w.Merge(c.Speed)
		}
	}
	return newCellStats(&w)
}

func (s *Sink) mergeOD(key ODKey) ODStats {
	m := odAcc{from: key.From, to: key.To, travel: &obs.Histogram{}}
	for _, sh := range s.shards {
		od := sh.od[key]
		if od == nil {
			continue
		}
		m.trips += od.trips
		m.travel.Merge(od.travel)
		m.distKm.Merge(od.distKm)
		m.fuelMl.Merge(od.fuelMl)
		m.lowPct.Merge(od.lowPct)
		m.normalPct.Merge(od.normalPct)
		m.lights += od.lights
		m.busStops += od.busStops
		m.pedestrian += od.pedestrian
		m.junctions += od.junctions
	}
	return ODStats{
		From:           m.from,
		To:             m.to,
		Trips:          m.trips,
		TravelTimeS:    m.travel.Freeze(),
		DistKm:         summarize(m.distKm),
		FuelMl:         summarize(m.fuelMl),
		LowSpeedPct:    summarize(m.lowPct),
		NormalSpeedPct: summarize(m.normalPct),
		Attrs: AttrTotals{
			TrafficLights:       m.lights,
			BusStops:            m.busStops,
			PedestrianCrossings: m.pedestrian,
			Junctions:           m.junctions,
		},
	}
}

func (s *Sink) mergeProfile(key EdgeProfileKey) EdgeProfileStats {
	var w stats.Welford
	for _, sh := range s.shards {
		if p := sh.profiles[key]; p != nil {
			w.Merge(*p)
		}
	}
	return newEdgeProfileStats(&w)
}
