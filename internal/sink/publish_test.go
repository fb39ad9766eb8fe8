package sink

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/runner"
	"repro/internal/tracegen"
)

// fleetFixture is a simulated fleet shared by the incremental-publish
// tests: every car's result plus the grid frame and gate names a sink
// needs to aggregate it.
type fleetFixture struct {
	grid  *grid.Grid
	gates []string
	cars  []core.CarResult
}

var (
	fleetOnce sync.Once
	fleet     fleetFixture
	fleetErr  error
)

// simulatedFleet runs a 24-car fleet (half of the runs through gates)
// once per test binary.
func simulatedFleet(t *testing.T) fleetFixture {
	t.Helper()
	fleetOnce.Do(func() {
		var p *core.Pipeline
		p, fleetErr = core.NewPipeline(core.Config{
			CitySeed: 11,
			Fleet:    tracegen.Config{Seed: 11, Cars: 24, TripsPerCar: 6, GateRunFraction: 0.5},
		})
		if fleetErr != nil {
			return
		}
		fleet.gates = p.Selector.GateNames()
		if fleet.grid, fleetErr = GridForPipeline(p); fleetErr != nil {
			return
		}
		var res *core.Result
		if res, fleetErr = p.RunContext(context.Background()); fleetErr != nil {
			return
		}
		fleet.cars = res.Cars
	})
	if fleetErr != nil {
		t.Fatal(fleetErr)
	}
	return fleet
}

// fixedClock stamps every publish with the same instant, so encodings
// differ only where the aggregation does.
func fixedClock() time.Time { return time.Date(2022, 3, 1, 12, 0, 0, 0, time.UTC) }

func fleetSink(t *testing.T, f fleetFixture, shards int) *Sink {
	t.Helper()
	s, err := New(Config{Grid: f.grid, Shards: shards, PublishEvery: -1, Gates: f.gates, Now: fixedClock})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// normalisedEncoding encodes snap with its epoch and publish time
// zeroed: two snapshots of the same absorbed state then encode alike.
func normalisedEncoding(snap *Snapshot) []byte {
	c := *snap
	c.Epoch = 0
	c.PublishedAt = time.Time{}
	return EncodeSnapshot(&c)
}

// markAllDirty marks every key every shard holds dirty, so the next
// publish recomputes the whole aggregation from the shards.
func (s *Sink) markAllDirty() {
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, c := range sh.agg.Cells() {
			sh.dirty.cells[c.ID] = struct{}{}
		}
		for key := range sh.od {
			sh.dirty.od[key] = struct{}{}
		}
		for key := range sh.profiles {
			sh.dirty.profiles[key] = struct{}{}
		}
		sh.mu.Unlock()
	}
}

// failedCar is the runner event of a car that failed for good.
func failedCar(car int) core.CarEvent {
	return core.CarEvent{Car: car, Err: &runner.CarError{Car: car, Err: errors.New("injected failure")}}
}

// fleetOps turns the fleet into a random interleaving of sink calls:
// whole-car Absorbs, failed AbsorbEvents, and cars streamed as
// AbsorbTransitions chunks (interleaved with other cars) closed by a
// CarComplete.
func fleetOps(rng *rand.Rand, cars []core.CarResult) []func(*Sink) {
	type stream struct {
		car    int
		chunks [][]*core.TransitionRecord
	}
	var ops []func(*Sink)
	var open []*stream
	next := 0
	for next < len(cars) || len(open) > 0 {
		if len(open) > 0 && (next == len(cars) || rng.Intn(2) == 0) {
			i := rng.Intn(len(open))
			st := open[i]
			if len(st.chunks) == 0 {
				car := st.car
				ops = append(ops, func(s *Sink) { s.CarComplete(car) })
				open = append(open[:i], open[i+1:]...)
				continue
			}
			chunk := st.chunks[0]
			st.chunks = st.chunks[1:]
			car := st.car
			ops = append(ops, func(s *Sink) { s.AbsorbTransitions(car, chunk) })
			continue
		}
		cr := &cars[next]
		next++
		switch rng.Intn(4) {
		case 0:
			car := cr.Car
			ops = append(ops, func(s *Sink) {
				s.AbsorbEvent(failedCar(car))
			})
		case 1:
			st := &stream{car: cr.Car}
			for recs := cr.Transitions; len(recs) > 0; {
				n := 1 + rng.Intn(len(recs))
				st.chunks = append(st.chunks, recs[:n])
				recs = recs[n:]
			}
			open = append(open, st)
		default:
			ops = append(ops, func(s *Sink) { s.Absorb(cr) })
		}
	}
	return ops
}

// TestIncrementalPublishMatchesOneShot is the incremental publish's
// equivalence gate: after every publish at a random cadence, the
// epoch's encoding must be byte-identical to that of a fresh sink fed
// the same calls and published once with every key recomputed.
func TestIncrementalPublishMatchesOneShot(t *testing.T) {
	f := simulatedFleet(t)
	if len(f.cars) < 20 {
		t.Fatalf("fleet has %d cars, want at least 20", len(f.cars))
	}
	for shards := 1; shards <= 5; shards++ {
		rng := rand.New(rand.NewSource(int64(shards)))
		ops := fleetOps(rng, f.cars)
		s := fleetSink(t, f, shards)
		publishes, profiled := 0, false
		for i := 0; i < len(ops); {
			step := 1 + rng.Intn(6)
			for ; step > 0 && i < len(ops); step-- {
				ops[i](s)
				i++
			}
			got := s.Publish()
			publishes++
			profiled = profiled || len(got.EdgeProfiles) > 0

			// The reference takes its keys from the shard accumulators,
			// not from dirty tracking, so a key absorb failed to mark
			// shows as a difference.
			fresh := fleetSink(t, f, shards)
			for _, op := range ops[:i] {
				op(fresh)
			}
			fresh.markAllDirty()
			want := fresh.Publish()
			if !bytes.Equal(normalisedEncoding(got), normalisedEncoding(want)) {
				t.Fatalf("shards=%d epoch %d (%d of %d calls): incremental snapshot differs from one-shot publish",
					shards, got.Epoch, i, len(ops))
			}
		}
		sealed := s.Seal()
		if sealed.CarsIngested+sealed.CarsFailed != len(f.cars) {
			t.Fatalf("shards=%d: sealed %d+%d cars, want %d",
				shards, sealed.CarsIngested, sealed.CarsFailed, len(f.cars))
		}
		if !profiled || len(sealed.OD) == 0 {
			t.Fatalf("shards=%d: fixture exercised no edge profiles or OD pairs", shards)
		}
		t.Logf("shards=%d: %d calls, %d publishes, %d cells, %d OD, %d profiles",
			shards, len(ops), publishes, len(sealed.Cells), len(sealed.OD), len(sealed.EdgeProfiles))
	}
}

// TestIncrementalPublishConcurrent runs absorbing writers, a publisher
// and readers at once; under -race it is the incremental publish's
// concurrency gate. Readers must see epochs and counts only grow, and
// the sealed epoch must not change when every key is recomputed.
func TestIncrementalPublishConcurrent(t *testing.T) {
	f := simulatedFleet(t)
	s := fleetSink(t, f, 3)
	// The publisher and readers start first and the fleet is absorbed
	// several times over (as distinct car ids), so ingest overlaps many
	// publishes.
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.Publish()
			}
		}
	}()
	for r := 0; r < 2; r++ {
		bg.Add(1)
		go func() {
			defer bg.Done()
			var last Snapshot
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := s.Snapshot()
				if snap.Epoch < last.Epoch || snap.CarsIngested < last.CarsIngested ||
					snap.CarsFailed < last.CarsFailed || snap.Points < last.Points ||
					len(snap.Cells) < len(last.Cells) || len(snap.OD) < len(last.OD) {
					t.Errorf("snapshot went backwards: epoch %d after %d", snap.Epoch, last.Epoch)
					return
				}
				last = *snap
			}
		}()
	}
	const writers, rounds = 4, 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < rounds*len(f.cars); i += writers {
				cr := &f.cars[i%len(f.cars)]
				car := i
				if i%5 == 0 {
					s.AbsorbEvent(failedCar(car))
					continue
				}
				s.AbsorbTransitions(car, cr.Transitions)
				s.CarComplete(car)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	bg.Wait()

	sealed := s.Seal()
	if sealed.CarsIngested+sealed.CarsFailed != rounds*len(f.cars) {
		t.Fatalf("sealed %d+%d cars, want %d", sealed.CarsIngested, sealed.CarsFailed, rounds*len(f.cars))
	}
	s.markAllDirty()
	again := s.Seal()
	if again.Epoch != sealed.Epoch+1 {
		t.Fatalf("republished epoch %d, want %d", again.Epoch, sealed.Epoch+1)
	}
	if !bytes.Equal(normalisedEncoding(again), normalisedEncoding(sealed)) {
		t.Fatal("recomputing every key changed the sealed snapshot")
	}
}

// TestShardForAnyCarID feeds car ids whose negation overflows through a
// sink whose shard count is not a power of two.
func TestShardForAnyCarID(t *testing.T) {
	s := testSink(t, 3, 1)
	for _, car := range []int{math.MinInt, math.MinInt + 1, -1, math.MaxInt} {
		s.AbsorbEvent(failedCar(car))
		cr := synthCar(1, "T-S", 20, 30)
		cr.Car = car
		s.Absorb(&cr)
	}
	if snap := s.Snapshot(); snap.CarsIngested != 4 || snap.CarsFailed != 4 {
		t.Fatalf("ingested/failed = %d/%d, want 4/4", snap.CarsIngested, snap.CarsFailed)
	}
}
