package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sort"
	"testing"

	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/trace"
)

// replayedFleet encodes the pipeline's simulated fleet as a TAXITRCB
// stream and decodes it back, as a trace-file replay reads it.
func replayedFleet(t *testing.T, p *Pipeline) []*trace.Trip {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, p.Gen.Fleet(), p.City.DB.Proj); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("TAXITRCB")) {
		t.Fatal("fleet did not encode as TAXITRCB")
	}
	trips, err := trace.ReadBinary(&buf, p.City.DB.Proj)
	if err != nil {
		t.Fatal(err)
	}
	return trips
}

// fleetRow returns the fleet row of a lineage snapshot.
func fleetRow(t *testing.T, lin *obs.Lineage) obs.StageSnapshot {
	t.Helper()
	if err := lin.Check(); err != nil {
		t.Fatalf("lineage not conserved: %v", err)
	}
	for _, row := range lin.Snapshot(0).Stages {
		if row.Stage == "fleet" {
			return row
		}
	}
	t.Fatal("fleet row missing")
	return obs.StageSnapshot{}
}

// TestRunTripsMatchesSerial: a decoded trace file run on the fleet
// runner gives, at any worker count, the bytes of a serial per-car
// ProcessContext loop, and fills the fleet lineage row with one unit
// per car.
func TestRunTripsMatchesSerial(t *testing.T) {
	ref, err := NewPipeline(determinismConfig())
	if err != nil {
		t.Fatal(err)
	}
	trips := replayedFleet(t, ref)
	byCar := map[int][]*trace.Trip{}
	for _, tr := range trips {
		byCar[tr.CarID] = append(byCar[tr.CarID], tr)
	}
	cars := make([]int, 0, len(byCar))
	for car := range byCar {
		cars = append(cars, car)
	}
	sort.Ints(cars)
	serial := &Result{}
	for _, car := range cars {
		cr, err := ref.ProcessContext(context.Background(), car, byCar[car])
		if err != nil {
			t.Fatalf("car %d: %v", car, err)
		}
		serial.Cars = append(serial.Cars, cr)
	}
	want, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Transitions()) == 0 {
		t.Fatal("degenerate replay: no transitions")
	}

	for _, workers := range []int{1, 4} {
		cfg := determinismConfig()
		cfg.Workers = workers
		cfg.Lineage = obs.NewLineage(nil)
		p, err := NewPipeline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.RunTrips(context.Background(), trips)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: RunTrips diverged from the serial loop (%d vs %d bytes)",
				workers, len(got), len(want))
		}
		row := fleetRow(t, cfg.Lineage)
		if row.In != uint64(len(cars)) || row.Out != uint64(len(cars)) || row.Dropped != 0 {
			t.Fatalf("workers=%d: fleet row = %+v, want %d cars in and ok", workers, row, len(cars))
		}
	}
}

// TestRunTripsIsolatesCarFault: a car failing mid-pipeline comes back
// as a CarError naming car and stage, the other cars' results are
// kept, and the fleet row counts it as failed.
func TestRunTripsIsolatesCarFault(t *testing.T) {
	cfg := determinismConfig()
	cfg.Workers = 2
	cfg.Lineage = obs.NewLineage(nil)
	cfg.Faults = runner.FaultFunc(func(car int, stage string) error {
		if car == 2 && stage == "segment" {
			return errors.New("injected: poisoned car")
		}
		return nil
	})
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.RunTrips(context.Background(), replayedFleet(t, p))
	failed := FailedCars(err)
	if len(failed) != 1 || failed[0].Car != 2 || failed[0].Stage != "segment" {
		t.Fatalf("failed cars = %v (err %v), want car 2 at segment", failed, err)
	}
	if len(res.Cars) != 2 || res.Cars[0].Car != 1 || res.Cars[1].Car != 3 {
		t.Fatalf("kept cars = %d, want cars 1 and 3", len(res.Cars))
	}
	row := fleetRow(t, cfg.Lineage)
	if row.In != 3 || row.Out != 2 || len(row.Reasons) != 1 || row.Reasons[0].Reason != "failed:segment" {
		t.Fatalf("fleet row = %+v", row)
	}
}
