package core

import (
	"context"
	"fmt"
	"io"
	"slices"

	"repro/internal/clean"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/segment"
	"repro/internal/trace"
)

// Columnar car processing: the cleaning and segmentation stages run on
// struct-of-arrays columns in a pooled per-car arena instead of
// per-trip []RoutePoint slices. Raw trips are appended to the arena
// once, the cleaning kernel appends realigned trips to the same arena,
// segmentation yields zero-copy subviews, and only the kept segments
// are materialised back into row form (the CarResult contract, and
// every stage from OD selection on, works on rows). This is the only
// per-car path; the row kernels clean.Repair and segment.Split are the
// reference the kernel differential tests compare against.

// carScratch is the per-car reusable state. One scratch is checked out
// of the pipeline pool per ProcessContext call, so steady-state
// columnar processing allocates only for the data that escapes (the
// materialised segments).
type carScratch struct {
	arena    *trace.Arena
	clean    clean.Scratch
	breader  trace.BinaryReader // reused by ProcessBinaryContext
	views    []trace.ColTrip    // raw trip views
	cleaned  []trace.ColTrip    // cleaned trip views
	segments []trace.ColTrip    // kept segment views
}

func (p *Pipeline) getScratch() *carScratch {
	if sc, ok := p.scratches.Get().(*carScratch); ok {
		return sc
	}
	return &carScratch{arena: trace.NewArena(0)}
}

func (p *Pipeline) putScratch(sc *carScratch) {
	sc.arena.Reset()
	sc.views = sc.views[:0]
	sc.cleaned = sc.cleaned[:0]
	sc.segments = sc.segments[:0]
	p.scratches.Put(sc)
}

// processRows is ProcessContext without the car trace: it checks the
// raw rows at the input boundary, copies them into the pooled arena
// and runs the columnar stages.
func (p *Pipeline) processRows(ctx context.Context, car int, raw []*trace.Trip) (CarResult, error) {
	if err := p.checkGate("simulate", p.checker.RawTrips(car, raw)); err != nil {
		return CarResult{Car: car, RawTrips: len(raw)}, err
	}
	sc := p.getScratch()
	for _, t := range raw {
		v, err := sc.arena.AppendTrip(t)
		if err != nil {
			p.putScratch(sc)
			return CarResult{Car: car, RawTrips: len(raw)}, &runner.StageError{Stage: "clean", Err: err}
		}
		sc.views = append(sc.views, v)
	}
	return p.processViews(ctx, car, sc)
}

// ProcessBinaryContext is ProcessContext for one car's binary trace
// stream: records are decoded straight into the pooled columnar arena,
// skipping the row materialisation ReadBinary would do only for
// processRows to immediately re-columnarise. Every record in r
// must belong to car. Results are byte-identical to
// ReadBinary + ProcessContext (the differential test asserts this).
func (p *Pipeline) ProcessBinaryContext(ctx context.Context, car int, r io.Reader) (CarResult, error) {
	ctx, root := p.ensureCarTrace(ctx, car)
	cr, err := p.processBinary(ctx, car, r)
	endCarTrace(ctx, root, err)
	return cr, err
}

func (p *Pipeline) processBinary(ctx context.Context, car int, r io.Reader) (CarResult, error) {
	sc := p.getScratch()
	if err := sc.breader.Reset(r, p.City.DB.Proj); err != nil {
		p.putScratch(sc)
		return CarResult{Car: car}, err
	}
	for {
		v, err := sc.breader.Next(sc.arena)
		if err == io.EOF {
			break
		}
		if err != nil {
			p.putScratch(sc)
			return CarResult{Car: car}, err
		}
		if v.CarID != car {
			p.putScratch(sc)
			return CarResult{Car: car}, fmt.Errorf("core: record for car %d in car %d's binary stream", v.CarID, car)
		}
		sc.views = append(sc.views, v)
	}
	// Records arrive in file order; ReadBinary sorts by (car, trip id),
	// so sort the single-car views the same way before processing.
	slices.SortStableFunc(sc.views, func(a, b trace.ColTrip) int {
		switch {
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		default:
			return 0
		}
	})
	if p.checker != nil {
		// The input validator speaks rows; materialise only when checking.
		if err := p.checkGate("simulate", p.checker.RawTrips(car, trace.MaterializeAll(sc.views, false))); err != nil {
			p.putScratch(sc)
			return CarResult{Car: car, RawTrips: len(sc.views)}, err
		}
	}
	return p.processViews(ctx, car, sc)
}

// processViews runs the columnar stages over sc.views, which the
// caller has already filled and checked. It takes ownership of sc.
func (p *Pipeline) processViews(ctx context.Context, car int, sc *carScratch) (CarResult, error) {
	defer p.putScratch(sc)

	carSpan := p.met.car.Start()
	defer func() {
		carSpan.End()
		p.met.cars.Inc()
	}()
	cr := CarResult{Car: car, RawTrips: len(sc.views)}

	// Cleaning (§IV-B) on columns. Every view yields accounting —
	// a trip whose points were all dropped still contributes its drop
	// counts to the lineage.
	if err := p.stageGate(ctx, car, "clean"); err != nil {
		return cr, err
	}
	for _, v := range sc.views {
		cr.CleanStats.RawPoints += v.Len()
	}
	sp := p.met.clean.Start()
	tsp := p.traceStage(ctx, "clean")
	for _, v := range sc.views {
		r := clean.RepairColumns(v, p.Config.Clean, sc.arena, &sc.clean)
		if r.Trip.N == 0 {
			cr.CleanStats.EmptyTrips++
		} else {
			sc.cleaned = append(sc.cleaned, r.Trip)
			cr.CleanStats.Trips++
			cr.CleanStats.KeptPoints += r.Trip.N
		}
		if r.Reordered {
			cr.CleanStats.Reordered++
		}
		if r.ChosenOrder == clean.OrderByTime {
			cr.CleanStats.ChoseTime++
		}
		cr.CleanStats.DroppedPoints += r.Dropped
		cr.CleanStats.Drops.Merge(r.Drops)
	}
	sp.End()
	tsp.End(obs.TAttr("trips", itoa(cr.CleanStats.Trips)),
		obs.TAttr("dropped_points", itoa(cr.CleanStats.DroppedPoints)))
	if p.checker != nil {
		// The validator speaks rows; materialise only when checking.
		if err := p.checkGate("clean", p.checker.CleanedTrips(car, trace.MaterializeAll(sc.cleaned, true))); err != nil {
			return cr, err
		}
	}

	// Segmentation (Table 2) as zero-copy views; kept segments are
	// materialised into the CarResult, which owns its memory.
	if err := p.stageGate(ctx, car, "segment"); err != nil {
		return cr, err
	}
	sp = p.met.segment.Start()
	tsp = p.traceStage(ctx, "segment")
	for _, v := range sc.cleaned {
		sc.segments = segment.SplitColumns(v, p.Rules, &cr.SegStats, sc.segments)
	}
	cr.Segments = trace.MaterializeAll(sc.segments, true)
	tsp.End(obs.TAttr("kept", itoa(cr.SegStats.KeptSegments)))
	sp.End()
	if err := p.checkGate("segment", p.checker.Segments(car, cr.Segments, segmentCheckRules(p.Rules))); err != nil {
		return cr, err
	}

	err := p.selectAndAnalyse(ctx, car, &cr)
	return cr, err
}
