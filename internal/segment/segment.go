// Package segment splits day-long engine-on taxi trips into customer
// trip segments using the paper's time-based segmentation rules
// (Table 2), then filters segments too short or too long to analyse.
//
// Taxi drivers can drive almost the whole day without turning the
// engine off, so a raw "trip" (engine-on period) spans many customer
// runs separated by stand waits. The five rules detect those stops:
//
//  1. no movement between route points for >= 3 minutes;
//  2. less than 3 km moved across a gap of more than 7 minutes;
//  3. implied speed below 0.002 m/s between consecutive points;
//  4. less than 3 km in more than 15 minutes at speed above 0.002 m/s;
//  5. after the first round, segments longer than 40 km are re-split
//     with rule 1 at a 1.5-minute interval.
//
// Finally, segments with fewer than five route points or longer than
// 30 km are removed.
package segment

import (
	"time"

	"repro/internal/trace"
)

// Rules holds the Table 2 thresholds. DefaultRules reproduces the
// paper's values; tests and ablations may vary them.
type Rules struct {
	// Rule 1: a gap with less than MoveEpsilonM movement lasting at
	// least StillGap is a stop.
	StillGap     time.Duration
	MoveEpsilonM float64

	// Rule 2: a gap longer than SlowGap with less than SlowDistM moved
	// is a stop.
	SlowGap   time.Duration
	SlowDistM float64

	// Rule 3: implied speed below CrawlSpeedMS (m/s) is a stop.
	CrawlSpeedMS float64

	// Rule 4: a gap longer than LongGap with less than SlowDistM moved
	// (at speed above CrawlSpeedMS) is a stop.
	LongGap time.Duration

	// Rule 5: segments longer than ResplitLengthM after the first round
	// are re-split with rule 1 at ResplitGap.
	ResplitLengthM float64
	ResplitGap     time.Duration

	// Post-filters.
	MinPoints  int
	MaxLengthM float64
}

// DefaultRules returns the paper's Table 2 thresholds.
func DefaultRules() Rules {
	return Rules{
		StillGap:       3 * time.Minute,
		MoveEpsilonM:   25, // "does not change", allowing GPS noise
		SlowGap:        7 * time.Minute,
		SlowDistM:      3000,
		CrawlSpeedMS:   0.002,
		LongGap:        15 * time.Minute,
		ResplitLengthM: 40_000,
		ResplitGap:     90 * time.Second,
		MinPoints:      5,
		MaxLengthM:     30_000,
	}
}

// Stats summarises one segmentation run.
type Stats struct {
	InputTrips        int
	RawSegments       int // segments found before post-filtering
	Resplit           int // segments re-split by rule 5
	TooFewPoints      int // dropped: fewer than MinPoints
	TooLong           int // dropped: longer than MaxLengthM
	KeptSegments      int
	StopGapsByRule    [5]int // which rule fired, for diagnostics
	DroppedStopPoints int    // heartbeat points inside detected stops
	TotalKeptLength   float64
}

// Split segments one cleaned trip. Points must already be in true
// order (package clean guarantees this). The returned segments share
// the source trip's ID; the paper's trip-id + start-time key keeps them
// distinct.
func Split(t *trace.Trip, rules Rules, stats *Stats) []*trace.Trip {
	if stats != nil {
		stats.InputTrips++
	}
	segs := splitOnce(t, rules, false, stats)

	// Rule 5: second round over segments that remain implausibly long.
	var out []*trace.Trip
	for _, s := range segs {
		if trace.PathLength(s.Points) > rules.ResplitLengthM {
			if stats != nil {
				stats.Resplit++
			}
			out = append(out, splitOnce(s, rules, true, stats)...)
			continue
		}
		out = append(out, s)
	}

	// Post-filters.
	kept := out[:0]
	for _, s := range out {
		if stats != nil {
			stats.RawSegments++
		}
		n := len(s.Points)
		length := trace.PathLength(s.Points)
		switch {
		case n < rules.MinPoints:
			if stats != nil {
				stats.TooFewPoints++
			}
		case length > rules.MaxLengthM:
			if stats != nil {
				stats.TooLong++
			}
		default:
			kept = append(kept, s)
			if stats != nil {
				stats.KeptSegments++
				stats.TotalKeptLength += length
			}
		}
	}
	return kept
}

// splitOnce breaks the trip at every detected stop. Rule 1 (and its
// rule 5 variant on the re-split round) is a *window* rule: the device
// keeps emitting heartbeat points while the taxi stands, so stillness
// must be detected over runs of points that stay within MoveEpsilonM,
// not over single gaps. Rules 2-4 act on single inter-point gaps.
//
// At a still-run stop the segment ends at the run's first point (the
// arrival) and the next segment starts at the run's last point (the
// departure); the heartbeat points strictly inside the stop are
// discarded (counted in Stats.DroppedStopPoints).
func splitOnce(t *trace.Trip, rules Rules, resplit bool, stats *Stats) []*trace.Trip {
	pts := t.Points
	if len(pts) == 0 {
		return nil
	}
	type cut struct {
		end  int // last index of the finished segment (inclusive)
		next int // first index of the following segment
		rule int // 1-based rule number
	}
	var cuts []cut

	stillGap := rules.StillGap
	stillRule := 1
	if resplit {
		stillGap = rules.ResplitGap
		stillRule = 5
	}
	i := 0
	for i < len(pts)-1 {
		// Maximal still-run anchored at point i.
		j := i
		for j+1 < len(pts) && pts[j+1].Pos.Dist(pts[i].Pos) < rules.MoveEpsilonM {
			j++
		}
		if j > i && pts[j].Time.Sub(pts[i].Time) >= stillGap {
			cuts = append(cuts, cut{end: i, next: j, rule: stillRule})
			i = j
			continue
		}
		if !resplit {
			if r := pairRule(&pts[i], &pts[i+1], rules); r != 0 {
				cuts = append(cuts, cut{end: i, next: i + 1, rule: r})
			}
		}
		i++
	}

	var segs []*trace.Trip
	start := 0
	for _, c := range cuts {
		if stats != nil {
			stats.StopGapsByRule[c.rule-1]++
			stats.DroppedStopPoints += c.next - c.end - 1
		}
		segs = append(segs, subTrip(t, start, c.end+1))
		start = c.next
	}
	segs = append(segs, subTrip(t, start, len(pts)))
	return segs
}

// pairRule returns the rule (2, 3 or 4) classifying a single
// inter-point gap as a stop, or 0.
func pairRule(a, b *trace.RoutePoint, rules Rules) int {
	dt := b.Time.Sub(a.Time)
	if dt <= 0 {
		return 0
	}
	dd := a.Pos.Dist(b.Pos)
	v := dd / dt.Seconds()
	switch {
	case dd < rules.SlowDistM && dt > rules.LongGap && v > rules.CrawlSpeedMS:
		return 4
	case dd < rules.SlowDistM && dt > rules.SlowGap:
		return 2
	case v < rules.CrawlSpeedMS:
		return 3
	default:
		return 0
	}
}

// subTrip copies points [i, j) into a fresh segment trip.
func subTrip(t *trace.Trip, i, j int) *trace.Trip {
	out := &trace.Trip{ID: t.ID, CarID: t.CarID}
	out.Points = append([]trace.RoutePoint(nil), t.Points[i:j]...)
	if t.TimeSorted() {
		// A contiguous slice of a time-ordered trip stays ordered.
		out.MarkTimeSorted()
	}
	return out
}
