// Command coach runs the Driving Coach analysis over a fleet: per-trip
// eco scores (worst offenders listed), per-direction route-variant
// comparison, and a fleet-level summary. With -traces it analyses a
// recorded CSV dataset (written by cmd/tracegen against the same seed);
// otherwise it simulates a fleet.
//
// Usage:
//
//	coach [-cars N] [-trips N] [-seed N] [-traces FILE] [-worst N]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"text/tabwriter"

	"repro"
	"repro/internal/coach"
	"repro/internal/routes"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("coach: ")
	cars := flag.Int("cars", 3, "number of simulated taxis")
	trips := flag.Int("trips", 50, "engine-on trips per taxi")
	seed := flag.Int64("seed", 42, "master random seed")
	tracesIn := flag.String("traces", "", "optional route-point CSV to analyse instead of simulating")
	worst := flag.Int("worst", 3, "how many least efficient trips to detail")
	flag.Parse()

	p, err := taxitrace.New(taxitrace.Config{
		CitySeed: *seed,
		Fleet: tracegen.Config{
			Seed: *seed, Cars: *cars, TripsPerCar: *trips, GateRunFraction: 0.3,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	var res *taxitrace.Result
	if *tracesIn != "" {
		res, err = processCSV(ctx, p, *tracesIn)
	} else {
		res, err = p.RunContext(ctx)
	}
	if err != nil {
		log.Fatal(err)
	}
	recs := res.Transitions()
	if len(recs) == 0 {
		log.Fatal("no transitions to analyse")
	}

	c := coach.New(p.Graph)
	reports := make([]coach.TripReport, len(recs))
	var scores, fuelPerKm []float64
	for i, rec := range recs {
		reports[i] = c.Analyze(rec)
		scores = append(scores, reports[i].EcoScore)
		fuelPerKm = append(fuelPerKm, reports[i].FuelPerKm)
	}
	fmt.Printf("fleet: %d analysed trips\n", len(reports))
	fmt.Printf("eco score:   %s\n", stats.Summarize(scores))
	fmt.Printf("fuel per km: %s\n", stats.Summarize(fuelPerKm))

	sort.Slice(reports, func(i, j int) bool { return reports[i].EcoScore < reports[j].EcoScore })
	n := *worst
	if n > len(reports) {
		n = len(reports)
	}
	fmt.Printf("\n%d least efficient trips:\n", n)
	for _, r := range reports[:n] {
		fmt.Printf("  score %3.0f  %s %s: %.2f km, %.0f ml, idle %.0f%%, low %.0f%%, detour %.2f\n",
			r.EcoScore, r.Key, r.Direction, r.DistanceKm, r.FuelMl,
			r.IdlePct, r.LowSpeedPct, r.DetourFactor)
		for _, s := range r.Suggestions {
			fmt.Printf("    - %s\n", s)
		}
	}

	options, err := coach.CompareRoutes(recs, routes.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nroute variants (eco-best per direction marked *):")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "dir\tvariant\ttrips\tfuel(ml)\ttime(min)\tlow%")
	for _, o := range options {
		if o.Trips < 2 && !o.EcoBest {
			continue // keep the table readable
		}
		mark := ""
		if o.EcoBest {
			mark = "*"
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%.0f%s\t%.1f\t%.1f\n",
			o.Direction, o.Variant, o.Trips, o.MeanFuelMl, mark, o.MeanTimeMin, o.MeanLowPct)
	}
	w.Flush()
}

// processCSV loads recorded trips and runs them on the fleet runner.
func processCSV(ctx context.Context, p *taxitrace.Pipeline, path string) (*taxitrace.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	trips, err := trace.ReadCSV(f, p.City.DB.Proj)
	if err != nil {
		return nil, err
	}
	return p.RunTrips(ctx, trips)
}
