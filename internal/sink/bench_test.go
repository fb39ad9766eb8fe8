package sink

import (
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/grid"
)

// benchSink builds a sink over the standard bench grid with
// auto-publish disabled, so absorb and publish cost are measured
// separately.
func benchSink(b *testing.B, shards int) *Sink {
	b.Helper()
	g, err := grid.New(geo.R(0, 0, 2000, 2000), 200)
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{Grid: g, Shards: shards, PublishEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// benchCars prebuilds a pool of car results (ids 0..n-1, rows spread
// across the grid) so the generators stay out of the timed loop.
func benchCars(n int) []*core.CarResult {
	out := make([]*core.CarResult, n)
	for i := range out {
		dir := "T-S"
		if i%2 == 1 {
			dir = "S-T"
		}
		cr := synthCar(i%19, dir, 20, 35, 50, 45, 30, 25, 40, 55)
		cr.Car = i
		out[i] = &cr
	}
	return out
}

// BenchmarkSinkAbsorb measures single-writer ingest-merge throughput:
// one 8-point transition per car folded into the shard aggregation.
func BenchmarkSinkAbsorb(b *testing.B) {
	s := benchSink(b, 4)
	pool := benchCars(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Absorb(pool[i%len(pool)])
	}
}

// BenchmarkSinkAbsorbParallel measures contended ingest: GOMAXPROCS
// writers absorbing into a GOMAXPROCS-sharded sink.
func BenchmarkSinkAbsorbParallel(b *testing.B) {
	s := benchSink(b, 0)
	pool := benchCars(256)
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(next.Add(1))
			s.Absorb(pool[i%len(pool)])
		}
	})
}

// BenchmarkSinkPublish measures one publish with nothing newly
// absorbed over a sink holding 512 cars: no key is dirty, so this is
// the floor of copying the previous epoch's tables.
func BenchmarkSinkPublish(b *testing.B) {
	s := benchSink(b, 4)
	for _, cr := range benchCars(512) {
		s.Absorb(cr)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Publish()
	}
}

// BenchmarkSinkAbsorbPublish measures the PublishEvery=1 path: one car
// absorbed into the 512-car sink, then published, so each publish
// recomputes that car's keys and copies the rest.
func BenchmarkSinkAbsorbPublish(b *testing.B) {
	s := benchSink(b, 4)
	pool := benchCars(512)
	for _, cr := range pool {
		s.Absorb(cr)
	}
	s.Publish()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Absorb(pool[i%len(pool)])
		s.Publish()
	}
}
