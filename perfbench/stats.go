package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// latencies collects one latency stream. A failed operation is recorded
// as +Inf, so it misses every latency limit and pushes the upper
// percentiles up instead of vanishing from the sample.
type latencies struct {
	mu sync.Mutex
	ms []float64
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.ms = append(l.ms, float64(d.Nanoseconds())/1e6)
	l.mu.Unlock()
}

func (l *latencies) fail() {
	l.mu.Lock()
	l.ms = append(l.ms, math.Inf(1))
	l.mu.Unlock()
}

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// quantile reports the nearest-rank q-quantile of the stream. When
// fewer than minTail samples would lie beyond q, it reports the highest
// quantile with minTail samples beyond it instead, and used says which.
func (l *latencies) quantile(q float64) (value, used float64, n int) {
	l.mu.Lock()
	s := append([]float64(nil), l.ms...)
	l.mu.Unlock()
	n = len(s)
	if n == 0 {
		return math.NaN(), q, 0
	}
	used = q
	if float64(n)*(1-q) < minTail {
		used = max(0.5, 1-float64(minTail)/float64(n))
	}
	sort.Float64s(s)
	return s[max(0, int(math.Ceil(used*float64(n)))-1)], used, n
}

// row is one printed metric: its value, unit and a note on how it was
// measured (sample count, percentile used).
type row struct {
	name  string
	value float64
	unit  string
	note  string
}

// results is everything one workload run reports.
type results struct {
	e2e       []row
	layer     []row
	selfTime  []row // traced runs: per-span self time, printed only
	tails     []row // latency p99s: per-layer metrics, printed in every run
	info      []row // the load generators' own health, printed only
	attempted int64
	failed    int64
	problems  []string // correctness-check failures
}

func (r *results) addE2E(name string, v float64, unit, note string) {
	r.e2e = append(r.e2e, row{name, v, unit, note})
}

func (r *results) addLayer(name string, v float64, unit, note string) {
	r.layer = append(r.layer, row{name, v, unit, note})
}

// percentiles records the p50 of a latency stream as the end-to-end
// metric <prefix>_p50_ms and its p99 as the tail <prefix>_p99_ms, each
// with its sample count. The tails are reported, not gated: on a
// shared host their run-to-run spread exceeds any useful bound
// (METRICS.md, "Steadiness").
func (r *results) percentiles(prefix string, l *latencies) {
	v, used, n := l.quantile(0.50)
	r.addE2E(prefix+"_p50_ms", v, "ms", fmt.Sprintf("p%s of n=%d", fmtPct(used), n))
	v, used, n = l.quantile(0.99)
	r.tails = append(r.tails, row{prefix + "_p99_ms", v, "ms", fmt.Sprintf("p%s of n=%d", fmtPct(used), n)})
}

// generatorLate records, printed only, the p99 of how late the named
// load generator sent its operations after their due times: the
// generator's own health, which the open-loop latencies include.
func (r *results) generatorLate(name string, l *latencies) {
	v, used, n := l.quantile(0.99)
	r.info = append(r.info, row{"loadgen.late_p99_ms." + name, v, "ms", fmt.Sprintf("p%s of n=%d, not in the result", fmtPct(used), n)})
}

// problem records a failed correctness check; every one also counts as
// a failed operation.
func (r *results) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
	r.failed++
}

func fmtPct(q float64) string {
	return strconv.FormatFloat(q*100, 'f', -1, 64)
}

// rssSampler records the peak resident set size of the process while it
// runs, sampling /proc/self/statm (falling back to the Go runtime's
// mapped memory where procfs is unavailable).
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Int64
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	b := currentRSS()
	if b > s.peak.Load() {
		s.peak.Store(b)
	}
}

// finish stops the sampler and returns the peak in MiB.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	s.sample()
	return float64(s.peak.Load()) / (1 << 20)
}

var pageSize = int64(os.Getpagesize())

func currentRSS() int64 {
	if f, err := os.Open("/proc/self/statm"); err == nil {
		defer f.Close()
		line, _ := bufio.NewReader(f).ReadString('\n')
		if fields := strings.Fields(line); len(fields) >= 2 {
			if pages, err := strconv.ParseInt(fields[1], 10, 64); err == nil {
				return pages * pageSize
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Sys)
}

// median returns the median of vs (vs is reordered).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	sort.Float64s(vs)
	m := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[m]
	}
	return (vs[m-1] + vs[m]) / 2
}

// spinMargin is how long before a due time sleepUntil stops sleeping
// and starts polling the clock: a timer may wake well after it is due,
// and that overshoot would otherwise count in every open-loop latency.
const spinMargin = 500 * time.Microsecond

// sleepUntil blocks until t (returns at once when t has passed). It
// sleeps until spinMargin before t and yields the processor in a loop
// for the rest.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - spinMargin; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// cpuSeconds is the processor time the whole process has used so far,
// user and system. Linux charges the time a hypervisor keeps a virtual
// processor from running to steal time and not to the process, so on a
// shared host a throughput per processor-second stays steady where one
// per wall-clock second follows the neighbours' load.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
