package main

import (
	"context"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"picpredict/internal/geom"
	"picpredict/internal/obs"
	"picpredict/internal/pipeline"
)

// tracer collects the durations of layer calls the benchmark wraps, and of
// layer figures read from obs registries, keyed by layer name. A nil *tracer records nothing, so untraced runs go through
// the same code.
type tracer struct {
	mu    sync.Mutex
	spans map[string][]time.Duration
}

func newTracer() *tracer { return &tracer{spans: map[string][]time.Duration{}} }

func (t *tracer) add(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[name] = append(t.spans[name], d)
	t.mu.Unlock()
}

// start opens a span; calling the returned function closes it.
func (t *tracer) start(name string) func() {
	if t == nil {
		return func() {}
	}
	t0 := time.Now()
	return func() { t.add(name, time.Since(t0)) }
}

// meanMs is the mean span duration of one layer, in milliseconds; 0 when
// the layer recorded none.
func (t *tracer) meanMs(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := t.spans[name]
	if len(spans) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range spans {
		sum += d
	}
	return sum.Seconds() * 1000 / float64(len(spans))
}

// timedSource wraps a simulation frame source. busy is the time the source
// spent producing frames (simulation steps plus float32 quantisation),
// leaving out the time it spent inside emit handing frames on.
type timedSource struct {
	src     *pipeline.SimSource
	t       *tracer
	steps   int
	blocked time.Duration
}

func (s *timedSource) NumParticles() int { return s.src.NumParticles() }

func (s *timedSource) Stream(ctx context.Context, emit pipeline.EmitFunc) error {
	s.src.OnStep = func(int) error { s.steps++; return nil }
	t0 := time.Now()
	err := s.src.Stream(ctx, func(it int, pos []geom.Vec3) error {
		e0 := time.Now()
		err := emit(it, pos)
		s.blocked += time.Since(e0)
		return err
	})
	busy := time.Since(t0) - s.blocked
	s.t.add("pic.busy", busy)
	if s.steps > 0 {
		s.t.add("pic.step", busy/time.Duration(s.steps))
	}
	return err
}

// setUp runs build n times and keeps the last result, releasing each
// earlier one (and collecting its garbage) before the next build, so the
// peak RSS does not depend on when the collector ran. It returns the
// median set-up time in seconds.
func setUp[T any](n int, build func() (T, error), release func(T)) (T, float64, error) {
	var (
		kept  T
		times []float64
	)
	for i := 0; i < n; i++ {
		if i > 0 {
			release(kept)
			runtime.GC()
		}
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return v, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		kept = v
	}
	return kept, median(times), nil
}

// repeatFor calls op until the measured time d has passed, at least once,
// and returns each call's duration in seconds.
func repeatFor(d time.Duration, op func() error) ([]float64, error) {
	var walls []float64
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < d {
		t0 := time.Now()
		if err := op(); err != nil {
			return walls, err
		}
		walls = append(walls, time.Since(t0).Seconds())
	}
	return walls, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest sample with at least ten samples beyond it,
// the percentile that sample sits at, and the sample count. With eleven
// samples or fewer the tail is the slowest sample.
func tail(xs []float64) (value, percentile float64, n int) {
	n = len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := n - 11
	if n <= 11 {
		k = n - 1
	}
	return s[k], 100 * float64(k+1) / float64(n), n
}

// fanOut calls f(0) … f(n-1) on workers goroutines and returns the error
// of the lowest index that failed.
func fanOut(workers, n int, f func(i int) error) error {
	errs := make([]error, n)
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = f(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// builderFrame is the pipeline's own per-sink latency record of every
// GeneratorBuilder.Frame call in the streams a registry observed.
const builderFrame = "pipeline.stage.GeneratorBuilder.frame_ns"

// histMean is the mean of one registry histogram of nanoseconds, 0 when it
// holds none.
func histMean(reg *obs.Registry, name string) time.Duration {
	h := reg.Histogram(name).Stats()
	if h.Count == 0 {
		return 0
	}
	return time.Duration(h.Sum / h.Count)
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
