package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"picpredict"
	"picpredict/internal/gate"
	"picpredict/internal/obs"
	"picpredict/internal/serve"
)

// clientTimeout bounds one request; a failed request counts as taking
// this long, so it misses any latency limit.
const clientTimeout = 30 * time.Second

// serveStack is one shard, the gate in front of it, and the client, all on
// loopback listeners in this process.
type serveStack struct {
	// in holds the trace the shard serves and the models trained
	// in-process, exactly as the shard trains them, for the check.
	in        *inputs
	shard     *serve.Server
	clock     *handlerClock // nil in untraced runs
	shardHTTP *http.Server
	shardDone chan error
	stopGate  context.CancelFunc
	gateDone  chan error
	url       string
	client    *http.Client
}

// handlerClock wraps the shard's handler and, while on, times every
// /v1/predict it serves, keyed by the request ID the gate propagates.
type handlerClock struct {
	next http.Handler
	on   atomic.Bool

	mu       sync.Mutex
	byID     map[string]time.Duration
	attempts int
}

func (h *handlerClock) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.on.Load() || r.URL.Path != "/v1/predict" {
		h.next.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(t0)
	h.mu.Lock()
	h.byID[r.Header.Get("X-Request-ID")] = d
	h.attempts++
	h.mu.Unlock()
}

func (h *handlerClock) reset(on bool) {
	h.mu.Lock()
	h.byID = map[string]time.Duration{}
	h.attempts = 0
	h.mu.Unlock()
	h.on.Store(on)
}

func predictBody(ranks int) []byte {
	b, _ := json.Marshal(serve.PredictRequest{
		Ranks:   []int{ranks},
		Mapping: string(picpredict.MappingElement),
		Filter:  filterRadius,
		Model:   serve.ModelParams{Fast: true},
	})
	return b
}

// startServe simulates the trace (training the check's models on the
// other core meanwhile) and brings up shard, gate and client, then warms
// the shard's model registry with one request.
func startServe(ctx context.Context, p params, t *tracer) (*serveStack, error) {
	spec := p.spec()
	in, err := prepare(ctx, spec, t)
	if err != nil {
		return nil, err
	}
	q := platform(spec)
	st := &serveStack{in: in, shardDone: make(chan error, 1), gateDone: make(chan error, 1)}
	st.shard = serve.New(serve.Config{Workers: shardWorkers, TotalElements: q.TotalElements, GridN: q.GridN})
	if err := st.shard.AddTrace("hele-shaw", in.f.trace, fmt.Sprintf("perfbench-seed-%d", p.seed)); err != nil {
		st.shard.Close()
		return nil, err
	}
	var handler http.Handler = st.shard.Handler()
	if t != nil {
		st.clock = &handlerClock{next: handler}
		st.clock.reset(false)
		handler = st.clock
	}
	shardLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.shard.Close()
		return nil, err
	}
	st.shardHTTP = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	st.shard.MarkReady()
	go func() { st.shardDone <- st.shardHTTP.Serve(shardLn) }()

	g, err := gate.New(gate.Config{Backends: []string{shardLn.Addr().String()}})
	if err != nil {
		st.closeShard()
		return nil, err
	}
	gateLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.closeShard()
		return nil, err
	}
	gctx, cancel := context.WithCancel(context.Background())
	st.stopGate = cancel
	go func() { st.gateDone <- g.Serve(gctx, gateLn, 5*time.Second) }()
	st.url = "http://" + gateLn.Addr().String() + "/v1/predict"
	st.client = &http.Client{
		Timeout: clientTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     clientConns,
			MaxIdleConnsPerHost: clientConns,
		},
	}
	if o := st.send(ctx, "warm", p.size.hotRanks[0]); o.err != nil {
		st.close()
		return nil, fmt.Errorf("warming the shard: %w", o.err)
	}
	return st, nil
}

func (st *serveStack) closeShard() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = st.shardHTTP.Shutdown(ctx) // a forced close still ends Serve below
	_ = st.shardHTTP.Close()
	<-st.shardDone
	st.shard.Close()
}

func (st *serveStack) close() {
	st.client.CloseIdleConnections()
	st.stopGate()
	<-st.gateDone
	st.closeShard()
}

// outcome is one request's fate.
type outcome struct {
	ranks      int
	due, sent  time.Time
	done       time.Time
	status     int
	err        error
	cache      string
	result     serve.PredictResult
	handlerDur time.Duration
}

func (st *serveStack) send(ctx context.Context, id string, ranks int) outcome {
	o := outcome{ranks: ranks, sent: time.Now()}
	var body []byte
	o.status, body, o.err = st.post(ctx, id, ranks)
	o.done = time.Now()
	if o.err != nil {
		return o
	}
	var pr serve.PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		o.err = err
		return o
	}
	if len(pr.Results) != 1 {
		o.err = fmt.Errorf("%d results for one rank count", len(pr.Results))
		return o
	}
	o.cache, o.result = pr.Cache, pr.Results[0]
	return o
}

// post sends one predict request and reads the whole answer; anything but
// a 200 is an error.
func (st *serveStack) post(ctx context.Context, id string, ranks int) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, st.url, bytes.NewReader(predictBody(ranks)))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", id)
	resp, err := st.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return resp.StatusCode, body, nil
}

// requestMix lays out the request keys of every phase: every coldEvery-th
// request is a cold rank count, the others cycle through the hot rank
// counts. A phase's cold rank counts are seeded, one drawn from each of
// equal strata of [coldLo, coldHi], distinct across the run and never hot,
// and handed out in seeded order. The fixed interleave and the strata keep
// each phase's composition and arrival pattern alike on every seed.
func requestMix(s size, ph []phase, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	used := map[int]bool{}
	for _, r := range s.hotRanks {
		used[r] = true
	}
	var keys []int
	for _, x := range ph {
		cold := make([]int, x.n/coldEvery)
		for j := range cold {
			lo, hi := s.coldLo+j*(s.coldHi-s.coldLo+1)/len(cold), s.coldLo+(j+1)*(s.coldHi-s.coldLo+1)/len(cold)
			r := lo + rng.Intn(hi-lo)
			for used[r] {
				r = lo + rng.Intn(hi-lo)
			}
			used[r] = true
			cold[j] = r
		}
		rng.Shuffle(len(cold), func(i, j int) { cold[i], cold[j] = cold[j], cold[i] })
		h := 0
		for i := 0; i < x.n; i++ {
			if (i+1)%coldEvery == 0 {
				keys = append(keys, cold[(i+1)/coldEvery-1])
				continue
			}
			keys = append(keys, s.hotRanks[h%len(s.hotRanks)])
			h++
		}
	}
	return keys
}

// phase is one fixed offered rate held for a duration.
type phase struct {
	name string
	rps  float64
	n    int
}

func phases(p params) []phase {
	half := p.measure.Seconds() / 2
	return []phase{
		{"low", p.size.lowRPS, int(math.Round(p.size.lowRPS * half))},
		{"high", p.size.highRPS, int(math.Round(p.size.highRPS * half))},
	}
}

// load offers the keys open-loop: request i is due at its phase's start
// plus i/rate, whether or not earlier requests have finished, and is sent
// on the first free client connection. It returns every outcome and how
// late the generator handed each request over.
func (st *serveStack) load(ctx context.Context, ph []phase, keys []int, tag string) ([]outcome, []float64) {
	outs := make([]outcome, len(keys))
	queue := make(chan int, len(keys))
	var wg sync.WaitGroup
	for c := 0; c < clientConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				due := outs[i].due
				outs[i] = st.send(ctx, fmt.Sprintf("%s-%d", tag, i), keys[i])
				outs[i].due = due
			}
		}()
	}
	var late []float64
	start := time.Now()
	i := 0
	for _, p := range ph {
		for k := 0; k < p.n; k++ {
			due := start.Add(time.Duration(float64(k) / p.rps * float64(time.Second)))
			time.Sleep(time.Until(due))
			late = append(late, time.Since(due).Seconds()*1000)
			outs[i].due = due
			queue <- i
			i++
		}
		start = start.Add(time.Duration(float64(p.n) / p.rps * float64(time.Second)))
	}
	close(queue)
	wg.Wait()
	return outs, late
}

// runServe offers the warm request mix at the low then the high rate.
func runServe(ctx context.Context, p params) (*report, error) {
	var t *tracer
	if p.traced {
		t = newTracer()
	}
	st, setupS, err := setUp(p.size.setups, func() (*serveStack, error) {
		return startServe(ctx, p, t)
	}, (*serveStack).close)
	if err != nil {
		return nil, err
	}
	defer st.close()

	ph := phases(p)
	keys := requestMix(p.size, ph, p.seed)

	outs, late := st.load(ctx, ph, keys, "plain")
	var traced []outcome
	attempts := 0
	if p.traced {
		st.clock.reset(true)
		traced, _ = st.load(ctx, ph, keys, "traced")
		st.clock.mu.Lock()
		for i := range traced {
			traced[i].handlerDur = st.clock.byID[fmt.Sprintf("traced-%d", i)]
		}
		attempts = st.clock.attempts
		st.clock.mu.Unlock()
		st.clock.on.Store(false)
	}

	rep := newReport()
	rep.setupS = setupS
	rep.attempted = len(outs)
	offline, err := checkServe(ctx, p, st, append(append([]outcome(nil), outs...), traced...), t, rep)
	if err != nil {
		return nil, err
	}

	seen := map[int]bool{}
	repeats := 0
	for _, k := range keys {
		if seen[k] {
			repeats++
		}
		seen[k] = true
	}
	lat := func(o []outcome) []float64 {
		ms := make([]float64, len(o))
		for i, x := range o {
			ms[i] = clientTimeout.Seconds() * 1000
			if x.err == nil {
				ms[i] = x.done.Sub(x.due).Seconds() * 1000
			}
		}
		return ms
	}
	hits, ok := 0, 0
	for _, o := range outs {
		if o.err == nil {
			ok++
			if o.cache == "hit" {
				hits++
			}
		} else {
			rep.failed++
		}
	}
	off := 0
	for _, x := range ph {
		ms := lat(outs[off : off+x.n])
		tv, tp, tn := tail(ms)
		rep.named.set("serve."+x.name+".p50_ms", median(ms), "ms")
		rep.named.set("serve."+x.name+".tail_ms", tv, "ms")
		rep.named.set("serve."+x.name+".tail_percentile", tp, "%")
		rep.named.set("serve."+x.name+".samples", float64(tn), "count")
		rep.named.set("serve."+x.name+".offered_rps", x.rps, "1/s")
		if x.name == "low" {
			rep.endToEnd.set("p50_ms", median(ms), "ms")
		} else {
			rep.endToEnd.set("tail_ms", tv, "ms")
		}
		off += x.n
	}
	rep.named.set("serve.fail_ratio", float64(rep.failed)/float64(len(outs)), "ratio")
	rep.named.set("loadgen.late_ms", maxOf(late), "ms")
	rep.layers.set("loadgen.late_ms", maxOf(late), "ms")
	rep.layers.set("serve.repeat_key_share", float64(repeats)/float64(len(keys)), "ratio")
	rep.layers.set("serve.registry_hit_ratio", float64(hits)/math.Max(1, float64(ok)), "ratio")
	// A traced run's answers are those of its traced phase, which the
	// tests compare with an untraced run's.
	answered := outs
	if p.traced {
		answered = traced
	}
	for _, o := range answered {
		rep.outputs = append(rep.outputs, o.result.TotalSec)
	}

	if p.traced {
		reportSetUpLayers(rep, t)
		rep.layers.set("trace.overhead_pct", 100*(median(lat(traced[:ph[0].n]))-median(lat(outs[:ph[0].n])))/median(lat(outs[:ph[0].n])), "%")
		var handler, hop, residual []float64
		for _, o := range traced {
			if o.err != nil {
				continue
			}
			h := o.handlerDur.Seconds() * 1000
			handler = append(handler, h)
			hop = append(hop, o.done.Sub(o.sent).Seconds()*1000-h)
			residual = append(residual, h-offline[o.ranks])
		}
		rep.layers.set("serve.handler_ms", median(handler), "ms")
		rep.layers.set("gate.hop_ms", median(hop), "ms")
		rep.layers.set("serve.residual_ms", median(residual), "ms")
		rep.layers.set("gate.attempts_per_request", float64(attempts)/float64(len(traced)), "ratio")
	}
	return rep, nil
}

// checkServe requires every 200 to equal the in-process answer for its
// key — GenerateWorkload then PredictWorkload, the two halves of
// PredictFromTrace, with models trained in-process exactly as the shard
// trains them — and returns each key's offline build+simulate time in ms.
// The builds fill serially, as the shard's do; a traced check times them,
// the BSP replay, and every GeneratorBuilder.Frame call.
func checkServe(ctx context.Context, p params, st *serveStack, outs []outcome, t *tracer, rep *report) (map[int]float64, error) {
	spec := p.spec()
	var reg *obs.Registry
	if t != nil {
		reg = obs.New()
	}
	octx := obs.With(ctx, reg)
	want := map[int]serve.PredictResult{}
	offline := map[int]float64{}
	var keys []int
	for _, o := range outs {
		if o.err == nil {
			if _, dup := want[o.ranks]; !dup {
				want[o.ranks] = serve.PredictResult{}
				keys = append(keys, o.ranks)
			}
		}
	}
	if len(keys) == 0 {
		return nil, errors.New("no request succeeded")
	}
	sort.Ints(keys)
	for _, r := range keys {
		q := platform(spec)
		q.Workload = picpredict.WorkloadOptions{Ranks: r, Mapping: picpredict.MappingElement, FilterRadius: filterRadius}
		t0 := time.Now()
		stop := t.start("core.build.element")
		wl, err := st.in.f.trace.GenerateWorkloadContext(octx, q.Workload)
		stop()
		if err != nil {
			return nil, err
		}
		stop = t.start("bsst.simulate")
		pred, err := picpredict.PredictWorkload(st.in.models, wl, q)
		stop()
		if err != nil {
			return nil, err
		}
		offline[r] = time.Since(t0).Seconds() * 1000
		var comp, comm float64
		for k := range pred.Compute {
			comp += pred.Compute[k]
			comm += pred.Comm[k]
		}
		want[r] = serve.PredictResult{
			Ranks: pred.Ranks, TotalSec: pred.Total, ComputeSec: comp, CommSec: comm,
			MeanUtilization: pred.MeanUtilization(), PeakParticles: wl.Peak(),
			MigrationSec: pred.MigrationSec(), RebalanceEpochs: wl.MigrationEpochs(),
		}
		rep.layers.set("core.frames", float64(wl.Frames()), "count")
	}
	for i, o := range outs {
		if o.err == nil && !reflect.DeepEqual(o.result, want[o.ranks]) {
			return nil, fmt.Errorf("request %d (R=%d) served %+v, in-process answer %+v", i, o.ranks, o.result, want[o.ranks])
		}
	}
	if t != nil {
		t.add("core.fill.element", histMean(reg, builderFrame))
		rep.layers.set("core.fill.element_ms_per_frame", t.meanMs("core.fill.element"), "ms")
		rep.layers.set("core.build.element_s", t.meanMs("core.build.element")/1000, "s")
		rep.layers.set("bsst.simulate_ms", t.meanMs("bsst.simulate"), "ms")
	}
	return offline, nil
}
