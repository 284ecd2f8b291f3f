package gate

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"picpredict"
	"picpredict/internal/obs"
	"picpredict/internal/serve"
)

// fakeShard is a minimal picserve stand-in: /readyz, /v1/predict (echoing
// X-Request-ID, reporting which shard answered), /v1/models. Failure modes
// are armed per test: fail500 makes the next N predicts answer 500, delay
// slows predicts, down flips readiness.
type fakeShard struct {
	name      string
	srv       *httptest.Server
	addr      string
	predicts  atomic.Int64
	optimizes atomic.Int64
	fail500   atomic.Int64
	fail429   atomic.Int64
	cold      atomic.Bool  // decline cache-only attempts with 409
	delay     atomic.Int64 // nanoseconds per predict
	down      atomic.Bool
	lastRID   atomic.Value // string
}

func newFakeShard(t *testing.T, name string) *fakeShard {
	return newWrappedShard(t, name, nil)
}

// newWrappedShard builds a fake shard with an optional handler wrapper —
// the chaos tests interpose a chaosnet.Proxy here.
func newWrappedShard(t *testing.T, name string, wrap func(http.Handler) http.Handler) *fakeShard {
	t.Helper()
	fs := &fakeShard{name: name}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if fs.down.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("POST /v1/predict", func(w http.ResponseWriter, r *http.Request) {
		fs.predicts.Add(1)
		fs.lastRID.Store(r.Header.Get("X-Request-ID"))
		if fs.cold.Load() && r.Header.Get(cacheOnlyHeader) != "" {
			http.Error(w, "model not resident", http.StatusConflict)
			return
		}
		if d := fs.delay.Load(); d > 0 {
			select {
			case <-time.After(time.Duration(d)):
			case <-r.Context().Done():
				return
			}
		}
		if fs.fail500.Load() > 0 {
			fs.fail500.Add(-1)
			http.Error(w, "induced failure", http.StatusInternalServerError)
			return
		}
		if fs.fail429.Load() > 0 {
			fs.fail429.Add(-1)
			http.Error(w, "queue full", http.StatusTooManyRequests)
			return
		}
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"shard":%q,"cache":"hit"}`, fs.name)
	})
	// /v1/optimize shares the predict failure knobs: the gate routes both
	// paths through one pipeline, so the tests arm one set of faults.
	mux.HandleFunc("POST /v1/optimize", func(w http.ResponseWriter, r *http.Request) {
		fs.optimizes.Add(1)
		fs.lastRID.Store(r.Header.Get("X-Request-ID"))
		if fs.cold.Load() && r.Header.Get(cacheOnlyHeader) != "" {
			http.Error(w, "model not resident", http.StatusConflict)
			return
		}
		if fs.fail500.Load() > 0 {
			fs.fail500.Add(-1)
			http.Error(w, "induced failure", http.StatusInternalServerError)
			return
		}
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"shard":%q,"sweep":{"configs":24}}`, fs.name)
	})
	mux.HandleFunc("GET /v1/models", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintf(w, `{"shard":%q,"models":[]}`, fs.name)
	})
	var h http.Handler = mux
	if wrap != nil {
		h = wrap(h)
	}
	fs.srv = httptest.NewServer(h)
	fs.addr = strings.TrimPrefix(fs.srv.URL, "http://")
	t.Cleanup(fs.srv.Close)
	return fs
}

// fastTestConfig returns tuning that keeps membership churn and backoff in
// the milliseconds so tests run quickly, with hedging disabled unless the
// test arms it.
func fastTestConfig(shards ...*fakeShard) Config {
	backends := make([]string, len(shards))
	for i, s := range shards {
		backends[i] = s.addr
	}
	return Config{
		Backends:         backends,
		Replicas:         2,
		HealthInterval:   25 * time.Millisecond,
		HealthTimeout:    250 * time.Millisecond,
		FailThreshold:    2,
		ReviveThreshold:  2,
		RequestTimeout:   5 * time.Second,
		AttemptTimeout:   2 * time.Second,
		MaxRetries:       2,
		RetryBudget:      0.5,
		RetryBudgetBurst: 50,
		BackoffBase:      time.Millisecond,
		BackoffMax:       4 * time.Millisecond,
		HedgeQuantile:    -1, // off; hedging tests arm it explicitly
		BreakerThreshold: 4,
		BreakerCooldown:  150 * time.Millisecond,
		Seed:             1,
		Obs:              obs.New(),
	}
}

// newTestGate builds and starts a gate over cfg and mounts it on an
// httptest front end. The health checker stops at test cleanup.
func newTestGate(t *testing.T, cfg Config) (*Gate, *httptest.Server) {
	t.Helper()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	g.Start(ctx)
	front := httptest.NewServer(g.Handler())
	t.Cleanup(func() {
		front.Close()
		cancel()
		g.Close()
	})
	return g, front
}

// predictBody builds a /v1/predict payload whose routing key varies with
// seed.
func predictBody(seed int64) []byte {
	return []byte(fmt.Sprintf(`{"scenario":"heleshaw","ranks":[64,80],"model":{"kind":"blend","fast":true,"seed":%d}}`, seed))
}

// bodyOwnedBy searches seeds for a payload whose routing key the given
// backend owns on the gate's current ring.
func bodyOwnedBy(t *testing.T, g *Gate, addr string) []byte {
	t.Helper()
	for seed := int64(1); seed < 4096; seed++ {
		body := predictBody(seed)
		key, err := RouteKey(body)
		if err != nil {
			t.Fatal(err)
		}
		if g.currentRing().owner(key) == addr {
			return body
		}
	}
	t.Fatalf("no seed under 4096 routes to %s", addr)
	return nil
}

func postPredict(t *testing.T, url string, body []byte, hdr map[string]string) *http.Response {
	t.Helper()
	return postPath(t, url, "/v1/predict", body, hdr)
}

func postPath(t *testing.T, url, path string, body []byte, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func drainClose(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	b, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestGateRoutingConsistency(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t, "a"), newFakeShard(t, "b"), newFakeShard(t, "c")}
	g, front := newTestGate(t, fastTestConfig(shards...))

	// One model configuration must pin to one shard across repeats — that
	// is what makes the cluster train each configuration exactly once.
	var pinned string
	for i := 0; i < 8; i++ {
		resp := postPredict(t, front.URL, predictBody(7), nil)
		drainClose(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict %d: status %d", i, resp.StatusCode)
		}
		backend := resp.Header.Get("X-Picgate-Backend")
		if backend == "" {
			t.Fatal("response missing X-Picgate-Backend")
		}
		if pinned == "" {
			pinned = backend
		} else if backend != pinned {
			t.Fatalf("same body routed to %s then %s", pinned, backend)
		}
	}

	// Distinct model configurations must spread: with 64 vnodes and 40
	// seeds, landing every key on one shard means routing is broken.
	used := map[string]bool{}
	for seed := int64(1); seed <= 40; seed++ {
		resp := postPredict(t, front.URL, predictBody(seed), nil)
		drainClose(t, resp)
		used[resp.Header.Get("X-Picgate-Backend")] = true
	}
	if len(used) < 2 {
		t.Fatalf("40 distinct models all routed to %v", used)
	}
	if g.reg.Counter(obs.GateRequests).Value() != 48 {
		t.Errorf("gate.requests = %d, want 48", g.reg.Counter(obs.GateRequests).Value())
	}
}

func TestGateRetryFailsOver(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t, "a"), newFakeShard(t, "b"), newFakeShard(t, "c")}
	g, front := newTestGate(t, fastTestConfig(shards...))

	// Arm the owner of this key to fail its next two predicts; the gate
	// must retry onto the replica chain and still answer 200.
	body := bodyOwnedBy(t, g, shards[0].addr)
	shards[0].fail500.Store(2)
	resp := postPredict(t, front.URL, body, nil)
	out := drainClose(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s — retries did not fail over", resp.StatusCode, out)
	}
	if got := resp.Header.Get("X-Picgate-Backend"); got == shards[0].addr {
		t.Fatalf("winner %s is the failing owner", got)
	}
	if v := g.reg.Counter(obs.GateRetries).Value(); v < 1 {
		t.Errorf("gate.retries = %d, want ≥1", v)
	}
	// The failure stuck to the owner's ledger, not the winner's.
	if v := backendCounter(g.reg, shards[0].addr, "failures").Value(); v < 1 {
		t.Errorf("owner failure counter = %d, want ≥1", v)
	}
}

// optimizeBody builds a /v1/optimize payload selecting the same models as
// predictBody(seed), plus the sweep-only grid axes the router must ignore.
func optimizeBody(seed int64) []byte {
	return []byte(fmt.Sprintf(
		`{"scenario":"heleshaw","ranks":"512-8352:x2","machines":["quartz","vulcan"],"top":5,"model":{"kind":"blend","fast":true,"seed":%d}}`, seed))
}

// TestGateOptimizePassThrough: /v1/optimize rides the same keyed pipeline
// as /v1/predict — identical routing key for identical model fields (a
// sweep warms the shard its point predicts will hit), verbatim response
// pass-through, and failover when the owner faults.
func TestGateOptimizePassThrough(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t, "a"), newFakeShard(t, "b"), newFakeShard(t, "c")}
	g, front := newTestGate(t, fastTestConfig(shards...))

	pKey, err := RouteKey(predictBody(7))
	if err != nil {
		t.Fatal(err)
	}
	oKey, err := RouteKey(optimizeBody(7))
	if err != nil {
		t.Fatal(err)
	}
	if pKey != oKey {
		t.Fatalf("optimize key %s != predict key %s for the same model fields — sweeps would warm the wrong shard", oKey, pKey)
	}

	owner := g.currentRing().owner(oKey)
	resp := postPath(t, front.URL, "/v1/optimize", optimizeBody(7), nil)
	out := drainClose(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize: status %d, body %s", resp.StatusCode, out)
	}
	if got := resp.Header.Get("X-Picgate-Backend"); got != owner {
		t.Errorf("optimize answered by %s, want key owner %s", got, owner)
	}
	var sr struct {
		Shard string `json:"shard"`
		Sweep struct {
			Configs int `json:"configs"`
		} `json:"sweep"`
	}
	if err := json.Unmarshal(out, &sr); err != nil || sr.Sweep.Configs != 24 {
		t.Errorf("shard body not passed through verbatim: %s (err %v)", out, err)
	}
	var optimizes, predicts int64
	for _, s := range shards {
		optimizes += s.optimizes.Load()
		predicts += s.predicts.Load()
	}
	if optimizes != 1 || predicts != 0 {
		t.Errorf("fleet saw %d optimizes and %d predicts, want 1 and 0", optimizes, predicts)
	}

	// Owner faults mid-sweep: the optimize must fail over down the replica
	// chain exactly like a predict.
	for _, s := range shards {
		if s.addr == owner {
			s.fail500.Store(2)
		}
	}
	resp = postPath(t, front.URL, "/v1/optimize", optimizeBody(7), nil)
	out = drainClose(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize after owner fault: status %d, body %s — no failover", resp.StatusCode, out)
	}
	if got := resp.Header.Get("X-Picgate-Backend"); got == owner {
		t.Errorf("winner %s is the failing owner", got)
	}
	if v := g.reg.Counter(obs.GateRetries).Value(); v < 1 {
		t.Errorf("gate.retries = %d, want ≥1", v)
	}
}

func TestGateShedFailsOver(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t, "a"), newFakeShard(t, "b"), newFakeShard(t, "c")}
	g, front := newTestGate(t, fastTestConfig(shards...))

	// A 429 means the owner is saturated, not broken: the gate must retry
	// onto a replica, record a shed (not a failure), and leave the owner's
	// breaker closed so backpressure cannot cascade into ejection.
	body := bodyOwnedBy(t, g, shards[0].addr)
	shards[0].fail429.Store(2)
	resp := postPredict(t, front.URL, body, nil)
	out := drainClose(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s — shed did not fail over", resp.StatusCode, out)
	}
	if got := resp.Header.Get("X-Picgate-Backend"); got == shards[0].addr {
		t.Fatalf("winner %s is the saturated owner", got)
	}
	if v := backendCounter(g.reg, shards[0].addr, "sheds").Value(); v < 1 {
		t.Errorf("owner shed counter = %d, want ≥1", v)
	}
	if v := backendCounter(g.reg, shards[0].addr, "failures").Value(); v != 0 {
		t.Errorf("owner failure counter = %d, want 0 — sheds are not faults", v)
	}
	if st := g.members[shards[0].addr].breaker.current(); st != BreakerClosed {
		t.Errorf("owner breaker = %v after sheds, want closed", st)
	}
}

func TestGatePassesThroughClientErrors(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t, "a")}
	_, front := newTestGate(t, fastTestConfig(shards...))

	// Not JSON at all → the gate rejects before routing.
	resp := postPredict(t, front.URL, []byte("not json"), nil)
	body := drainClose(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body: status %d", resp.StatusCode)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" || eb.RequestID == "" {
		t.Fatalf("error body %s not structured (err %v)", body, err)
	}
}

// TestGateOversizeRequestIsDefinitive: a real shard's 413 for a rank count
// it cannot afford settles the request at the gate — one attempt, no replay
// of the poison body to the other replicas.
func TestGateOversizeRequestIsDefinitive(t *testing.T) {
	tr, err := picpredict.HeleShaw().WithParticles(120).WithSteps(20).WithSampleEvery(5).Run()
	if err != nil {
		t.Fatal(err)
	}
	var attempts atomic.Int64
	backends := make([]string, 3)
	for i := range backends {
		s := serve.New(serve.Config{Workers: 1})
		t.Cleanup(s.Close)
		if err := s.AddTrace("heleshaw", tr, "0xgatetrace"); err != nil {
			t.Fatal(err)
		}
		s.MarkReady()
		h := s.Handler()
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/predict" {
				attempts.Add(1)
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		backends[i] = strings.TrimPrefix(srv.URL, "http://")
	}
	cfg := fastTestConfig()
	cfg.Backends = backends
	cfg.Replicas = 3
	g, front := newTestGate(t, cfg)

	resp := postPredict(t, front.URL, []byte(`{"scenario":"heleshaw","ranks":[300000000],"model":{"fast":true}}`), nil)
	body := drainClose(t, resp)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize predict through the gate: %d (%s), want 413", resp.StatusCode, body)
	}
	if n := attempts.Load(); n != 1 {
		t.Errorf("%d shard attempts, want 1 — a 413 must not be replayed", n)
	}
	if v := g.reg.Counter(obs.GateRetries).Value(); v != 0 {
		t.Errorf("gate.retries = %d, want 0", v)
	}
}

func TestGateHedgesTailLatency(t *testing.T) {
	slow, fast := newFakeShard(t, "slow"), newFakeShard(t, "fast")
	cfg := fastTestConfig(slow, fast)
	cfg.HedgeQuantile = 0.95
	cfg.HedgeMin = 5 * time.Millisecond
	g, front := newTestGate(t, cfg)

	// Seed the latency reservoir with a fast regime so the hedge trigger
	// is armed at HedgeMin, then make the owner dawdle far past it.
	for i := 0; i < minHedgeSamples+4; i++ {
		g.latency.observe(time.Millisecond)
	}
	body := bodyOwnedBy(t, g, slow.addr)
	slow.delay.Store(int64(400 * time.Millisecond))

	t0 := time.Now()
	resp := postPredict(t, front.URL, body, nil)
	drainClose(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Picgate-Backend"); got != fast.addr {
		t.Fatalf("winner %s, want the hedged fast shard %s", got, fast.addr)
	}
	if el := time.Since(t0); el > 300*time.Millisecond {
		t.Errorf("hedged request took %v — the slow primary was awaited", el)
	}
	if v := g.reg.Counter(obs.GateHedgeWins).Value(); v != 1 {
		t.Errorf("gate.hedge_wins = %d, want 1", v)
	}
}

func TestGateHedgeSkipsColdReplica(t *testing.T) {
	slow, replica := newFakeShard(t, "slow"), newFakeShard(t, "replica")
	cfg := fastTestConfig(slow, replica)
	cfg.HedgeQuantile = 0.95
	cfg.HedgeMin = 5 * time.Millisecond
	g, front := newTestGate(t, cfg)

	// The hedge lands on a replica that never trained this model. It must
	// decline fast (409 to the cache-only attempt) rather than train, and
	// the gate must wait out the slow primary — a hedge exists to shave
	// tail latency, never to spend a training run.
	for i := 0; i < minHedgeSamples+4; i++ {
		g.latency.observe(time.Millisecond)
	}
	body := bodyOwnedBy(t, g, slow.addr)
	slow.delay.Store(int64(100 * time.Millisecond))
	replica.cold.Store(true)

	resp := postPredict(t, front.URL, body, nil)
	out := drainClose(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, out)
	}
	if got := resp.Header.Get("X-Picgate-Backend"); got != slow.addr {
		t.Fatalf("winner %s, want the slow primary %s (cold replica must not win)", got, slow.addr)
	}
	if v := backendCounter(g.reg, replica.addr, "cold_skips").Value(); v < 1 {
		t.Errorf("replica cold_skips = %d, want ≥1", v)
	}
	if v := backendCounter(g.reg, replica.addr, "failures").Value(); v != 0 {
		t.Errorf("replica failure counter = %d, want 0 — a cold decline is not a fault", v)
	}
	if st := g.members[replica.addr].breaker.current(); st != BreakerClosed {
		t.Errorf("replica breaker = %v after cold decline, want closed", st)
	}
	if v := g.reg.Counter(obs.GateHedgeWins).Value(); v != 0 {
		t.Errorf("gate.hedge_wins = %d, want 0", v)
	}
}

// The gate deliberately does not import the serving layer, so the header
// that marks hedged attempts cache-only is spelled in both packages. This
// pins the two spellings together.
func TestCacheOnlyHeaderMatchesServe(t *testing.T) {
	if cacheOnlyHeader != serve.CacheOnlyHeader {
		t.Fatalf("gate cacheOnlyHeader %q != serve.CacheOnlyHeader %q", cacheOnlyHeader, serve.CacheOnlyHeader)
	}
}

func TestGateBreakerShedsAndDegrades(t *testing.T) {
	shard := newFakeShard(t, "only")
	cfg := fastTestConfig(shard)
	cfg.Replicas = 1
	cfg.MaxRetries = -1 // negative means zero retries (0 takes the default)
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = 10 * time.Second // stays open for the whole test
	g, front := newTestGate(t, cfg)

	// Two straight 500s open the breaker (pass-through failures first).
	shard.fail500.Store(2)
	for i := 0; i < 2; i++ {
		resp := postPredict(t, front.URL, predictBody(1), nil)
		drainClose(t, resp)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("warm-up failure %d: status %d", i, resp.StatusCode)
		}
	}
	if st := g.members[shard.addr].breaker.current(); st != BreakerOpen {
		t.Fatalf("breaker = %v after threshold failures, want open", st)
	}

	// With the only replica's breaker open, the gate degrades: 503,
	// Retry-After, structured body — and never touches the backend.
	before := shard.predicts.Load()
	resp := postPredict(t, front.URL, predictBody(1), nil)
	body := drainClose(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 missing Retry-After")
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" || eb.RequestID == "" || eb.Key == "" {
		t.Fatalf("degradation body %s not structured (err %v)", body, err)
	}
	if shard.predicts.Load() != before {
		t.Error("breaker-open request still reached the backend")
	}
	if v := g.reg.Counter(obs.GateUnavailable).Value(); v != 1 {
		t.Errorf("gate.unavailable = %d, want 1", v)
	}
}

func TestGateEjectsAndReinstates(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t, "a"), newFakeShard(t, "b"), newFakeShard(t, "c")}
	g, front := newTestGate(t, fastTestConfig(shards...))

	waitMembers := func(want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for g.currentRing().size() != want {
			if time.Now().After(deadline) {
				t.Fatalf("ring stuck at %d members, want %d", g.currentRing().size(), want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitMembers(3)

	shards[1].down.Store(true)
	waitMembers(2)
	if v := g.reg.Counter(obs.GateEjections).Value(); v < 1 {
		t.Errorf("gate.ejections = %d, want ≥1", v)
	}
	// The ejected member's keys now answer from survivors.
	body := bodyOwnedBy(t, g, shards[0].addr)
	resp := postPredict(t, front.URL, body, nil)
	drainClose(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d with 2 survivors", resp.StatusCode)
	}

	shards[1].down.Store(false)
	waitMembers(3)
	if v := g.reg.Counter(obs.GateReinstatements).Value(); v < 1 {
		t.Errorf("gate.reinstatements = %d, want ≥1", v)
	}

	// /v1/membership reflects the recovered state.
	mresp, err := http.Get(front.URL + "/v1/membership")
	if err != nil {
		t.Fatal(err)
	}
	mbody := drainClose(t, mresp)
	var mv struct {
		Healthy int          `json:"healthy"`
		Members []MemberInfo `json:"members"`
	}
	if err := json.Unmarshal(mbody, &mv); err != nil {
		t.Fatal(err)
	}
	if mv.Healthy != 3 || len(mv.Members) != 3 {
		t.Fatalf("membership = %s", mbody)
	}
	for _, m := range mv.Members {
		if !m.Healthy {
			t.Errorf("member %s still unhealthy after reinstatement", m.Addr)
		}
	}
}

func TestGateRequestIDs(t *testing.T) {
	shard := newFakeShard(t, "a")
	g, front := newTestGate(t, fastTestConfig(shard))

	// Caller-supplied IDs propagate to the shard and echo back.
	resp := postPredict(t, front.URL, predictBody(1), map[string]string{"X-Request-ID": "trace-me-123"})
	drainClose(t, resp)
	if got := resp.Header.Get("X-Request-ID"); got != "trace-me-123" {
		t.Fatalf("echoed request ID %q, want trace-me-123", got)
	}
	if got, _ := shard.lastRID.Load().(string); got != "trace-me-123" {
		t.Fatalf("shard saw request ID %q, want trace-me-123", got)
	}

	// Without one, the gate mints an instance-prefixed ID and still
	// threads it through.
	resp = postPredict(t, front.URL, predictBody(1), nil)
	drainClose(t, resp)
	minted := resp.Header.Get("X-Request-ID")
	if !strings.HasPrefix(minted, g.Instance()+"-") {
		t.Fatalf("minted ID %q lacks instance prefix %q", minted, g.Instance())
	}
	if got, _ := shard.lastRID.Load().(string); got != minted {
		t.Fatalf("shard saw %q, gate minted %q", got, minted)
	}
}

func TestGateModelsFanout(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t, "a"), newFakeShard(t, "b")}
	_, front := newTestGate(t, fastTestConfig(shards...))
	resp, err := http.Get(front.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	body := drainClose(t, resp)
	var mv struct {
		Shards map[string]json.RawMessage `json:"shards"`
	}
	if err := json.Unmarshal(body, &mv); err != nil {
		t.Fatal(err)
	}
	if len(mv.Shards) != 2 {
		t.Fatalf("models fan-out = %s", body)
	}
	for _, s := range shards {
		if _, ok := mv.Shards[s.addr]; !ok {
			t.Errorf("shard %s missing from fan-out", s.addr)
		}
	}
}

func TestRunLoadAgainstGate(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t, "a"), newFakeShard(t, "b"), newFakeShard(t, "c")}
	_, front := newTestGate(t, fastTestConfig(shards...))

	bodies := make([][]byte, 12)
	for i := range bodies {
		bodies[i] = predictBody(int64(i + 1))
	}
	stats, err := RunLoad(context.Background(), LoadConfig{
		Target:      front.URL,
		Duration:    300 * time.Millisecond,
		Concurrency: 4,
		Bodies:      bodies,
		Warmup:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requests == 0 || stats.RPS <= 0 {
		t.Fatalf("load stats empty: %+v", stats)
	}
	if stats.Errors != 0 {
		t.Fatalf("healthy fleet produced %d errors", stats.Errors)
	}
	if len(stats.Shards) < 2 {
		t.Fatalf("load landed on %d shards, want spread: %+v", len(stats.Shards), stats.Shards)
	}
	var hits int64
	for _, ss := range stats.Shards {
		hits += ss.CacheHits
	}
	if hits == 0 {
		t.Error("fake shards always report cache hits; stats parsed none")
	}
}
