package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"picpredict"
	"picpredict/internal/obs"
)

// countingBuild generates from the test trace and counts its calls; when
// gate is non-nil every call blocks on it first.
type countingBuild struct {
	tr    *picpredict.Trace
	opts  picpredict.WorkloadOptions
	gate  chan struct{}
	calls atomic.Int64
}

func (b *countingBuild) build(ctx context.Context) (*picpredict.Workload, error) {
	b.calls.Add(1)
	if b.gate != nil {
		select {
		case <-b.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return b.tr.GenerateWorkloadContext(ctx, b.opts)
}

func binOpts(ranks int) picpredict.WorkloadOptions {
	return picpredict.WorkloadOptions{Ranks: ranks, Mapping: picpredict.MappingBin, FilterRadius: 0.004}
}

// waitCounter blocks until the named counter reaches want.
func waitCounter(t *testing.T, reg *obs.Registry, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for reg.Counter(name).Value() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s stuck at %d, want %d", name, reg.Counter(name).Value(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBuildCacheSecondSighting: a first-sighting key is built for its
// request and never retained; its second request is admitted and its third
// is answered from memory.
func TestBuildCacheSecondSighting(t *testing.T) {
	c := newBuildCache(context.Background(), buildCacheBytes, obs.New())
	b := &countingBuild{tr: testTrace(t), opts: binOpts(8)}
	key := newBuildKey(testCRC, b.opts)
	for i, want := range []struct {
		hit     bool
		entries int
	}{{false, 0}, {false, 1}, {true, 1}} {
		wl, hit, err := c.get(context.Background(), key, 0, b.build)
		if err != nil || wl == nil {
			t.Fatalf("request %d: %v", i+1, err)
		}
		if hit != want.hit || c.info().Entries != want.entries {
			t.Errorf("request %d: hit=%t entries=%d, want hit=%t entries=%d", i+1, hit, c.info().Entries, want.hit, want.entries)
		}
	}
	if n := b.calls.Load(); n != 2 {
		t.Errorf("%d builds for three requests, want 2 (first sighting + admission)", n)
	}

	// The sighting set is bounded: it clears when full, so a stream of
	// one-off keys never grows it past maxSightings.
	c.cache.mu.Lock()
	for r := 1000; len(c.sightings) < maxSightings; r++ {
		c.sightings[newBuildKey(testCRC, binOpts(r))] = struct{}{}
	}
	c.cache.mu.Unlock()
	if _, _, err := c.get(context.Background(), newBuildKey(testCRC, binOpts(9)), 0, b.build); err != nil {
		t.Fatal(err)
	}
	c.cache.mu.Lock()
	n := len(c.sightings)
	c.cache.mu.Unlock()
	if n != 1 {
		t.Errorf("full sighting set holds %d keys after one more sighting, want 1 (cleared)", n)
	}
}

// TestBuildKeyCanonical: spellings of one build share a cache entry. The
// rebalance spellings go through /v1/predict, which canonicalises them with
// rebalance.Canonical; Workers is dropped by the key itself.
func TestBuildKeyCanonical(t *testing.T) {
	body := func(rebal string) string {
		return `{"ranks":[8],"mapping":"element","filter":0.004,` + rebal + `"model":{"fast":true,"seed":1}}`
	}
	for _, tc := range []struct{ name, a, b string }{
		{"threshold spelling", `"rebalance":"threshold:1.50",`, `"rebalance":"threshold:1.5",`},
		{"none vs omitted", `"rebalance":"none",`, ``},
	} {
		s, _ := newTestServer(t, Config{Workers: 2}, 0)
		ts := httptest.NewServer(s.Handler())
		for i := 0; i < 2; i++ { // sight and admit a's spelling
			if status, raw := postPredict(t, ts.URL, body(tc.a)); status != http.StatusOK {
				t.Fatalf("%s: predict %d: %d (%s)", tc.name, i+1, status, raw)
			}
		}
		status, raw := postPredict(t, ts.URL, body(tc.b))
		var pr PredictResponse
		if status != http.StatusOK || json.Unmarshal(raw, &pr) != nil || pr.Build != "hit" || s.builds.info().Entries != 1 {
			t.Errorf("%s: b's spelling %d %s with %d entries, want a build hit on a's entry",
				tc.name, status, raw, s.builds.info().Entries)
		}
		ts.Close()
	}
	workers := func(n int) picpredict.WorkloadOptions {
		o := binOpts(8)
		o.Workers = n
		return o
	}
	if newBuildKey(testCRC, workers(0)) != newBuildKey(testCRC, workers(2)) {
		t.Error("Workers 0 and 2 give different build keys")
	}
}

// TestBuildCacheSingleflight: concurrent requests for an admitted-but-empty
// key collapse onto one build and all receive its workload.
func TestBuildCacheSingleflight(t *testing.T) {
	reg := obs.New()
	c := newBuildCache(context.Background(), buildCacheBytes, reg)
	b := &countingBuild{tr: testTrace(t), opts: binOpts(8)}
	key := newBuildKey(testCRC, b.opts)
	if _, _, err := c.get(context.Background(), key, 0, b.build); err != nil { // first sighting
		t.Fatal(err)
	}
	b.gate = make(chan struct{})
	const n = 8
	got := make([]*picpredict.Workload, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wl, _, err := c.get(context.Background(), key, 0, b.build)
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			got[i] = wl
		}(i)
	}
	waitCounter(t, reg, obs.ServeBuildCacheHits, n-1) // all but the admitting request joined
	close(b.gate)
	wg.Wait()
	if calls := b.calls.Load(); calls != 2 {
		t.Errorf("%d builds, want 2 (the sighting and one admitted build for %d waiters)", calls, n)
	}
	for i := range got {
		if got[i] == nil || got[i] != got[0] {
			t.Fatalf("waiter %d got workload %p, want the shared %p", i, got[i], got[0])
		}
	}
}

// TestPredictConcurrentBitIdentical: eight concurrent predicts for one hot
// key through the handler trigger exactly one admitted build, and every
// answer equals GenerateWorkloadContext + PredictWorkload.
func TestPredictConcurrentBitIdentical(t *testing.T) {
	reg := obs.New()
	s, _ := newTestServer(t, Config{Workers: 8, Queue: 8, Obs: reg}, 0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	const body = `{"ranks":[8],"mapping":"element","filter":0.004,"model":{"fast":true,"seed":1}}`
	if status, raw := postPredict(t, ts.URL, body); status != http.StatusOK { // sighting
		t.Fatalf("sighting predict: %d (%s)", status, raw)
	}

	opts := picpredict.WorkloadOptions{Ranks: 8, Mapping: picpredict.MappingElement, FilterRadius: 0.004}
	wl, err := testTrace(t).GenerateWorkloadContext(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	machine := picpredict.QuartzMachine()
	pred, err := picpredict.PredictWorkload(testModels(t), wl, picpredict.QueryOptions{
		TotalElements: 16384, GridN: 4, FilterElements: 1, Machine: &machine,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := resultOf(wl, pred)

	const n = 8
	var wg sync.WaitGroup
	builds := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			var pr PredictResponse
			if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil || resp.StatusCode != http.StatusOK || len(pr.Results) != 1 {
				t.Errorf("request %d: status %d, %+v, err=%v", i, resp.StatusCode, pr, err)
				return
			}
			if !reflect.DeepEqual(pr.Results[0], want) {
				t.Errorf("request %d: %+v, in-process answer %+v", i, pr.Results[0], want)
			}
			builds[i] = pr.Build
		}(i)
	}
	wg.Wait()
	if misses := reg.Counter(obs.ServeBuildCacheMisses).Value(); misses != 2 {
		t.Errorf("serve.build_cache.misses = %d, want 2 (the sighting and one admitted build)", misses)
	}
	nMiss := 0
	for _, b := range builds {
		if b == "miss" {
			nMiss++
		}
	}
	if nMiss != 1 {
		t.Errorf("build labels %v, want exactly one miss", builds)
	}
}

// TestBuildCacheWaiterCancel: the request that admitted a key can give up
// without failing the others waiting on the same build.
func TestBuildCacheWaiterCancel(t *testing.T) {
	reg := obs.New()
	c := newBuildCache(context.Background(), buildCacheBytes, reg)
	b := &countingBuild{tr: testTrace(t), opts: binOpts(8)}
	key := newBuildKey(testCRC, b.opts)
	if _, _, err := c.get(context.Background(), key, 0, b.build); err != nil {
		t.Fatal(err)
	}
	b.gate = make(chan struct{})
	firstCtx, cancel := context.WithCancel(context.Background())
	firstErr := make(chan error, 1)
	go func() {
		_, _, err := c.get(firstCtx, key, 0, b.build)
		firstErr <- err
	}()
	waitCounter(t, reg, obs.ServeBuildCacheMisses, 2) // the first waiter admitted the key
	secondDone := make(chan error, 1)
	var second *picpredict.Workload
	go func() {
		wl, _, err := c.get(context.Background(), key, 0, b.build)
		second = wl
		secondDone <- err
	}()
	waitCounter(t, reg, obs.ServeBuildCacheHits, 1)
	cancel()
	if err := <-firstErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: %v, want context.Canceled", err)
	}
	close(b.gate)
	if err := <-secondDone; err != nil || second == nil {
		t.Fatalf("second waiter: %v (workload %p), want the build's workload", err, second)
	}
	if _, hit, err := c.get(context.Background(), key, 0, b.build); err != nil || !hit {
		t.Errorf("after the build: hit=%t err=%v, want a resident hit", hit, err)
	}
}

// TestBuildCacheOrphanCancelled: an admitted build whose only waiter gives
// up is cancelled and dropped, so no build outlives its requests.
func TestBuildCacheOrphanCancelled(t *testing.T) {
	reg := obs.New()
	c := newBuildCache(context.Background(), buildCacheBytes, reg)
	key := newBuildKey(testCRC, binOpts(8))
	stopped := make(chan struct{})
	block := func(ctx context.Context) (*picpredict.Workload, error) {
		<-ctx.Done()
		close(stopped)
		return nil, ctx.Err()
	}
	c.sightings[key] = struct{}{} // the key's first sighting
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.get(ctx, key, 0, block)
		done <- err
	}()
	waitCounter(t, reg, obs.ServeBuildCacheMisses, 1) // admitted, build started
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: %v, want context.Canceled", err)
	}
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("the build kept running after its only waiter left")
	}
	if info := c.info(); info.Entries != 0 {
		t.Fatalf("orphaned build still resident: %+v", info)
	}
}

// TestBuildCacheFloorOverBudget: a key whose size floor already exceeds the
// budget is built for each request and never admitted, so its build never
// runs on the lifecycle context.
func TestBuildCacheFloorOverBudget(t *testing.T) {
	c := newBuildCache(context.Background(), 1<<20, obs.New())
	b := &countingBuild{tr: testTrace(t), opts: binOpts(8)}
	key := newBuildKey(testCRC, b.opts)
	for i := 0; i < 3; i++ {
		if wl, hit, err := c.get(context.Background(), key, 2<<20, b.build); err != nil || hit || wl == nil {
			t.Fatalf("request %d: hit=%t err=%v, want a fresh build", i+1, hit, err)
		}
	}
	c.cache.mu.Lock()
	sighted := len(c.sightings)
	c.cache.mu.Unlock()
	if info := c.info(); info.Entries != 0 || sighted != 0 || b.calls.Load() != 3 {
		t.Errorf("over-budget key: %+v, %d sightings, %d builds; want nothing recorded and 3 builds", info, sighted, b.calls.Load())
	}
}

// TestBuildCacheFailedBuildNotCached: a failed admitted build reaches its
// waiters and leaves nothing resident.
func TestBuildCacheFailedBuildNotCached(t *testing.T) {
	c := newBuildCache(context.Background(), buildCacheBytes, obs.New())
	key := newBuildKey(testCRC, binOpts(8))
	boom := errors.New("induced build failure")
	fail := func(context.Context) (*picpredict.Workload, error) { return nil, boom }
	if _, _, err := c.get(context.Background(), key, 0, fail); !errors.Is(err, boom) {
		t.Fatalf("sighting: %v, want the build error", err)
	}
	if _, _, err := c.get(context.Background(), key, 0, fail); !errors.Is(err, boom) {
		t.Fatalf("admitted: %v, want the build error", err)
	}
	if info := c.info(); info.Entries != 0 || info.Bytes != 0 {
		t.Fatalf("after a failed build: %+v, want nothing resident", info)
	}
	b := &countingBuild{tr: testTrace(t), opts: binOpts(8)}
	if wl, hit, err := c.get(context.Background(), key, 0, b.build); err != nil || hit || wl == nil {
		t.Fatalf("retry: hit=%t err=%v, want a fresh successful build", hit, err)
	}
}

// TestBuildCacheEviction: admitting more than the budget evicts
// least-recently-used entries and keeps resident bytes within it; a
// workload larger than the whole budget is served but not retained.
func TestBuildCacheEviction(t *testing.T) {
	tr := testTrace(t)
	one, err := tr.GenerateWorkload(binOpts(8))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	c := newBuildCache(context.Background(), 3*one.Bytes(), reg)
	admit := func(ranks int) {
		t.Helper()
		b := &countingBuild{tr: tr, opts: binOpts(ranks)}
		for i := 0; i < 2; i++ {
			if _, _, err := c.get(context.Background(), newBuildKey(testCRC, b.opts), 0, b.build); err != nil {
				t.Fatal(err)
			}
		}
	}
	for r := 8; r < 16; r++ {
		admit(r)
		info := c.info()
		if info.Bytes > info.BudgetBytes {
			t.Fatalf("after R=%d: %d resident bytes over the %d budget", r, info.Bytes, info.BudgetBytes)
		}
		if g := reg.Counter(obs.ServeBuildCacheBytes).Value(); g != info.Bytes {
			t.Fatalf("after R=%d: bytes gauge %d, cache holds %d", r, g, info.Bytes)
		}
	}
	if reg.Counter(obs.ServeBuildCacheEvictions).Value() == 0 {
		t.Fatal("eight admissions into a three-workload budget evicted nothing")
	}
	c.cache.mu.Lock()
	_, newest := c.cache.entries[newBuildKey(testCRC, binOpts(15))]
	_, oldest := c.cache.entries[newBuildKey(testCRC, binOpts(8))]
	c.cache.mu.Unlock()
	if !newest || oldest {
		t.Errorf("resident after eviction: R=15 %t, R=8 %t; want the most recent kept and the least recent gone", newest, oldest)
	}

	small := newBuildCache(context.Background(), one.Bytes()-1, obs.New())
	b := &countingBuild{tr: tr, opts: binOpts(8)}
	for i := 0; i < 2; i++ {
		wl, _, err := small.get(context.Background(), newBuildKey(testCRC, b.opts), 0, b.build)
		if err != nil || wl == nil {
			t.Fatalf("oversize request %d: %v", i+1, err)
		}
	}
	if info := small.info(); info.Entries != 0 || info.Bytes != 0 {
		t.Errorf("oversize workload retained: %+v", info)
	}
}

// TestPredictRefusesOversizeRanks: a rank count whose computation matrices
// alone exceed the per-request budget is refused with 413 before any
// training or generation, and the shard keeps serving.
func TestPredictRefusesOversizeRanks(t *testing.T) {
	reg := obs.New()
	s, st := newTestServer(t, Config{Workers: 2, Obs: reg}, 0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	t0 := time.Now()
	status, raw := postPredict(t, ts.URL, `{"ranks":[300000000],"model":{"fast":true}}`)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("R=3e8: %d (%s), want 413", status, raw)
	}
	if el := time.Since(t0); el > time.Second {
		t.Errorf("refusal took %v; it must come before any allocation", el)
	}
	if n := st.count(Fingerprint(testCRC, picpredict.ModelSynthetic, picpredict.TrainOptions{Fast: true})); n != 0 {
		t.Errorf("refused request trained %d model sets", n)
	}
	if m := reg.Counter(obs.ServeBuildCacheMisses).Value(); m != 0 {
		t.Errorf("refused request ran %d builds", m)
	}
	status, raw = postOptimize(t, ts.URL, `{"ranks":"8,16000000","model":{"fast":true}}`)
	if status != http.StatusRequestEntityTooLarge {
		t.Errorf("optimize over R=1.6e7: %d (%s), want 413", status, raw)
	}
	if status, raw := postPredict(t, ts.URL, `{"ranks":[8],"model":{"fast":true}}`); status != http.StatusOK {
		t.Fatalf("normal request after a refusal: %d (%s)", status, raw)
	}
}

// BenchmarkPredictWarm is one /v1/predict for a hot element key at R=1044
// served in-process: model resident and workload in the build cache, so
// each iteration is decode, lookup, BSP replay and encode.
func BenchmarkPredictWarm(b *testing.B) {
	s, _ := newTestServer(b, Config{Workers: 1}, 0)
	h := s.Handler()
	const body = `{"ranks":[1044],"mapping":"element","filter":0.004,"model":{"fast":true,"seed":1}}`
	serve := func() *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	for i := 0; i < 3; i++ { // train, sight, admit
		serve()
	}
	var pr PredictResponse
	if rec := serve(); rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &pr) != nil || pr.Build != "hit" || pr.Cache != "hit" {
		b.Fatalf("warm-up left the key cold: %d %s", rec.Code, rec.Body)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := serve(); rec.Code != http.StatusOK {
			b.Fatalf("warm predict: %d %s", rec.Code, rec.Body)
		}
	}
}
