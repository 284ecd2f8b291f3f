package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"picpredict"
	"picpredict/internal/obs"
)

// testFixture shares one small trace and one fast-trained model set across
// every test in the package — training dominates otherwise.
var testFixture struct {
	once   sync.Once
	tr     *picpredict.Trace
	models picpredict.Models
	filter float64
	err    error
}

func fixture(t *testing.T) (*picpredict.Trace, picpredict.Models, float64) {
	t.Helper()
	testFixture.once.Do(func() {
		sc := picpredict.HeleShaw().WithParticles(120).WithSteps(20).WithSampleEvery(5)
		testFixture.filter = sc.FilterRadius()
		testFixture.tr, testFixture.err = sc.Run()
		if testFixture.err != nil {
			return
		}
		testFixture.models, testFixture.err = picpredict.TrainModels(picpredict.TrainOptions{Seed: 1, Fast: true})
	})
	if testFixture.err != nil {
		t.Fatal(testFixture.err)
	}
	return testFixture.tr, testFixture.models, testFixture.filter
}

// fixedModels resolves every kind to the same pretrained set — tests that
// exercise sharing and determinism, not training.
func fixedModels(m picpredict.Models) ModelsFunc {
	return func(context.Context, picpredict.ModelKind) (picpredict.Models, error) { return m, nil }
}

func testGrid() Grid {
	return Grid{
		Ranks:    []int{4, 8, 16},
		Mappings: []picpredict.MappingKind{picpredict.MappingBin, picpredict.MappingHilbert},
		Machines: []string{"quartz", "vulcan"},
		Kinds:    []picpredict.ModelKind{picpredict.ModelSynthetic},
	}
}

func testOptions(workers int) Options {
	return Options{
		Filter:         picpredict.HeleShaw().FilterRadius(),
		Workers:        workers,
		TotalElements:  16384,
		GridN:          4,
		FilterElements: 1,
	}
}

// TestRunBasics checks the structural invariants of one sweep.
func TestRunBasics(t *testing.T) {
	tr, models, _ := fixture(t)
	res, err := Run(context.Background(), tr, testGrid(), testOptions(4), fixedModels(models))
	if err != nil {
		t.Fatal(err)
	}
	if res.Configs != 12 {
		t.Errorf("Configs = %d, want 12 (3 ranks × 2 mappings × 2 machines × 1 kind)", res.Configs)
	}
	if res.SharedBuilds != 6 {
		t.Errorf("SharedBuilds = %d, want 6 (3 ranks × 2 mappings)", res.SharedBuilds)
	}
	if len(res.Frontier) != 12 {
		t.Fatalf("Frontier has %d points, want 12", len(res.Frontier))
	}
	for i := 1; i < len(res.Frontier); i++ {
		if less(&res.Frontier[i], &res.Frontier[i-1]) {
			t.Errorf("frontier out of order at %d: %+v before %+v", i, res.Frontier[i-1], res.Frontier[i])
		}
	}
	if res.Fastest != res.Frontier[0] {
		t.Errorf("Fastest %+v is not Frontier[0] %+v", res.Fastest, res.Frontier[0])
	}
	if len(res.Curves) != 4 {
		t.Errorf("%d curves, want 4 (2 mappings × 2 machines)", len(res.Curves))
	}
	for _, c := range res.Curves {
		if len(c.Points) != 3 {
			t.Errorf("curve %s/%s has %d points, want 3", c.Mapping, c.Machine, len(c.Points))
		}
		if got := c.Points[0].Speedup; got != 1 {
			t.Errorf("curve %s/%s base speedup = %g, want 1", c.Mapping, c.Machine, got)
		}
		for i := 1; i < len(c.Points); i++ {
			if c.Points[i].Ranks <= c.Points[i-1].Ranks {
				t.Errorf("curve %s/%s ranks not ascending: %v", c.Mapping, c.Machine, c.Points)
			}
		}
	}
	// The knee never scores better than the theoretical floor of 1 + weight.
	if res.KneeScore < 1 {
		t.Errorf("KneeScore = %g < 1", res.KneeScore)
	}
}

// TestRunInvariantToWorkers is the determinism property: the entire result
// — frontier order included, compared bit-for-bit via Float64bits on every
// total — is identical for 1, 4, and GOMAXPROCS workers, and for different
// BuildWorkers values.
func TestRunInvariantToWorkers(t *testing.T) {
	tr, models, _ := fixture(t)
	var base *Result
	for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		opts := testOptions(w)
		opts.BuildWorkers = w % 3 // vary generator-internal parallelism too
		res, err := Run(context.Background(), tr, testGrid(), opts, fixedModels(models))
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
			continue
		}
		if !reflect.DeepEqual(base, res) {
			t.Fatalf("workers=%d: result differs from workers=1\nbase: %+v\n got: %+v", w, base, res)
		}
		for i := range res.Frontier {
			got := math.Float64bits(res.Frontier[i].TotalSec)
			want := math.Float64bits(base.Frontier[i].TotalSec)
			if got != want {
				t.Errorf("workers=%d frontier[%d]: total bits %#x, want %#x", w, i, got, want)
			}
		}
	}
}

// TestRunWorkloadsResolver: a Workloads resolver receives each shared
// build's exact generator options once, and a resolver that generates the
// same workloads yields the same result as the engine's own builds.
func TestRunWorkloadsResolver(t *testing.T) {
	tr, models, _ := fixture(t)
	base, err := Run(context.Background(), tr, testGrid(), testOptions(4), fixedModels(models))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	seen := map[picpredict.WorkloadOptions]int{}
	opts := testOptions(4)
	opts.Workloads = func(ctx context.Context, o picpredict.WorkloadOptions) (*picpredict.Workload, error) {
		mu.Lock()
		seen[o]++
		mu.Unlock()
		return tr.GenerateWorkloadContext(ctx, o)
	}
	res, err := Run(context.Background(), tr, testGrid(), opts, fixedModels(models))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, res) {
		t.Fatalf("resolver result differs from the engine's own builds\nbase: %+v\n got: %+v", base, res)
	}
	if len(seen) != res.SharedBuilds {
		t.Errorf("resolver saw %d distinct builds, want %d", len(seen), res.SharedBuilds)
	}
	for o, n := range seen {
		if n != 1 || o.FilterRadius != opts.Filter {
			t.Errorf("build %+v resolved %d times, want once with the sweep's filter", o, n)
		}
	}
}

// TestRunInvariantToEnumerationOrder permutes every grid axis: the ranked
// frontier depends only on the configuration *set*.
func TestRunInvariantToEnumerationOrder(t *testing.T) {
	tr, models, _ := fixture(t)
	g := testGrid()
	base, err := Run(context.Background(), tr, g, testOptions(4), fixedModels(models))
	if err != nil {
		t.Fatal(err)
	}
	perm := Grid{
		Ranks:    []int{16, 4, 8},
		Mappings: []picpredict.MappingKind{picpredict.MappingHilbert, picpredict.MappingBin},
		Machines: []string{"vulcan", "quartz"},
		Kinds:    g.Kinds,
	}
	res, err := Run(context.Background(), tr, perm, testOptions(2), fixedModels(models))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, res) {
		t.Fatalf("permuted grid produced a different result\nbase: %+v\n got: %+v", base, res)
	}
}

// TestRunMatchesPredictWorkload is the cross-path property: every frontier
// point must be bit-identical to a standalone PredictFromTrace call for the
// same configuration — the sweep introduces no third numerical path.
func TestRunMatchesPredictWorkload(t *testing.T) {
	tr, models, filter := fixture(t)
	opts := testOptions(4)
	opts.Filter = filter
	res, err := Run(context.Background(), tr, testGrid(), opts, fixedModels(models))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Frontier {
		machine, err := picpredict.MachineByName(p.Machine)
		if err != nil {
			t.Fatal(err)
		}
		wl, pred, err := picpredict.PredictFromTrace(context.Background(), tr, models, picpredict.QueryOptions{
			Workload: picpredict.WorkloadOptions{
				Ranks:        p.Ranks,
				Mapping:      p.Mapping,
				FilterRadius: filter,
			},
			TotalElements:  opts.TotalElements,
			GridN:          opts.GridN,
			FilterElements: opts.FilterElements,
			Machine:        &machine,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := math.Float64bits(p.TotalSec), math.Float64bits(pred.Total); got != want {
			t.Errorf("config %+v: sweep total bits %#x, standalone %#x", p.Config, got, want)
		}
		if p.PeakParticles != wl.Peak() {
			t.Errorf("config %+v: sweep peak %d, standalone %d", p.Config, p.PeakParticles, wl.Peak())
		}
	}
}

// TestRunGoldenFixture prices the committed golden trace with the golden
// platform configuration: the sweep's totals for the golden ranks must
// bit-match the committed expectations — the same lock the root package's
// TestGoldenEndToEnd applies to the file and fused flows.
func TestRunGoldenFixture(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata", "golden")
	raw, err := os.ReadFile(filepath.Join(dir, "expect.json"))
	if err != nil {
		t.Fatalf("reading golden expectations: %v", err)
	}
	var want struct {
		Ranks      []int             `json:"ranks"`
		TotalsBits map[string]string `json:"totals_bits"`
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, "trace.bin"))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := picpredict.ReadTrace(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	models, err := picpredict.TrainModels(picpredict.TrainOptions{Seed: 1, Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), tr, Grid{Ranks: want.Ranks}, Options{
		Filter:         picpredict.HeleShaw().FilterRadius(),
		Workers:        2,
		TotalElements:  16384,
		GridN:          4,
		FilterElements: 1,
	}, fixedModels(models))
	if err != nil {
		t.Fatal(err)
	}
	if res.Configs != len(want.Ranks) {
		t.Fatalf("Configs = %d, want %d", res.Configs, len(want.Ranks))
	}
	for _, p := range res.Frontier {
		key := strconv.Itoa(p.Ranks)
		got := fmt.Sprintf("0x%016x", math.Float64bits(p.TotalSec))
		if got != want.TotalsBits[key] {
			t.Errorf("R=%d: sweep total %s (%g), committed %s", p.Ranks, got, p.TotalSec, want.TotalsBits[key])
		}
	}
}

// TestRunCancellation cancels mid-sweep: the engine must return the
// context's error promptly rather than completing the grid.
func TestRunCancellation(t *testing.T) {
	tr, models, _ := fixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	blockingModels := func(ctx context.Context, _ picpredict.ModelKind) (picpredict.Models, error) {
		calls++
		cancel() // cancel while the build phase is still ahead
		return models, nil
	}
	_, err := Run(ctx, tr, testGrid(), testOptions(4), blockingModels)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Errorf("models resolver ran %d times before cancellation, want 1", calls)
	}
}

// TestRunValidation maps every bad input to an ErrSpec-wrapped error.
func TestRunValidation(t *testing.T) {
	tr, models, _ := fixture(t)
	cases := []struct {
		name string
		grid Grid
	}{
		{"no ranks", Grid{}},
		{"bad rank", Grid{Ranks: []int{0}}},
		{"bad mapping", Grid{Ranks: []int{4}, Mappings: []picpredict.MappingKind{"mystery"}}},
		{"bad machine", Grid{Ranks: []int{4}, Machines: []string{"cray"}}},
		{"bad kind", Grid{Ranks: []int{4}, Kinds: []picpredict.ModelKind{"oracular"}}},
		{"too many configs", Grid{
			Ranks:    manyRanks(t, maxSpecRanks),
			Mappings: []picpredict.MappingKind{picpredict.MappingBin, picpredict.MappingHilbert},
			Machines: []string{"quartz", "vulcan"},
		}},
	}
	for _, c := range cases {
		_, err := Run(context.Background(), tr, c.grid, testOptions(1), fixedModels(models))
		if !errors.Is(err, ErrSpec) {
			t.Errorf("%s: error %v does not wrap ErrSpec", c.name, err)
		}
	}
	if _, err := Run(context.Background(), nil, testGrid(), testOptions(1), fixedModels(models)); !errors.Is(err, ErrSpec) {
		t.Errorf("nil trace: error %v does not wrap ErrSpec", err)
	}
	if _, err := Run(context.Background(), tr, testGrid(), testOptions(1), nil); !errors.Is(err, ErrSpec) {
		t.Errorf("nil models resolver: error %v does not wrap ErrSpec", err)
	}
}

func manyRanks(t *testing.T, n int) []int {
	t.Helper()
	out := make([]int, n)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

// TestRunObs checks the phase instrumentation: the four timers fire, and
// the counters record the config and shared-build totals.
func TestRunObs(t *testing.T) {
	tr, models, _ := fixture(t)
	reg := obs.New()
	opts := testOptions(2)
	opts.Obs = reg
	res, err := Run(context.Background(), tr, testGrid(), opts, fixedModels(models))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{obs.SweepEnumerateNs, obs.SweepBuildNs, obs.SweepEvaluateNs, obs.SweepRankNs} {
		if n := reg.Timer(name).Count(); n != 1 {
			t.Errorf("timer %s observed %d times, want 1", name, n)
		}
	}
	if got := reg.Counter(obs.SweepConfigs).Value(); got != int64(res.Configs) {
		t.Errorf("counter %s = %d, want %d", obs.SweepConfigs, got, res.Configs)
	}
	if got := reg.Counter(obs.SweepSharedBuilds).Value(); got != int64(res.SharedBuilds) {
		t.Errorf("counter %s = %d, want %d", obs.SweepSharedBuilds, got, res.SharedBuilds)
	}
}

// TestRunTop truncates the frontier without touching the summary picks.
func TestRunTop(t *testing.T) {
	tr, models, _ := fixture(t)
	full, err := Run(context.Background(), tr, testGrid(), testOptions(2), fixedModels(models))
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions(2)
	opts.Top = 3
	trunc, err := Run(context.Background(), tr, testGrid(), opts, fixedModels(models))
	if err != nil {
		t.Fatal(err)
	}
	if len(trunc.Frontier) != 3 {
		t.Fatalf("Top=3 frontier has %d points", len(trunc.Frontier))
	}
	if !reflect.DeepEqual(trunc.Frontier, full.Frontier[:3]) {
		t.Errorf("truncated frontier is not the full frontier's prefix")
	}
	if trunc.Fastest != full.Fastest || trunc.Knee != full.Knee {
		t.Errorf("truncation changed the summary picks")
	}
	if !reflect.DeepEqual(trunc.Curves, full.Curves) {
		t.Errorf("truncation changed the curves")
	}
}
