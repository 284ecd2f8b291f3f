// Command perfbench is the repository benchmark. One run executes one
// seeded workload through the prediction framework, checks every answer the
// program gave against an independent in-process computation, and prints
// every metric with its unit:
//
//	bash perfbench/run.sh --workload fused-bin --seed 1 --seconds 10 --trace 0
//
// Workloads (all on the Hele-Shaw scenario, seeded by --seed):
//
//   - fused-bin: picpredict.RunFused, simulation and training overlapped
//     with bin-mapped workload generation;
//   - sweep-grid: sweep.Run over a 36-configuration grid of an in-memory
//     trace;
//   - serve-warm: open-loop POST /v1/predict through picgate to one
//     picserve shard, at two fixed offered rates.
//
// With --trace 0 the final JSON line carries the end-to-end metrics, with
// --trace 1 the per-layer ones (times taken by wrapping the layers' public
// functions from this package, or from the obs registries the library
// takes). Every line before it is human-readable:
// the run record, then one "metric <name> <value> <unit>" line per figure.
// A failed correctness check prints correct=false and exits 1.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// report is what one workload run measured.
type report struct {
	attempted, failed int
	setupS            float64
	// endToEnd holds the generic end-to-end metrics every workload reports
	// (p50_ms, tail_ms); named holds the workload's own figures under the
	// names the README documents (fused.wall_s, serve.low.p50_ms, ...).
	endToEnd metrics
	named    metrics
	// layers holds the per-layer figures of a traced run.
	layers metrics
	// outputs are the program's answers in a fixed order; traced and
	// untraced runs of one seed must produce the same bits.
	outputs []float64
}

func newReport() *report {
	return &report{endToEnd: metrics{}, named: metrics{}, layers: metrics{}}
}

// params is one run's configuration.
type params struct {
	seed    int64
	measure time.Duration
	traced  bool
	size    size
}

type workloadFunc func(ctx context.Context, p params) (*report, error)

var workloads = map[string]workloadFunc{
	"fused-bin":  runFused,
	"sweep-grid": runSweep,
	"serve-warm": runServe,
}

// spec is the part of BENCHMARK.json that fixes the final line: which
// metrics it carries, in which units.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run: fused-bin, sweep-grid or serve-warm")
	seed := fl.Int64("seed", 1, "input seed (scenario seed and request mix)")
	seconds := fl.Int("seconds", 10, "measured time per run, in seconds")
	trace := fl.Int("trace", 0, "1 reports per-layer metrics from wrapped layer calls")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload %s, --seconds >= 1, --trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	p := params{seed: *seed, measure: time.Duration(*seconds) * time.Second, traced: *trace == 1, size: fullSize}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: run from the repository root: %v\n", err)
		return 2
	}

	commit, tree := sourceIdentity()
	fmt.Fprintf(stdout, "record workload=%s seed=%d seconds=%d trace=%d commit=%s source_sha256=%s host_cores=%d gomaxprocs=%d go=%s\n",
		*name, *seed, *seconds, *trace, commit, tree, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	rep, err := fn(context.Background(), p)
	correct := err == nil
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		rep = newReport()
		rep.attempted, rep.failed = 1, 1
	}
	rep.endToEnd.set("setup_s", rep.setupS, "s")
	rep.endToEnd.set("peak_rss_mb", peakRSSMB(), "MB")

	printMetrics(stdout, rep.endToEnd)
	printMetrics(stdout, rep.named)
	if p.traced {
		printMetrics(stdout, rep.layers)
	}

	final := struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{correct, rep.attempted, rep.failed, metrics{}}
	want, from := sp.EndToEnd, rep.endToEnd
	if p.traced {
		want, from = sp.PerLayer, rep.layers
	}
	for _, w := range want {
		m, ok := from[w.Name]
		if !ok {
			// A layer this workload's traced run does not measure.
			m = metric{Value: 0, Unit: w.Unit}
		}
		if m.Unit != w.Unit {
			fmt.Fprintf(stderr, "perfbench: %s measured in %s, BENCHMARK.json says %s\n", w.Name, m.Unit, w.Unit)
			return 1
		}
		final.Metrics[w.Name] = m
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func printMetrics(w io.Writer, m metrics) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %s %v %s\n", n, m[n].Value, m[n].Unit)
	}
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// sourceIdentity names the code under test: the VCS revision stamped at
// build time when built inside a git work tree, and always a SHA-256 over
// the module's Go sources and go.mod files under the working directory
// (the checkout root), so records from checkouts without git history can
// still be told apart.
func sourceIdentity() (commit, tree string) {
	commit = "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return commit, "unknown"
	}
	return commit, hex.EncodeToString(h.Sum(nil))[:16]
}
