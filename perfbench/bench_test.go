package main

import (
	"context"
	"testing"
	"time"

	"picpredict"
	"picpredict/internal/sweep"
)

// tinySize runs every workload in about a second.
var tinySize = size{
	particles: 2000, steps: 60, sampleEvery: 30,
	setups:     1,
	fusedRanks: []int{16, 64},
	sweepRanks: []int{16, 32},
	hotRanks:   []int{8, 16, 32, 64},
	coldLo:     65, coldHi: 200,
	lowRPS: 10, highRPS: 20,
}

func tiny(traced bool) params {
	return params{seed: 3, measure: time.Second, traced: traced, size: tinySize}
}

// tracedLayers are layer figures only one workload's traced run measures.
var tracedLayers = map[string][]string{
	"fused-bin":  {"fused.train_wait_s", "pipeline.sink_wait_s", "core.fill.bin_ms_per_frame", "bsst.accuracy_ms", "core.ghost_copies.bin"},
	"sweep-grid": {"sweep.build_s", "sweep.evaluate_s", "core.build.bin_s", "core.build.rebalance_s", "rebalance.epochs"},
	"serve-warm": {"serve.handler_ms", "gate.hop_ms", "core.fill.element_ms_per_frame", "core.build.element_s", "serve.repeat_key_share"},
}

// TestTracedMatchesUntraced is the smoke run of every workload, untraced
// and traced: both must pass their correctness checks, report every
// end-to-end metric, and give bit-identical answers.
func TestTracedMatchesUntraced(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	for _, m := range append(sp.EndToEnd, sp.PerLayer...) {
		units[m.Name] = m.Unit
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			plain, err := workloads[name](context.Background(), tiny(false))
			if err != nil {
				t.Fatalf("untraced: %v", err)
			}
			for _, m := range []string{"p50_ms", "tail_ms"} {
				if v := plain.endToEnd[m].Value; !(v > 0) {
					t.Errorf("%s = %v, want > 0", m, v)
				}
			}
			if plain.setupS <= 0 || plain.attempted < 1 || plain.failed != 0 {
				t.Errorf("setup %v s, %d attempted, %d failed", plain.setupS, plain.attempted, plain.failed)
			}
			traced, err := workloads[name](context.Background(), tiny(true))
			if err != nil {
				t.Fatalf("traced: %v", err)
			}
			if len(plain.outputs) == 0 {
				t.Fatal("no outputs recorded")
			}
			if err := sameBits(plain.outputs, traced.outputs); err != nil {
				t.Errorf("traced answers differ: %v", err)
			}
			for _, m := range append([]string{"pic.step_ms", "perfmodel.train_s", "bsst.simulate_ms", "trace.overhead_pct"}, tracedLayers[name]...) {
				if _, ok := traced.layers[m]; !ok {
					t.Errorf("traced run lacks %s", m)
				}
			}
			for _, ms := range []metrics{plain.endToEnd, traced.layers} {
				for n, m := range ms {
					if units[n] != m.Unit {
						t.Errorf("%s in %q, BENCHMARK.json lists %q", n, m.Unit, units[n])
					}
				}
			}
		})
	}
}

func TestFusedCheckRejectsPerturbedTotal(t *testing.T) {
	p := tiny(false)
	ctx := context.Background()
	spec := p.spec()
	in, err := prepare(ctx, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := fusedOnce(ctx, spec, fusedOptions(p))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFused(ctx, p, spec, in, []*fusedOut{out}, nil, newReport()); err != nil {
		t.Fatalf("unperturbed: %v", err)
	}
	out.preds[1].Total *= 1 + 1e-12
	if err := checkFused(ctx, p, spec, in, []*fusedOut{out}, nil, newReport()); err == nil {
		t.Fatal("perturbed total passed the check")
	}
}

func TestSweepCheckRejectsPerturbedRow(t *testing.T) {
	p := tiny(false)
	ctx := context.Background()
	in, err := prepare(ctx, p.spec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	q := platform(p.spec())
	res, err := sweep.Run(ctx, in.f.trace, sweepGrid(p), sweep.Options{Filter: filterRadius, Workers: sweepWorkers, TotalElements: q.TotalElements, GridN: q.GridN},
		func(context.Context, picpredict.ModelKind) (picpredict.Models, error) { return in.models, nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSweep(ctx, p, in, []*sweep.Result{res}, nil, newReport()); err != nil {
		t.Fatalf("unperturbed: %v", err)
	}
	res.Frontier[len(res.Frontier)/2].CommSec *= 1 + 1e-12
	if err := checkSweep(ctx, p, in, []*sweep.Result{res}, nil, newReport()); err == nil {
		t.Fatal("perturbed frontier row passed the check")
	}
}

func TestServeCheckRejectsPerturbedAnswer(t *testing.T) {
	p := tiny(false)
	ctx := context.Background()
	st, err := startServe(ctx, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	var outs []outcome
	for i, r := range []int{8, 16, 100} {
		o := st.send(ctx, "check-"+string(rune('a'+i)), r)
		if o.err != nil {
			t.Fatal(o.err)
		}
		outs = append(outs, o)
	}
	if _, err := checkServe(ctx, p, st, outs, nil, newReport()); err != nil {
		t.Fatalf("unperturbed: %v", err)
	}
	outs[2].result.TotalSec *= 1 + 1e-12
	if _, err := checkServe(ctx, p, st, outs, nil, newReport()); err == nil {
		t.Fatal("perturbed served total passed the check")
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n       int
		want    float64 // samples are 1 … n
		wantPct float64
	}{
		{100, 90, 90},
		{12, 2, 100 * 2.0 / 12},
		{11, 11, 100},
		{5, 5, 100},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[c.n-1-i] = float64(i + 1)
		}
		v, pct, n := tail(xs)
		if v != c.want || pct != c.wantPct || n != c.n {
			t.Errorf("tail of 1…%d = %v at p%v of %d, want %v at p%v", c.n, v, pct, n, c.want, c.wantPct)
		}
	}
}
