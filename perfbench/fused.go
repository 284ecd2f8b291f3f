package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"picpredict"
	"picpredict/internal/obs"
	"picpredict/internal/scenario"
)

// fusedOut is one fused run's answers.
type fusedOut struct {
	preds []*picpredict.Prediction
	mape  float64 // mean kernel MAPE over the rank counts, in percent
}

// values flattens the answers for bit-for-bit comparison.
func (o *fusedOut) values() []float64 {
	var v []float64
	for _, p := range o.preds {
		v = append(v, p.Total)
		v = append(v, p.IntervalWall...)
	}
	return append(v, o.mape)
}

func fusedOptions(p params) picpredict.FusedOptions {
	return picpredict.FusedOptions{
		Ranks:        p.size.fusedRanks,
		Mapping:      picpredict.MappingBin,
		FilterRadius: filterRadius,
		Workers:      fillWorkers,
		Depth:        depth,
		Train:        trainOpts,
	}
}

func fusedOnce(ctx context.Context, spec scenario.Spec, opts picpredict.FusedOptions) (*fusedOut, error) {
	res, err := picpredict.RunFused(ctx, picpredict.FromSpec(spec), opts)
	if err != nil {
		return nil, err
	}
	sum := 0.0
	for _, a := range res.Accuracy {
		sum += picpredict.MeanAccuracy(a)
	}
	return &fusedOut{preds: res.Predictions, mape: sum / float64(len(res.Accuracy))}, nil
}

// runFused times picpredict.RunFused: the simulation streams into one
// bin-mapped workload builder per rank count while the kernel models
// train concurrently, then every workload replays through the BSP
// platform. Set-up simulates the reference trace and trains the models the
// check predicts with. A traced run observes RunFused through its own
// obs registry (FusedOptions.Obs), one per run.
func runFused(ctx context.Context, p params) (*report, error) {
	spec := p.spec()
	var t *tracer
	if p.traced {
		t = newTracer()
	}
	in, setupS, err := setUp(p.size.setups, func() (*inputs, error) {
		return prepare(ctx, spec, t)
	}, func(*inputs) {})
	if err != nil {
		return nil, err
	}

	var (
		outs    []*fusedOut
		regs    []*obs.Registry
		observe bool
	)
	op := func() error {
		opts := fusedOptions(p)
		if observe {
			opts.Obs = obs.New()
			regs = append(regs, opts.Obs)
		}
		o, err := fusedOnce(ctx, spec, opts)
		if err != nil {
			return err
		}
		outs = append(outs, o)
		return nil
	}
	var baseline []float64
	if p.traced {
		// One unobserved run is the baseline the tracing overhead is
		// measured against; the observed runs then fill the window.
		if baseline, err = repeatFor(0, op); err != nil {
			return nil, err
		}
		observe = true
	}
	walls, err := repeatFor(p.measure, op)
	if err != nil {
		return nil, err
	}

	rep := newReport()
	rep.setupS = setupS
	rep.attempted = len(outs)
	if err := checkFused(ctx, p, spec, in, outs, t, rep); err != nil {
		return nil, err
	}
	rep.outputs = outs[len(outs)-1].values()

	untraced := walls
	if p.traced {
		untraced = baseline
		rep.layers.set("trace.overhead_pct", 100*(median(walls)-median(baseline))/median(baseline), "%")
	}
	rep.endToEnd.set("p50_ms", 1000*median(untraced), "ms")
	rep.endToEnd.set("tail_ms", 1000*maxOf(untraced), "ms")
	rep.named.set("fused.wall_s", median(untraced), "s")
	rep.named.set("fused.runs", float64(len(untraced)), "count")
	rep.named.set("fused.mape_pct", outs[0].mape, "%")

	if p.traced {
		reportSetUpLayers(rep, t)
		reportFusedStages(rep, regs, t)
	}
	return rep, nil
}

// reportFusedStages reads the observed runs' registries: RunFused's stage
// clock (stream, train-wait) and the pipeline's per-sink frame latency.
// The consumer goroutine feeds every sink in turn, so the stream stage
// minus the summed sink time is how long the sinks waited for frames. How
// long the simulation was held back is derived: the stream stage minus the
// set-up simulation's busy time.
func reportFusedStages(rep *report, regs []*obs.Registry, t *tracer) {
	for _, reg := range regs {
		snap := reg.Snapshot()
		var stream, trainWait time.Duration
		for _, s := range snap.Stages {
			switch s.Name {
			case "stream":
				stream = time.Duration(s.Nanos)
			case "train-wait":
				trainWait = time.Duration(s.Nanos)
			}
		}
		var sinks time.Duration
		for name, h := range snap.Histograms {
			if strings.HasPrefix(name, "pipeline.stage.") {
				sinks += time.Duration(h.Sum)
			}
		}
		t.add("fused.stream", stream)
		t.add("fused.train_wait", trainWait)
		t.add("pipeline.sink_wait", stream-sinks)
		t.add("core.fill.bin", histMean(reg, builderFrame))
	}
	stream := t.meanMs("fused.stream") / 1000
	rep.layers.set("fused.stream_s", stream, "s")
	rep.layers.set("fused.train_wait_s", t.meanMs("fused.train_wait")/1000, "s")
	rep.layers.set("pipeline.sink_wait_s", t.meanMs("pipeline.sink_wait")/1000, "s")
	rep.layers.set("pipeline.source_blocked_s", stream-t.meanMs("pic.busy")/1000, "s")
	rep.layers.set("core.fill.bin_ms_per_frame", t.meanMs("core.fill.bin"), "ms")
}

// checkFused requires every run's answers to be bit-identical to the first
// run's, and the first run's predictions to be bit-identical to
// GenerateWorkload + PredictWorkload (the two halves of PredictFromTrace)
// over the reference trace with the set-up's independently trained models.
// A traced check also times the BSP replay and the kernel-accuracy
// evaluation, which RunFused runs serially after the stream as here.
func checkFused(ctx context.Context, p params, spec scenario.Spec, in *inputs, outs []*fusedOut, t *tracer, rep *report) error {
	want := outs[0].values()
	for k, o := range outs[1:] {
		if err := sameBits(want, o.values()); err != nil {
			return fmt.Errorf("fused run %d differs from run 0: %v", k+1, err)
		}
	}
	q := platform(spec)
	plat, err := picpredict.NewPlatform(in.models, picpredict.PlatformOptions{TotalElements: q.TotalElements, N: q.GridN, Filter: 1})
	if err != nil {
		return err
	}
	var ghosts int64
	for i, r := range p.size.fusedRanks {
		q.Workload = picpredict.WorkloadOptions{Ranks: r, Mapping: picpredict.MappingBin, FilterRadius: filterRadius, Workers: fillWorkers}
		wl, err := in.f.trace.GenerateWorkloadContext(ctx, q.Workload)
		if err != nil {
			return err
		}
		stop := t.start("bsst.simulate")
		pred, err := picpredict.PredictWorkload(in.models, wl, q)
		stop()
		if err != nil {
			return err
		}
		got := outs[0].preds[i]
		if err := sameBits(append([]float64{pred.Total}, pred.IntervalWall...), append([]float64{got.Total}, got.IntervalWall...)); err != nil {
			return fmt.Errorf("fused R=%d differs from PredictFromTrace on the reference trace: %v", r, err)
		}
		if t != nil {
			// RunFused's default testbed noise; only the time is kept.
			stop = t.start("bsst.accuracy")
			_, err = plat.KernelAccuracy(wl, 0.105, int64(7+i))
			stop()
			if err != nil {
				return err
			}
		}
		for _, g := range wl.TotalGhosts() {
			ghosts += g
		}
		rep.layers.set("core.frames", float64(wl.Frames()), "count")
	}
	rep.layers.set("core.ghost_copies.bin", float64(ghosts), "count")
	rep.layers.set("bsst.simulate_ms", t.meanMs("bsst.simulate"), "ms")
	rep.layers.set("bsst.accuracy_ms", t.meanMs("bsst.accuracy"), "ms")
	return nil
}

// sameBits reports the first index where two answer vectors differ in any
// bit.
func sameBits(want, got []float64) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d values, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			return fmt.Errorf("value %d is %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}
