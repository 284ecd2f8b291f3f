package main

import (
	"context"
	"fmt"

	"picpredict"
	"picpredict/internal/geom"
	"picpredict/internal/pipeline"
	"picpredict/internal/scenario"
)

// size fixes the input dimensions that differ between the benchmark
// (fullSize) and the tests' tiny runs.
type size struct {
	particles, steps, sampleEvery int
	// setups is how many times a run builds its inputs; setup_s is the
	// median.
	setups int

	fusedRanks []int
	sweepRanks []int
	// hotRanks are the repeated serve keys; every coldEvery-th request
	// instead draws a distinct rank count from [coldLo, coldHi].
	hotRanks       []int
	coldLo, coldHi int
	// lowRPS and highRPS are the two offered request rates, fixed at about
	// 30 % and 50 % of the shard's capacity for the warm request mix: 15.4
	// requests/s closed-loop over 2 connections on a 2-core x86-64 host.
	// At 70 % the high-rate tail varied too much from run to run.
	lowRPS, highRPS float64
}

var fullSize = size{
	particles: 20000, steps: 600, sampleEvery: 30,
	setups:     3,
	fusedRanks: []int{1044, 8352},
	sweepRanks: []int{1044, 2088, 4176, 8352},
	hotRanks:   []int{256, 1044, 2088, 4176},
	coldLo:     300, coldHi: 4000,
	lowRPS: 5, highRPS: 7.7,
}

// Widths shared by every size, all at most the 2 cores the benchmark is
// sized for.
const (
	// fillWorkers is the fused builders' parallel-fill width, depth the
	// simulation→builder channel depth.
	fillWorkers = 2
	depth       = 4
	// sweepWorkers is the sweep's build and evaluate fan-out; each build
	// fills serially.
	sweepWorkers = 2
	// shardWorkers is the shard's admission width, clientConns the load
	// generator's connection count.
	shardWorkers = 2
	clientConns  = 2
	// coldEvery: every coldEvery-th serve request is a cold rank count.
	coldEvery = 5
)

// filterRadius is the projection filter radius of every workload.
const filterRadius = 0.004

// spec is the run's Hele-Shaw scenario, seeded by the benchmark seed.
func (p params) spec() scenario.Spec {
	s := scenario.HeleShaw()
	s.NumParticles = p.size.particles
	s.Steps = p.size.steps
	s.SampleEvery = p.size.sampleEvery
	s.Seed = p.seed
	return s
}

// platform returns the Simulation Platform sizing every workload shares:
// the scenario's element count and grid order, one-element filter, Quartz
// (the defaults of RunFused and picserve alike).
func platform(s scenario.Spec) picpredict.QueryOptions {
	return picpredict.QueryOptions{
		TotalElements: s.Elements[0] * s.Elements[1] * s.Elements[2],
		GridN:         float64(s.N),
	}
}

// trainOpts are the Model Generator options of every workload: fast
// training of the synthetic kernel models, as RunFused and the shard run it.
var trainOpts = picpredict.TrainOptions{Fast: true}

// frames is a simulation's sampled trace held in memory: as a
// picpredict.Trace for the library entry points, and as raw frames.
type frames struct {
	trace *picpredict.Trace
	iters []int
	pos   []geom.Vec3
	np    int
}

// buildTrace runs the scenario through the fused pipeline's simulation
// source (positions quantised through float32, exactly as a trace file
// stores them) into memory. With a tracer the source is wrapped, timing
// the PIC layer.
func buildTrace(ctx context.Context, spec scenario.Spec, t *tracer) (*frames, error) {
	sim, err := spec.NewSim()
	if err != nil {
		return nil, err
	}
	f := &frames{np: spec.NumParticles}
	collect := pipeline.SinkFunc(func(it int, pos []geom.Vec3) error {
		f.iters = append(f.iters, it)
		f.pos = append(f.pos, pos...)
		return nil
	})
	ss := &pipeline.SimSource{Sim: sim}
	var src pipeline.FrameSource = ss
	if t != nil {
		src = &timedSource{src: ss, t: t}
	}
	if err := pipeline.StreamConcurrent(ctx, src, depth, collect); err != nil {
		return nil, fmt.Errorf("simulating %s: %w", spec.Name, err)
	}
	positions := make([][3]float64, len(f.pos))
	for i, p := range f.pos {
		positions[i] = [3]float64{p.X, p.Y, p.Z}
	}
	d := spec.Domain
	tr, err := picpredict.NewTraceFromFrames([2][3]float64{{d.Lo.X, d.Lo.Y, d.Lo.Z}, {d.Hi.X, d.Hi.Y, d.Hi.Z}},
		f.np, spec.SampleEvery, f.iters, positions)
	if err != nil {
		return nil, err
	}
	f.trace = tr.WithMesh(spec.Elements[0], spec.Elements[1], spec.Elements[2], spec.N)
	return f, nil
}

// inputs are what every workload's set-up makes: the simulated trace and
// the kernel models the correctness checks predict with.
type inputs struct {
	f      *frames
	models picpredict.Models
}

// prepare simulates the trace and trains the models at once, one on each
// core, as RunFused overlaps them. With a tracer both layers are timed.
func prepare(ctx context.Context, spec scenario.Spec, t *tracer) (*inputs, error) {
	var (
		models   picpredict.Models
		trainErr error
	)
	trained := make(chan struct{})
	go func() {
		defer close(trained)
		stop := t.start("perfmodel.train")
		models, trainErr = picpredict.TrainModelsKind(picpredict.ModelSynthetic, trainOpts)
		stop()
	}()
	f, err := buildTrace(ctx, spec, t)
	<-trained
	if err != nil {
		return nil, err
	}
	if trainErr != nil {
		return nil, trainErr
	}
	return &inputs{f: f, models: models}, nil
}

// reportSetUpLayers fills the per-layer figures every traced run takes
// from its set-ups: the PIC source and model training.
func reportSetUpLayers(rep *report, t *tracer) {
	rep.layers.set("pic.step_ms", t.meanMs("pic.step"), "ms")
	rep.layers.set("pic.busy_s", t.meanMs("pic.busy")/1000, "s")
	rep.layers.set("perfmodel.train_s", t.meanMs("perfmodel.train")/1000, "s")
}
