package picpredict

import (
	"context"
	"errors"
	"fmt"
	"io"

	"picpredict/internal/geom"
	"picpredict/internal/obs"
	"picpredict/internal/pipeline"
	"picpredict/internal/resilience"
	"picpredict/internal/scenario"
	"picpredict/internal/trace"
)

// FusedOptions configures RunFused, the single-process pipeline that runs
// the PIC application, the Dynamic Workload Generator, the Model Generator,
// and the Simulation Platform end-to-end with no intermediate artefact
// files.
type FusedOptions struct {
	// Ranks lists the processor counts to predict; the one simulation pass
	// feeds a workload builder per entry.
	Ranks []int
	// Mapping selects the mapping algorithm (default MappingBin).
	Mapping MappingKind
	// FilterRadius is the projection filter size; zero takes the
	// scenario's.
	FilterRadius float64
	// RelaxedBins and MidpointSplit tune bin mapping as in
	// WorkloadOptions.
	RelaxedBins   bool
	MidpointSplit bool
	// Rebalance is a dynamic load-balancing policy spec ("periodic:K",
	// "threshold:F", "diffusion:F[/R]"; empty or "none" keeps the static
	// decomposition). Requires MappingElement when non-none.
	Rebalance string
	// Workers sets the workload generator's parallel-fill worker count
	// (0/1 serial).
	Workers int
	// Depth is the bounded-channel depth between the simulation and the
	// workload builders; 0 streams synchronously. Checkpointed runs are
	// always synchronous regardless.
	Depth int

	// Train configures the Model Generator (trained concurrently with the
	// simulation).
	Train TrainOptions

	// TotalElements, GridN, FilterElements and Machine configure the
	// Simulation Platform; zero values derive from the scenario
	// (TotalElements, GridN) or default to one element width
	// (FilterElements) and Quartz (Machine).
	TotalElements  int
	GridN          float64
	FilterElements float64
	Machine        *MachineSpec
	// Noise is the synthetic-testbed noise of the accuracy evaluation
	// (default 0.105, the §IV setting).
	Noise float64

	// TraceOut, when set, also streams the trace to this file — fused
	// prediction plus a durable artefact in one pass.
	TraceOut string
	// CheckpointEvery enables crash recovery: the run checkpoints every N
	// iterations (and on context cancellation), and Resume continues a
	// killed run. Checkpointing requires TraceOut — the trace is the
	// durable state a resumed run replays to rebuild its builders.
	CheckpointEvery int
	CheckpointPath  string // default TraceOut+".ckpt"
	Resume          bool

	// Obs, when non-nil, instruments the run: the registry collects the
	// end-to-end stage breakdown (setup, stream, workloads, train-wait,
	// predict — consecutive segments that partition the wall time), the
	// pipeline's per-stage frame latency and channel depth, the
	// generators' fill times, and the simulator's per-interval
	// simulated-vs-wall telemetry. Nil runs are unobserved at effectively
	// zero cost.
	Obs *obs.Registry

	// afterFrame, when set, runs after every streamed frame with the
	// number of frames seen so far (including replayed ones) — a test
	// hook for deterministic mid-flight cancellation.
	afterFrame func(frames int)
}

// FusedResult is RunFused's output: one prediction (and workload, and
// accuracy evaluation) per requested rank count, plus the trained models.
type FusedResult struct {
	// Ranks echoes the requested processor counts.
	Ranks []int
	// Workloads[i] is the workload generated for Ranks[i].
	Workloads []*Workload
	// Predictions[i] is the BSP prediction for Ranks[i].
	Predictions []*Prediction
	// Accuracy[i] is the per-kernel MAPE evaluation for Ranks[i].
	Accuracy []map[string]float64
	// Models are the fitted kernel models.
	Models Models
	// Frames is the number of trace frames streamed through the builders.
	Frames int
}

// RunFused executes the whole prediction framework in one process and one
// pass: the PIC simulation streams frames directly into per-rank workload
// builders (kernel models train concurrently), and the finished workloads
// replay through the BSP simulator. Positions are quantised through the
// trace format's float32 on the way, so the reported totals are
// bit-identical to the file-at-rest flow (picgen → wlgen/predict) — without
// writing any intermediate file unless TraceOut asks for one.
//
// Cancelling ctx stops the run between iterations; with checkpointing
// enabled a final checkpoint is written first, so a Resume run picks up
// where the cancelled one stopped (replaying the durable trace prefix
// through fresh builders, then continuing live).
func RunFused(ctx context.Context, sc Scenario, opts FusedOptions) (*FusedResult, error) {
	spec := sc.spec
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("picpredict: %w", err)
	}
	if len(opts.Ranks) == 0 {
		return nil, errors.New("picpredict: RunFused needs at least one rank count")
	}
	if opts.Mapping == "" {
		opts.Mapping = MappingBin
	}
	if opts.FilterRadius == 0 {
		opts.FilterRadius = spec.FilterRadius
	}
	checkpointing := opts.CheckpointEvery > 0 || opts.Resume
	if checkpointing && opts.TraceOut == "" {
		return nil, errors.New("picpredict: fused checkpointing requires TraceOut — the trace is the durable state a resume replays")
	}

	// One workload builder per rank count: a single simulation pass
	// fans out to every requested configuration.
	builders := make([]*pipeline.GeneratorBuilder, len(opts.Ranks))
	for i, r := range opts.Ranks {
		b, err := pipeline.NewGeneratorBuilder(pipeline.MapperSpec{
			Kind:          string(opts.Mapping),
			Ranks:         r,
			FilterRadius:  opts.FilterRadius,
			RelaxedBins:   opts.RelaxedBins,
			MidpointSplit: opts.MidpointSplit,
			Rebalance:     opts.Rebalance,
			Domain:        spec.Domain,
			Elements:      spec.Elements,
			N:             spec.N,
		}, opts.Workers)
		if err != nil {
			return nil, fmt.Errorf("picpredict: %w", err)
		}
		b.SetObs(opts.Obs)
		builders[i] = b
	}
	res := &FusedResult{Ranks: opts.Ranks}
	sinks := make([]pipeline.FrameSink, 0, len(builders)+1)
	for _, b := range builders {
		sinks = append(sinks, b)
	}
	sinks = append(sinks, pipeline.SinkFunc(func(int, []geom.Vec3) error {
		res.Frames++
		if opts.afterFrame != nil {
			opts.afterFrame(res.Frames)
		}
		return nil
	}))

	// The Model Generator is workload-independent; train it while the
	// simulation streams.
	type trained struct {
		models Models
		err    error
	}
	trainCh := make(chan trained, 1)
	go func() {
		m, err := TrainModels(opts.Train)
		trainCh <- trained{models: m, err: err}
	}()

	// Stage clock: consecutive StageDone calls partition the run's wall
	// time, so the manifest's stage nanos sum to (within scheduling jitter)
	// the elapsed time.
	opts.Obs.StageDone("setup")

	ctx = obs.With(ctx, opts.Obs)
	if err := runFusedStream(ctx, spec, opts, checkpointing, sinks); err != nil {
		return nil, err
	}
	opts.Obs.StageDone("stream")

	res.Workloads = make([]*Workload, len(builders))
	for i, b := range builders {
		inner, err := b.Finish()
		if err != nil {
			return nil, fmt.Errorf("picpredict: %w", err)
		}
		res.Workloads[i] = &Workload{
			inner:        inner,
			binsPerFrame: b.BinsPerFrame,
			opts: WorkloadOptions{
				Ranks:         opts.Ranks[i],
				Mapping:       opts.Mapping,
				FilterRadius:  opts.FilterRadius,
				RelaxedBins:   opts.RelaxedBins,
				MidpointSplit: opts.MidpointSplit,
				Rebalance:     opts.Rebalance,
				Workers:       opts.Workers,
			},
		}
	}
	opts.Obs.StageDone("workloads")

	t := <-trainCh
	if t.err != nil {
		return nil, t.err
	}
	res.Models = t.models
	opts.Obs.StageDone("train-wait")

	platform, err := newFusedPlatform(sc, t.models, opts)
	if err != nil {
		return nil, err
	}
	noise := opts.Noise
	if noise == 0 {
		noise = 0.105
	}
	res.Predictions = make([]*Prediction, len(opts.Ranks))
	res.Accuracy = make([]map[string]float64, len(opts.Ranks))
	for i, wl := range res.Workloads {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pred, err := platform.SimulateBSP(wl)
		if err != nil {
			return nil, err
		}
		acc, err := platform.KernelAccuracy(wl, noise, int64(7+i))
		if err != nil {
			return nil, err
		}
		res.Predictions[i] = pred
		res.Accuracy[i] = acc
	}
	opts.Obs.StageDone("predict")
	return res, nil
}

// runFusedStream drives the simulation through the sinks in whichever of
// the three wiring modes opts selects: checkpointed (durable trace +
// resume), trace-writing (atomic file alongside the fused sinks), or pure
// in-memory.
func runFusedStream(ctx context.Context, spec scenario.Spec, opts FusedOptions, checkpointing bool, sinks []pipeline.FrameSink) error {
	if checkpointing {
		tr, err := pipeline.NewTraceRun(spec, pipeline.TraceRunOptions{
			Out:             opts.TraceOut,
			CheckpointPath:  opts.CheckpointPath,
			CheckpointEvery: opts.CheckpointEvery,
			Resume:          opts.Resume,
		})
		if err != nil {
			return fmt.Errorf("picpredict: %w", err)
		}
		// A resumed run rebuilds builder state by replaying the intact
		// trace prefix — workload generation is deterministic from the
		// trace, so no generator state needs checkpointing.
		if err := tr.ReplayPrefix(ctx, sinks...); err != nil {
			return fmt.Errorf("picpredict: %w", err)
		}
		if err := tr.Run(ctx, sinks...); err != nil {
			if ctx.Err() != nil {
				return err
			}
			return fmt.Errorf("picpredict: %w", err)
		}
		return nil
	}

	sim, err := spec.NewSim()
	if err != nil {
		return fmt.Errorf("picpredict: %w", err)
	}
	src := &pipeline.SimSource{Sim: sim}
	if opts.TraceOut != "" {
		err := resilience.WriteFileAtomic(opts.TraceOut, func(w io.Writer) error {
			tw, err := trace.NewWriter(w, trace.Header{
				NumParticles: spec.NumParticles,
				SampleEvery:  spec.SampleEvery,
				Domain:       spec.Domain,
			})
			if err != nil {
				return err
			}
			all := append([]pipeline.FrameSink{pipeline.WriterSink{W: tw}}, sinks...)
			if err := pipeline.StreamConcurrent(ctx, src, opts.Depth, all...); err != nil {
				return err
			}
			return tw.Flush()
		})
		if err != nil && ctx.Err() != nil {
			return err
		}
		if err != nil {
			return fmt.Errorf("picpredict: %w", err)
		}
		return nil
	}
	if err := pipeline.StreamConcurrent(ctx, src, opts.Depth, sinks...); err != nil {
		if ctx.Err() != nil {
			return err
		}
		return fmt.Errorf("picpredict: %w", err)
	}
	return nil
}

// newFusedPlatform assembles the Simulation Platform with scenario-derived
// defaults.
func newFusedPlatform(sc Scenario, models Models, opts FusedOptions) (*Platform, error) {
	totalEl := opts.TotalElements
	if totalEl == 0 {
		totalEl = sc.NumElements()
	}
	gridN := opts.GridN
	if gridN == 0 {
		gridN = float64(sc.GridN())
	}
	return assemblePlatform(models, totalEl, gridN, opts.FilterElements, opts.Machine, opts.Obs)
}

// assemblePlatform is the shared Simulation Platform constructor behind the
// fused and serving flows: FilterElements defaults to one element width and
// Machine to Quartz; TotalElements and GridN must already be resolved.
func assemblePlatform(models Models, totalEl int, gridN, filterEl float64, machine *MachineSpec, reg *obs.Registry) (*Platform, error) {
	if filterEl == 0 {
		filterEl = 1
	}
	if machine == nil {
		q := QuartzMachine()
		machine = &q
	}
	return NewPlatform(models, PlatformOptions{
		TotalElements: totalEl,
		N:             gridN,
		Filter:        filterEl,
		Machine:       machine,
		Obs:           reg,
	})
}

// QueryOptions configures one prediction query against an already-loaded
// artefact — the serving-path analogue of FusedOptions, shaped for a
// long-running process that amortises trace loading and model training
// across many queries.
type QueryOptions struct {
	// Workload configures the Dynamic Workload Generator for this query
	// (ranks, mapping, filter radius, ...). Ignored by PredictWorkload,
	// which replays a pre-generated workload.
	Workload WorkloadOptions
	// TotalElements and GridN configure the Simulation Platform; both must
	// be positive (a server fills them from its configuration defaults).
	TotalElements int
	GridN         float64
	// FilterElements defaults to one element width; Machine to Quartz.
	FilterElements float64
	Machine        *MachineSpec
	// Obs, when non-nil, instruments workload generation and the
	// simulator exactly as in the fused flow.
	Obs *obs.Registry
}

// PredictFromTrace is the reusable predict-from-artefact entry point: one
// workload generation plus one BSP replay for a single configuration over a
// trace that is already in memory. The trace is only read, and trained
// Models are immutable after fitting, so any number of PredictFromTrace
// calls may run concurrently over the same trace and models. picserve does
// not call it on its hot path: it resolves the workload through its build
// cache and calls PredictWorkload, so a repeated query skips generation.
func PredictFromTrace(ctx context.Context, tr *Trace, models Models, q QueryOptions) (*Workload, *Prediction, error) {
	wl, err := tr.GenerateWorkloadContext(obs.With(ctx, q.Obs), q.Workload)
	if err != nil {
		return nil, nil, err
	}
	pred, err := PredictWorkload(models, wl, q)
	if err != nil {
		return nil, nil, err
	}
	return wl, pred, nil
}

// PredictWorkload replays an existing workload (generated in-process or
// loaded from a wlgen -save artefact) through the BSP simulator under q's
// platform configuration.
func PredictWorkload(models Models, wl *Workload, q QueryOptions) (*Prediction, error) {
	if q.TotalElements <= 0 {
		return nil, fmt.Errorf("picpredict: PredictWorkload needs a positive TotalElements, got %d", q.TotalElements)
	}
	if q.GridN <= 0 {
		return nil, fmt.Errorf("picpredict: PredictWorkload needs a positive GridN, got %g", q.GridN)
	}
	platform, err := assemblePlatform(models, q.TotalElements, q.GridN, q.FilterElements, q.Machine, q.Obs)
	if err != nil {
		return nil, err
	}
	return platform.SimulateBSP(wl)
}
