package main

import (
	"context"
	"fmt"
	"reflect"
	"strings"

	"picpredict"
	"picpredict/internal/obs"
	"picpredict/internal/sweep"
)

// sweepFamilies are the grid's (mapping, rebalance) pairs: bin, static
// element, and element re-bisected whenever max/mean load exceeds 1.5.
var sweepFamilies = []struct {
	mapping   picpredict.MappingKind
	rebalance string
	layer     string
}{
	{picpredict.MappingBin, "", "core.build.bin"},
	{picpredict.MappingElement, "", "core.build.element"},
	{picpredict.MappingElement, "threshold:1.5", "core.build.rebalance"},
}

var sweepMachines = []string{"quartz", "vulcan", "titan"}

func sweepGrid(p params) sweep.Grid {
	return sweep.Grid{
		Ranks:      p.size.sweepRanks,
		Mappings:   []picpredict.MappingKind{picpredict.MappingBin, picpredict.MappingElement},
		Machines:   sweepMachines,
		Rebalances: []string{"", "threshold:1.5"},
	}
}

// runSweep times sweep.Run over the grid against an in-memory trace.
// Set-up simulates the trace and trains the models, one on each core. A
// traced run hands the sweep an obs registry, which times its build and
// evaluate phases.
func runSweep(ctx context.Context, p params) (*report, error) {
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

	q := platform(spec)
	opts := sweep.Options{
		Filter:        filterRadius,
		Workers:       sweepWorkers,
		BuildWorkers:  1,
		TotalElements: q.TotalElements,
		GridN:         q.GridN,
	}
	var results []*sweep.Result
	op := func() error {
		res, err := sweep.Run(ctx, in.f.trace, sweepGrid(p), opts, func(context.Context, picpredict.ModelKind) (picpredict.Models, error) {
			return in.models, nil
		})
		if err != nil {
			return err
		}
		results = append(results, res)
		return nil
	}
	var baseline []float64
	reg := obs.New()
	if p.traced {
		if baseline, err = repeatFor(0, op); err != nil {
			return nil, err
		}
		opts.Obs = reg
	}
	walls, err := repeatFor(p.measure, op)
	if err != nil {
		return nil, err
	}

	rep := newReport()
	rep.setupS = setupS
	rep.attempted = len(results)
	if err := checkSweep(ctx, p, in, results, t, rep); err != nil {
		return nil, err
	}
	for _, pt := range results[len(results)-1].Frontier {
		rep.outputs = append(rep.outputs, pt.TotalSec, pt.ComputeSec, pt.CommSec)
	}

	untraced := walls
	if p.traced {
		untraced = baseline
		rep.layers.set("trace.overhead_pct", 100*(median(walls)-median(baseline))/median(baseline), "%")
	}
	configs := float64(results[0].Configs)
	rep.endToEnd.set("p50_ms", 1000*median(untraced), "ms")
	rep.endToEnd.set("tail_ms", 1000*maxOf(untraced), "ms")
	rep.named.set("sweep.configs_per_s", configs/median(untraced), "1/s")
	rep.named.set("sweep.runs", float64(len(untraced)), "count")

	if p.traced {
		reportSetUpLayers(rep, t)
		for _, phase := range []string{obs.SweepBuildNs, obs.SweepEvaluateNs} {
			tm := reg.Timer(phase)
			name := strings.TrimSuffix(phase, "_ns") + "_s"
			rep.layers.set(name, tm.Total().Seconds()/float64(tm.Count()), "s")
		}
	}
	rep.layers.set("sweep.builds", float64(results[0].SharedBuilds), "count")
	rep.layers.set("sweep.configs", configs, "count")
	return rep, nil
}

// checkSweep requires every sweep's result to equal the first's, and
// every frontier row of the first to equal the standalone answer:
// GenerateWorkload for its (ranks, mapping, rebalance), then
// PredictWorkload on its machine. The standalone builds and predictions
// run as the sweep runs them, sweepWorkers at a time with serial fills, so
// a traced check's per-build and per-prediction times are the sweep's.
func checkSweep(ctx context.Context, p params, in *inputs, results []*sweep.Result, t *tracer, rep *report) error {
	first := results[0]
	for k, r := range results[1:] {
		if !reflect.DeepEqual(first, r) {
			return fmt.Errorf("sweep %d differs from sweep 0", k+1)
		}
	}
	want := len(p.size.sweepRanks) * len(sweepFamilies) * len(sweepMachines)
	if first.Configs != want || len(first.Frontier) != want || first.SharedBuilds != len(p.size.sweepRanks)*len(sweepFamilies) {
		return fmt.Errorf("sweep priced %d configs in %d rows from %d builds, want %d configs", first.Configs, len(first.Frontier), first.SharedBuilds, want)
	}
	rows := make(map[sweep.Config]sweep.Point, len(first.Frontier))
	for _, pt := range first.Frontier {
		rows[pt.Config] = pt
	}

	type build struct {
		ranks int
		fam   int
		wl    *picpredict.Workload
	}
	var builds []build
	for _, r := range p.size.sweepRanks {
		for fam := range sweepFamilies {
			builds = append(builds, build{ranks: r, fam: fam})
		}
	}
	err := fanOut(sweepWorkers, len(builds), func(i int) error {
		b, fam := &builds[i], sweepFamilies[builds[i].fam]
		opts := picpredict.WorkloadOptions{Ranks: b.ranks, Mapping: fam.mapping, Rebalance: fam.rebalance, FilterRadius: filterRadius, Workers: 1}
		stop := t.start(fam.layer)
		wl, err := in.f.trace.GenerateWorkloadContext(ctx, opts)
		stop()
		b.wl = wl
		return err
	})
	if err != nil {
		return err
	}

	spec := p.spec()
	err = fanOut(sweepWorkers, len(builds)*len(sweepMachines), func(i int) error {
		b, name := builds[i/len(sweepMachines)], sweepMachines[i%len(sweepMachines)]
		fam := sweepFamilies[b.fam]
		m, err := picpredict.MachineByName(name)
		if err != nil {
			return err
		}
		q := platform(spec)
		q.Machine = &m
		stop := t.start("bsst.simulate")
		pred, err := picpredict.PredictWorkload(in.models, b.wl, q)
		stop()
		if err != nil {
			return err
		}
		c := sweep.Config{Ranks: b.ranks, Mapping: fam.mapping, Machine: name, Kind: picpredict.ModelSynthetic, Rebalance: fam.rebalance}
		got, ok := rows[c]
		if !ok {
			return fmt.Errorf("sweep frontier has no row for %+v", c)
		}
		if exp := standalonePoint(c, b.wl, pred); !reflect.DeepEqual(got, exp) {
			return fmt.Errorf("sweep row %+v is %+v, standalone PredictWorkload gives %+v", c, got, exp)
		}
		return nil
	})
	if err != nil {
		return err
	}

	var ghosts int64
	epochs := 0
	for _, b := range builds {
		epochs += b.wl.MigrationEpochs()
		if sweepFamilies[b.fam].mapping == picpredict.MappingBin {
			for _, g := range b.wl.TotalGhosts() {
				ghosts += g
			}
		}
		rep.layers.set("core.frames", float64(b.wl.Frames()), "count")
	}
	rep.layers.set("core.ghost_copies.bin", float64(ghosts), "count")
	rep.layers.set("rebalance.epochs", float64(epochs), "count")
	for _, fam := range sweepFamilies {
		rep.layers.set(fam.layer+"_s", t.meanMs(fam.layer)/1000, "s")
	}
	rep.layers.set("bsst.simulate_ms", t.meanMs("bsst.simulate"), "ms")
	return nil
}

// standalonePoint derives a frontier row's figures from a standalone
// prediction, as the sweep documents them.
func standalonePoint(c sweep.Config, wl *picpredict.Workload, pred *picpredict.Prediction) sweep.Point {
	var comp, comm float64
	for k := range pred.Compute {
		comp += pred.Compute[k]
		comm += pred.Comm[k]
	}
	return sweep.Point{
		Config:          c,
		TotalSec:        pred.Total,
		ComputeSec:      comp,
		CommSec:         comm,
		MeanUtilization: pred.MeanUtilization(),
		PeakParticles:   wl.Peak(),
		CostRankSec:     float64(c.Ranks) * pred.Total,
		MigrationSec:    pred.MigrationSec(),
	}
}
