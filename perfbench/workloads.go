package main

import (
	"fmt"
	"syscall"
	"time"

	"ppaclust/internal/designs"
	"ppaclust/internal/experiments"
	"ppaclust/internal/flow"
	"ppaclust/internal/gnn"
)

// workload is one Algorithm-1 entry point on one design size. README.md
// records why each was chosen.
type workload struct {
	name  string
	cells int
	// clustered selects flow.Run (Algorithm 1) over flow.RunDefault (the
	// flat baseline).
	clustered bool
	shapes    flow.ShapeMode
}

var workloads = []workload{
	{name: "default_220k", cells: 220000},
	{name: "clustered_100k", cells: 100000, clustered: true, shapes: flow.ShapeUniform},
	{name: "vpr_ml_10k", cells: 10000, clustered: true, shapes: flow.ShapeVPRML},
	{name: "vpr_exact_10k", cells: 10000, clustered: true, shapes: flow.ShapeVPR},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// inputs is what set-up hands the flow: the design, plus the trained GNN on
// the ML-shaping workload.
type inputs struct {
	bench *designs.Benchmark
	model *gnn.Model
}

// spec is the design of seed s: ScaleSpec(N, 4242+s), as ppabench uses.
func (w workload) spec(seed int64) designs.Spec {
	return designs.ScaleSpec(w.cells, 4242+seed)
}

// setup generates the design without the generator's cache, and on the
// ML-shaping workload trains the shape model. Training is deterministic in
// the seed, so every set-up yields the same inputs. tr, when non-nil,
// records the two steps as spans.
func (w workload) setup(seed int64, tr *tracer) (inputs, error) {
	var in inputs
	tr.do("designs.generate", func() { in.bench = designs.GenerateWorkers(w.spec(seed), 0) })
	if w.clustered && w.shapes == flow.ShapeVPRML {
		var err error
		tr.do("gnn.train", func() { in.model, err = experiments.NewSuite(true, seed, 0).Model() })
		if err != nil {
			return inputs{}, fmt.Errorf("train shape model: %w", err)
		}
	}
	return in, nil
}

func (w workload) options(seed int64, in inputs) flow.Options {
	return flow.Options{Seed: seed, Shapes: w.shapes, Model: in.model, Workers: 0}
}

// timing is one timed call: its wall time and the CPU time the process
// spent during it.
type timing struct{ wall, cpu time.Duration }

// run is the untraced measurement: one flow.Run or flow.RunDefault call,
// timed from outside.
func (w workload) run(seed int64, in inputs) (*flow.Result, timing, error) {
	opt := w.options(seed, in)
	var res *flow.Result
	var err error
	t := timed(func() {
		if w.clustered {
			res, err = flow.Run(in.bench, opt)
		} else {
			res, err = flow.RunDefault(in.bench, opt)
		}
	})
	return res, t, err
}

// timed runs f and measures it.
func timed(f func()) timing {
	c0, t0 := cpuTime(), time.Now()
	f()
	return timing{wall: time.Since(t0), cpu: cpuTime() - c0}
}

// cpuTime is the user plus system CPU time the process has used. On a
// paravirtualised guest it excludes the time the host stole from the
// process's vCPUs, which wall time does not.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
