package main

import (
	"fmt"
	"math"

	"ppaclust/internal/cluster"
	"ppaclust/internal/cts"
	"ppaclust/internal/designs"
	"ppaclust/internal/features"
	"ppaclust/internal/flow"
	"ppaclust/internal/gnn"
	"ppaclust/internal/hier"
	"ppaclust/internal/netlist"
	"ppaclust/internal/par"
	"ppaclust/internal/place"
	"ppaclust/internal/power"
	"ppaclust/internal/route"
	"ppaclust/internal/sta"
	"ppaclust/internal/vpr"
)

// The traced replica re-runs flow.Run (OpenROAD recipe, PPA-aware
// clustering) and flow.RunDefault from the public functions of each layer,
// in Algorithm 1's order, with a span around every layer call. It uses
// flow's default knobs, listed here; the fingerprint gate catches any drift
// from the real entry points.
const (
	numPaths      = 100000 // flow.Options.NumPaths default, |P|
	switchMu      = 2      // flow.Options.Mu default, Eq. 2 exponent
	vprMinInsts   = 50     // flow.Options.VPRMinInsts default
	ioWeightScale = 4      // flow.Options.IOWeightScale default
)

// traced runs the workload's flow under tr and returns the root "flow" span
// with the result.
func (w workload) traced(seed int64, in inputs, tr *tracer) (*flow.Result, int, error) {
	opt := w.options(seed, in)
	root := tr.begin("flow")
	var res *flow.Result
	var err error
	if w.clustered {
		res, err = tracedRun(in.bench, opt, tr)
	} else {
		res, err = tracedRunDefault(in.bench, opt, tr)
	}
	tr.end(root)
	return res, root, err
}

func tracedRunDefault(b *designs.Benchmark, opt flow.Options, tr *tracer) (*flow.Result, error) {
	d := b.Design.Clone()
	if _, err := d.CompactChecked(); err != nil {
		return nil, err
	}
	tracedGlobal(tr, d, place.Options{Seed: opt.Seed, Workers: opt.Workers, TimingCons: b.Cons})
	tracedLegalizeDetailed(tr, d, opt.Seed)
	res := &flow.Result{}
	tracedEvaluate(tr, d, b.Cons, opt.Workers, res, nil)
	return res, nil
}

func tracedRun(b *designs.Benchmark, opt flow.Options, tr *tracer) (*flow.Result, error) {
	d := b.Design.Clone()
	if _, err := d.CompactChecked(); err != nil {
		return nil, err
	}
	res := &flow.Result{}

	// Clustering (Algorithm 1 lines 2-10).
	var view *netlist.HypergraphView
	tr.do("netlist.to_hypergraph", func() { view = d.ToHypergraph() })
	var groups []int
	tr.do("hier.cluster", func() {
		if hres, ok := hier.Cluster(d, view.H); ok {
			groups = hres.Assign
			tr.add("hier.groups", float64(hres.Clusters))
		}
	})
	zc := b.Cons
	zc.ZeroWire = true
	var an *sta.Analyzer
	var paths []sta.Path
	tr.do("sta.top_paths", func() {
		an = sta.New(d, zc)
		an.Workers = opt.Workers
		paths = an.TopPaths(numPaths)
	})
	tr.add("sta.paths", float64(len(paths)))
	var netAct []float64
	tr.do("sta.activity", func() { netAct = an.NetActivity() })
	var cres cluster.Result
	tr.do("cluster.fc", func() {
		pathNets := make([][]int, len(paths))
		slacks := make([]float64, len(paths))
		for i, p := range paths {
			slacks[i] = p.Slack
			for _, netID := range p.Nets {
				if e := view.EdgeOfNet[netID]; e >= 0 {
					pathNets[i] = append(pathNets[i], e)
				}
			}
		}
		tCost := cluster.TimingCosts(pathNets, slacks, b.Cons.ClockPeriod, view.H.NumEdges())
		edgeAct := make([]float64, view.H.NumEdges())
		for e, netID := range view.NetOfEdge {
			edgeAct[e] = netAct[netID]
		}
		sCost := cluster.SwitchCosts(edgeAct, switchMu)
		cres = cluster.MultilevelFC(view.H, cluster.Options{
			Alpha: 1, Beta: 1, Gamma: 1, Seed: opt.Seed,
			Groups:         groups,
			EdgeTimingCost: tCost,
			EdgeSwitchCost: sCost,
			Workers:        opt.Workers,
		})
	})
	tr.add("cluster.clusters", float64(cres.NumClusters))
	tr.add("cluster.levels", float64(cres.Levels))

	// Cluster shapes (lines 12-13).
	shapes, err := tracedShapes(tr, d, cres.Assign, cres.NumClusters, opt)
	if err != nil {
		return nil, err
	}

	// Seed placement of the clustered netlist (lines 15-25).
	var cd *netlist.Design
	var clusterInsts []int
	tr.do("flow.build_clustered", func() {
		cd, clusterInsts, err = flow.BuildClusteredDesign(d, cres.Assign, cres.NumClusters, shapes)
	})
	if err != nil {
		return nil, err
	}
	tr.do("place.seed", func() {
		scaleIONets(cd, ioWeightScale)
		r := place.Global(cd, place.Options{Seed: opt.Seed, Workers: opt.Workers})
		place.RemoveOverlaps(cd)
		tr.add("place.seed_rounds", float64(r.Iterations))
		tr.add("place.seed_cg_iters", float64(r.CGIterations))
	})
	// Instances start at their cluster centers.
	for instID, c := range cres.Assign {
		inst := d.Insts[instID]
		if inst.Fixed {
			continue
		}
		ci := cd.Insts[clusterInsts[c]]
		inst.X = ci.CenterX() - inst.Master.Width/2
		inst.Y = ci.CenterY() - inst.Master.Height/2
		inst.Placed = true
	}
	tracedGlobal(tr, d, place.Options{Seed: opt.Seed, Incremental: true, AnchorWeight: 0.1,
		Workers: opt.Workers, TimingCons: b.Cons})
	tracedLegalizeDetailed(tr, d, opt.Seed)

	// Evaluation (lines 27-30).
	tracedEvaluate(tr, d, b.Cons, opt.Workers, res, an)
	return res, nil
}

// tracedShapes mirrors the flow's shape selection for the uniform, exact
// V-P&R and GNN modes. vpr.clusters_shaped counts the clusters above the
// size gate, as flow.Result.ShapedVPR does, whatever the shape mode.
func tracedShapes(tr *tracer, d *netlist.Design, assign []int, nClusters int,
	opt flow.Options) (map[int]vpr.Shape, error) {

	shapes := make(map[int]vpr.Shape, nClusters)
	members := make([][]int, nClusters)
	for inst, c := range assign {
		members[c] = append(members[c], inst)
	}
	for c := 0; c < nClusters; c++ {
		shapes[c] = vpr.UniformShape
		if len(members[c]) <= vprMinInsts {
			continue
		}
		tr.add("vpr.clusters_shaped", 1)
		tr.add("vpr.cells_shaped", float64(len(members[c])))
		switch opt.Shapes {
		case flow.ShapeUniform:
			continue
		case flow.ShapeVPR, flow.ShapeVPRML:
		default:
			return nil, fmt.Errorf("traced replica: shape mode %v not supported", opt.Shapes)
		}
		var sub *netlist.Design
		var err error
		tr.do("vpr.induce", func() { sub, err = vpr.InduceSubNetlist(d, members[c]) })
		if err != nil {
			return nil, err
		}
		if opt.Shapes == flow.ShapeVPR {
			tr.do("vpr.best_shape", func() {
				best, evals := vpr.BestShape(sub, vpr.Runner{Opt: vpr.Options{Seed: opt.Seed}})
				shapes[c] = best
				tr.add("vpr.candidates", float64(len(evals)))
			})
			continue
		}
		if opt.Model == nil {
			return nil, fmt.Errorf("traced replica: ShapeVPRML requires a trained model")
		}
		var g *gnn.GraphInput
		tr.do("gnn.graph_input", func() { g = gnn.BuildGraphInput(sub, features.Options{Seed: opt.Seed}) })
		tr.do("gnn.predict", func() { shapes[c] = opt.Model.PredictBestShape(g) })
		tr.add("gnn.predictions", 1)
	}
	return shapes, nil
}

// scaleIONets is the OpenROAD recipe's x4 weight on nets touching top-level
// ports (Algorithm 1 line 22).
func scaleIONets(d *netlist.Design, scale float64) {
	for _, n := range d.Nets {
		for _, pr := range n.Pins {
			if pr.IsPort() {
				n.Weight *= scale
				break
			}
		}
	}
}

// tracedGlobal runs global placement without its built-in legalization, so
// legalization gets a span of its own.
func tracedGlobal(tr *tracer, d *netlist.Design, opt place.Options) {
	opt.Legalize = false
	tr.do("place.global", func() {
		r := place.Global(d, opt)
		tr.add("place.global_rounds", float64(r.Iterations))
		tr.add("place.global_cg_iters", float64(r.CGIterations))
	})
}

// tracedLegalizeDetailed legalizes and refines, and counts displacement,
// remaining violations, swaps and wirelength gain. The position snapshots
// and the legality check run outside the layer spans.
func tracedLegalizeDetailed(tr *tracer, d *netlist.Design, seed int64) {
	x := make([]float64, len(d.Insts))
	y := make([]float64, len(d.Insts))
	for i, inst := range d.Insts {
		x[i], y[i] = inst.X, inst.Y
	}
	tr.do("place.legalize", func() { place.Legalize(d) })
	var disp float64
	for i, inst := range d.Insts {
		disp += math.Abs(inst.X-x[i]) + math.Abs(inst.Y-y[i])
	}
	tr.add("place.legalize_disp_um", disp)
	tr.add("place.illegal_cells", float64(illegalCells(d)))
	tr.do("place.detailed", func() {
		r := place.Detailed(d, place.DetailedOptions{Seed: seed})
		tr.add("place.detailed_swaps", float64(r.Swaps))
		if r.HPWLBefore > 0 {
			tr.add("place.detailed_gain_pct", 100*(r.HPWLBefore-r.HPWLAfter)/r.HPWLBefore)
		}
	})
}

// tracedEvaluate mirrors the flow's post-route evaluation: HPWL, global
// route, CTS and propagated-clock sign-off STA, then power. an is the
// clustering stage's zero-wire analyzer, reused as the flow does, or nil.
func tracedEvaluate(tr *tracer, d *netlist.Design, cons sta.Constraints, workers int,
	res *flow.Result, an *sta.Analyzer) {

	res.HPWL = d.HPWLWorkers(par.Workers(workers))
	var rres *route.Result
	tr.do("route.global_route", func() { rres = route.GlobalRoute(d, route.Options{Workers: workers}) })
	res.Overflow = rres.Overflow
	res.MaxCongestion = rres.MaxCongestion
	tr.add("route.overflow", float64(rres.Overflow))

	tr.do("sta.signoff", func() {
		if an == nil {
			an = sta.New(d, cons)
			an.Workers = workers
		} else {
			an.SetZeroWire(cons.ZeroWire)
			an.Update()
		}
	})
	var clockPower float64
	tr.do("cts.synthesize", func() {
		for _, n := range d.Nets {
			if !n.Clock {
				continue
			}
			copt := cts.Options{BufMaster: d.Lib.Master("CLKBUF_X2"), SkipArrivalMap: true, Workers: workers}
			cr := cts.Synthesize(d, n, copt)
			if len(cr.ArrivalList) > 0 {
				an.SetClockArrivalList(cr.ArrivalList)
				cr.EstimatePower(copt, cons.ClockPeriod, power.DefaultVdd)
				clockPower += cr.Power
				res.ClockWL += cr.WirelengthUM
			}
			break // single clock domain, as in the flow
		}
	})
	tr.add("cts.clock_wl_um", res.ClockWL)
	res.RoutedWL = rres.WirelengthUM + res.ClockWL
	tr.do("sta.signoff", func() {
		sum := an.Timing()
		res.WNS, res.TNS = sum.WNS, sum.TNS
		hold := an.HoldTiming()
		res.HoldWNS, res.HoldTNS = hold.WHS, hold.THS
		drv := an.DRV()
		res.DRVCap, res.DRVSlew = drv.MaxCapViolations, drv.MaxSlewViolations
	})
	tr.do("power.analyze", func() { res.PowerRep = power.Analyze(an, power.DefaultVdd) })
	res.Power = res.PowerRep.Total() + clockPower
	res.Placed = d
}
