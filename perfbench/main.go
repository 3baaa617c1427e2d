// Command perfbench times the paper's Algorithm 1 end to end: flow.Run and
// flow.RunDefault on designs.ScaleSpec designs, with the quality of every
// result checked and reported beside its time. With -trace 1 it instead
// re-runs the flow from the public functions of each layer, recording a
// span around every layer call, and reports per-layer self times and
// counters.
//
//	perfbench -workload <name> -seed <n> -seconds <s> -trace <0|1>
//
// The last line of standard output is the JSON result. A report with the
// environment and the raw samples is written under reportDir. README.md
// describes the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"ppaclust/internal/flow"
	"ppaclust/internal/par"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// environment is recorded with every result.
type environment struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	NumCPU     int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"` // resolved from flow.Options.Workers = 0
	WorkersEnv string `json:"ppaclust_workers_env"`
	GoVersion  string `json:"go_version"`
	Insts      int    `json:"insts"`
	Nets       int    `json:"nets"`
	Pins       int    `json:"pins"`
	RunSeconds int    `json:"run_seconds"`
}

// report is the file written beside each run: the environment, the result,
// the raw samples behind the medians and, for a traced run, the spans and
// counters.
type report struct {
	Env        environment        `json:"env"`
	Result     result             `json:"result"`
	SetupS     []float64          `json:"setup_s_samples"` // CPU time
	SetupWallS []float64          `json:"setup_wall_s_samples"`
	FlowCPUS   []float64          `json:"flow_cpu_s_samples"`
	FlowS      []float64          `json:"flow_s_samples"` // wall time
	PlaceS     []float64          `json:"place_s_samples"`
	Errors     []string           `json:"errors,omitempty"`
	Quality    map[string]float64 `json:"quality,omitempty"`
	Printed    map[string]metric  `json:"printed,omitempty"`
	Layers     []layerRow         `json:"layers,omitempty"`
	Spans      []span             `json:"spans,omitempty"`
	Counters   map[string]float64 `json:"counters,omitempty"`
}

// reportDir is where each run's report goes, relative to the working
// directory.
const reportDir = ".bench_build/perfbench"

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "repeat the flow until this many seconds have been measured")
	trace := fs.Int("trace", 0, "1 = traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintf(stderr, "perfbench: need -workload one of %s, -seconds >= 1, -trace 0|1\n", workloadNames())
		return 2
	}
	rep := &report{Env: environment{
		Workload: w.name, Seed: *seed, Trace: *trace == 1,
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Workers: par.Workers(0), WorkersEnv: os.Getenv(par.EnvWorkers),
		GoVersion: runtime.Version(), RunSeconds: *seconds,
	}}
	if *trace == 1 {
		err = measureTraced(w, *seed, rep)
	} else {
		err = measure(w, *seed, time.Duration(*seconds)*time.Second, rep)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	printReport(stdout, rep)
	if err := writeReport(reportDir, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// Set-up repeats at least minSetups times, and keeps repeating while the
// set-ups so far took under setupBudget of wall time, up to maxSetups.
const (
	minSetups   = 3
	maxSetups   = 400
	setupBudget = 3 * time.Second
)

// measure is the untraced run: repeated set-ups, then flow calls until
// budget of wall time has been measured (at least one), every result
// checked.
func measure(w workload, seed int64, budget time.Duration, rep *report) error {
	var in inputs
	var spent time.Duration
	for i := 0; i < minSetups || (spent < setupBudget && i < maxSetups); i++ {
		in = inputs{}
		runtime.GC() // collect the previous set-up outside the timing
		var err error
		t := timed(func() { in, err = w.setup(seed, nil) })
		if err != nil {
			return err
		}
		spent += t.wall
		rep.SetupS = append(rep.SetupS, t.cpu.Seconds())
		rep.SetupWallS = append(rep.SetupWallS, t.wall.Seconds())
	}
	rep.Env.Insts, rep.Env.Nets, rep.Env.Pins = sizeOf(in)
	if err := resetPeakRSS(); err != nil {
		return err
	}

	res := &rep.Result
	var first *fingerprint
	spent = 0
	for res.Attempted == 0 || spent < budget {
		runtime.GC() // collect the previous call's result outside the timing
		r, t, err := w.run(seed, in)
		spent += t.wall
		res.Attempted++
		if err == nil {
			err = checkResult(in.bench, r)
		}
		if err == nil {
			fp := fingerprintOf(r)
			if first == nil {
				first = &fp
				rep.Quality = quality(r, fp.IllegalCells)
			} else if fp != *first {
				err = fmt.Errorf("repetition %d fingerprint %+v differs from the first %+v", res.Attempted, fp, *first)
			}
		}
		if err != nil {
			res.Failed++
			rep.Errors = append(rep.Errors, err.Error())
			break
		}
		rep.FlowCPUS = append(rep.FlowCPUS, t.cpu.Seconds())
		rep.FlowS = append(rep.FlowS, t.wall.Seconds())
		rep.PlaceS = append(rep.PlaceS, r.PlaceTime.Seconds())
	}
	res.Correct = res.Failed == 0
	if first == nil {
		res.Metrics = map[string]metric{}
		return nil
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	values := map[string]float64{
		"flow_cpu_s":  median(rep.FlowCPUS),
		"setup_s":     median(rep.SetupS),
		"peak_rss_mb": rss,
		"flow_s":      median(rep.FlowS),
		"place_s":     median(rep.PlaceS),
	}
	for k, v := range rep.Quality {
		values[k] = v
	}
	res.Metrics = pick(endToEnd, values)
	rep.Printed = pick(alsoPrinted, values)
	return nil
}

type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics, in report order. The times are
// CPU times: wall time moves with the time the host steals from the VM,
// CPU time does not (README.md).
var endToEnd = []metricDef{
	{"flow_cpu_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"hpwl_um", "um"},
	{"routed_wl_um", "um"},
	{"power_mw", "mW"},
}

// alsoPrinted are figures every untraced run prints and writes to its
// report without making them benchmark metrics: across runs or seeds they
// spread wider than any bound, or they are 0 (README.md). The traced run
// reports them as flow.wall_s, flow.place_time_s, sta.wns_ps, sta.tns_ns,
// route.overflow and place.illegal_cells.
var alsoPrinted = []metricDef{
	{"flow_s", "s"},
	{"place_s", "s"},
	{"wns_ps", "ps"},
	{"tns_ns", "ns"},
	{"route_overflow", "count"},
	{"illegal_cells", "count"},
}

func quality(r *flow.Result, illegal int) map[string]float64 {
	return map[string]float64{
		"hpwl_um":        r.HPWL,
		"routed_wl_um":   r.RoutedWL,
		"power_mw":       r.Power * 1e3,
		"wns_ps":         r.WNS * 1e12,
		"tns_ns":         r.TNS * 1e9,
		"route_overflow": float64(r.Overflow),
		"illegal_cells":  float64(illegal),
	}
}

// pick returns the listed metrics from values; a missing value is 0.
func pick(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, m := range defs {
		out[m.name] = metric{values[m.name], m.unit}
	}
	return out
}

// layerMetrics are the traced run's metrics, in report order. Span metrics
// (unit s) are self times summed over every span of that name; the rest are
// counters. A layer a workload does not run reports 0.
var layerMetrics = []metricDef{
	{"designs.generate_s", "s"},
	{"gnn.train_s", "s"},
	{"netlist.to_hypergraph_s", "s"},
	{"hier.cluster_s", "s"},
	{"hier.groups", "count"},
	{"sta.top_paths_s", "s"},
	{"sta.paths", "count"},
	{"sta.activity_s", "s"},
	{"cluster.fc_s", "s"},
	{"cluster.clusters", "count"},
	{"cluster.levels", "count"},
	{"vpr.induce_s", "s"},
	{"vpr.best_shape_s", "s"},
	{"vpr.clusters_shaped", "count"},
	{"vpr.candidates", "count"},
	{"vpr.cells_shaped", "count"},
	{"gnn.graph_input_s", "s"},
	{"gnn.predict_s", "s"},
	{"gnn.predictions", "count"},
	{"flow.build_clustered_s", "s"},
	{"place.seed_s", "s"},
	{"place.seed_rounds", "count"},
	{"place.seed_cg_iters", "count"},
	{"place.global_s", "s"},
	{"place.global_rounds", "count"},
	{"place.global_cg_iters", "count"},
	{"place.legalize_s", "s"},
	{"place.legalize_disp_um", "um"},
	{"place.illegal_cells", "count"},
	{"place.detailed_s", "s"},
	{"place.detailed_swaps", "count"},
	{"place.detailed_gain_pct", "%"},
	{"route.global_route_s", "s"},
	{"route.overflow", "count"},
	{"cts.synthesize_s", "s"},
	{"cts.clock_wl_um", "um"},
	{"sta.signoff_s", "s"},
	{"sta.wns_ps", "ps"},
	{"sta.tns_ns", "ns"},
	{"power.analyze_s", "s"},
	{"flow.wall_s", "s"},
	{"flow.place_time_s", "s"},
	{"trace.total_s", "s"},
	{"trace.unattributed_s", "s"},
	{"trace.overhead_s", "s"},
}

// measureTraced is the per-layer run: a traced set-up, one untraced flow
// call as the reference, then the traced replica, whose fingerprint must
// equal the reference's.
func measureTraced(w workload, seed int64, rep *report) error {
	tr := newTracer()
	in, err := w.setup(seed, tr)
	if err != nil {
		return err
	}
	rep.Env.Insts, rep.Env.Nets, rep.Env.Pins = sizeOf(in)
	res := &rep.Result

	runtime.GC()
	ref, t, err := w.run(seed, in)
	res.Attempted++
	if err == nil {
		err = checkResult(in.bench, ref)
	}
	if err != nil {
		res.Failed++
		rep.Errors = append(rep.Errors, err.Error())
		res.Metrics = map[string]metric{}
		return nil
	}
	want := fingerprintOf(ref)
	rep.FlowCPUS = []float64{t.cpu.Seconds()}
	rep.FlowS = []float64{t.wall.Seconds()}
	rep.PlaceS = []float64{ref.PlaceTime.Seconds()}

	runtime.GC()
	got, root, err := w.traced(seed, in, tr)
	res.Attempted++
	if err == nil {
		err = checkResult(in.bench, got)
	}
	if err == nil {
		if fp := fingerprintOf(got); fp != want {
			err = fmt.Errorf("traced fingerprint %+v differs from flow's %+v", fp, want)
		}
	}
	if err != nil {
		res.Failed++
		rep.Errors = append(rep.Errors, err.Error())
	}
	res.Correct = res.Failed == 0

	values := map[string]float64{}
	for _, s := range tr.spans {
		if s.Parent < 0 && s.Name != "flow" { // set-up spans
			values[s.Name+"_s"] += s.dur()
		}
	}
	total := tr.spans[root].dur()
	rep.Layers = tr.layers(root)
	for _, l := range rep.Layers {
		if l.Name == "flow" {
			values["trace.unattributed_s"] = l.Self
		} else {
			values[l.Name+"_s"] += l.Self
		}
	}
	for k, v := range tr.counters {
		values[k] = v
	}
	values["trace.total_s"] = total
	values["trace.overhead_s"] = total - t.wall.Seconds()
	values["flow.wall_s"] = t.wall.Seconds()
	values["flow.place_time_s"] = ref.PlaceTime.Seconds()
	if got != nil {
		values["sta.wns_ps"], values["sta.tns_ns"] = got.WNS*1e12, got.TNS*1e9
	}
	res.Metrics = pick(layerMetrics, values)
	rep.Spans, rep.Counters = tr.spans, tr.counters
	return nil
}

func sizeOf(in inputs) (insts, nets, pins int) {
	d := in.bench.Design
	for _, n := range d.Nets {
		pins += len(n.Pins)
	}
	return len(d.Insts), len(d.Nets), pins
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// resetPeakRSS returns the heap's free pages to the OS and resets the
// process's peak resident set to its current size, so that peakRSSMB
// covers what comes after: the flow calls and the inputs they hold, not
// the set-ups before them.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// printReport writes the human-readable summary: the environment, then the
// end-to-end metrics or the per-layer table.
func printReport(w io.Writer, rep *report) {
	e := rep.Env
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%v nproc=%d GOMAXPROCS=%d workers=%d %s insts=%d nets=%d pins=%d\n",
		e.Workload, e.Seed, e.Trace, e.NumCPU, e.GoMaxProcs, e.Workers, e.GoVersion, e.Insts, e.Nets, e.Pins)
	for _, msg := range rep.Errors {
		fmt.Fprintf(w, "  FAILED: %s\n", msg)
	}
	if !e.Trace {
		fmt.Fprintf(w, "  %d set-up(s), %d flow call(s)\n", len(rep.SetupS), len(rep.FlowS))
		for _, d := range endToEnd {
			if m, ok := rep.Result.Metrics[d.name]; ok {
				fmt.Fprintf(w, "  %-16s %16.6g %s\n", d.name, m.Value, m.Unit)
			}
		}
		for _, d := range alsoPrinted {
			if m, ok := rep.Printed[d.name]; ok {
				fmt.Fprintf(w, "  %-16s %16.6g %s\n", d.name, m.Value, m.Unit)
			}
		}
		return
	}
	if len(rep.Layers) > 0 {
		total := rep.Result.Metrics["trace.total_s"].Value
		fmt.Fprintf(w, "  %-24s %6s %12s %7s\n", "layer (self time)", "calls", "seconds", "share")
		for _, l := range rep.Layers {
			name := l.Name
			if name == "flow" {
				name = "(unattributed)"
			}
			fmt.Fprintf(w, "  %-24s %6d %12.6f %6.2f%%\n", name, l.Calls, l.Self, 100*l.Self/total)
		}
		fmt.Fprintf(w, "  %-24s %6s %12.6f\n", "traced total", "", total)
	}
	for _, n := range []string{"designs.generate_s", "gnn.train_s", "trace.overhead_s"} {
		if m, ok := rep.Result.Metrics[n]; ok {
			fmt.Fprintf(w, "  %-24s %19.6f %s\n", n, m.Value, m.Unit)
		}
	}
	for _, m := range layerMetrics {
		if mv, ok := rep.Result.Metrics[m.name]; ok && m.unit != "s" {
			fmt.Fprintf(w, "  %-24s %19.6g %s\n", m.name, mv.Value, m.unit)
		}
	}
}

func writeReport(dir string, rep *report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	suffix := ""
	if rep.Env.Trace {
		suffix = "-trace"
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d%s.json", rep.Env.Workload, rep.Env.Seed, suffix))
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
