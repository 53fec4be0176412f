// Command bench is the MathCloud benchmark: one harness that builds the
// shipped everest and mcgw binaries, launches them as child processes on
// loopback sockets, drives them through internal/client from closed-loop
// clients, verifies every output and prints every metric by name with its
// unit.  README.md explains the workloads, the metrics and how they are
// expected to interact; BENCHMARK.json at the repository root is the
// contract a driver runs it under.
//
//	go run -C bench mathcloud/bench                          # the whole suite
//	go run -C bench mathcloud/bench -workload gw_small       # one workload
//	go run -C bench mathcloud/bench -trace 1                 # plus the layer table
//	go run -C bench mathcloud/bench -repeat 5 -check         # steadiness check
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	repeat   int
	check    bool
}

// environment is the block of result.json that says where and how the
// numbers were taken.
type environment struct {
	GitSHA     string  `json:"git_sha"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Kernel     string  `json:"kernel"`
	Seed       int64   `json:"seed"`
	Seconds    int     `json:"seconds"`
	WarmupS    float64 `json:"warmup_s"`
	Trace      int     `json:"trace"`
	Repeat     int     `json:"repeat"`
	BuildS     float64 `json:"build_s"`
}

// report is the schema of out/result.json.
type report struct {
	Environment environment  `json:"environment"`
	Runs        [][]*result  `json:"runs"` // one list of workload results per repetition
	Summary     []summaryRow `json:"summary,omitempty"`
	Trace       *traceReport `json:"trace,omitempty"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&o.seconds, "seconds", 12, "measured window per workload, in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 adds the traced run and reports the per-layer metrics")
	flag.IntVar(&o.repeat, "repeat", 1, "run the suite this many times, each with the next seed")
	flag.BoolVar(&o.check, "check", false, "exit non-zero when an end-to-end metric spreads beyond its bound over the repetitions")
	flag.Parse()
	os.Exit(run(o))
}

// run is main without os.Exit, so that deferred clean-up happens.
func run(o options) int {
	if o.seconds < 1 || o.repeat < 1 || (o.trace != 0 && o.trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: want -seconds >= 1, -repeat >= 1, -trace 0 or 1, and no other arguments")
		return 2
	}
	var single *workload
	if o.workload != "all" {
		if single = findWorkload(o.workload); single == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
			return 2
		}
	}
	h, err := newHarness()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer h.cleanup()
	// A signal kills the children, removes the scratch directory and exits;
	// the deferred clean-up above covers returns and panics of this
	// goroutine, and Pdeathsig covers everything else.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		<-sig
		h.cleanup()
		os.Exit(130)
	}()
	ctx := context.Background()

	rep := &report{Environment: environment{
		GitSHA: gitSHA(h.root), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Kernel: kernelRelease(), Seed: o.seed, Seconds: o.seconds,
		WarmupS: warmup.Seconds(), Trace: o.trace, Repeat: o.repeat, BuildS: h.buildS,
	}}
	fmt.Printf("# build_s %.3f (go build ./cmd/everest ./cmd/mcgw; not part of setup_s)\n", h.buildS)

	var spans []span
	code := 0
	if single != nil {
		res, err := runSingle(ctx, h, single, o, rep, &spans)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		defer func() {
			if code == 0 {
				printContractLine(res, o.trace) // the last line of standard output
			}
		}()
	} else {
		if code, err = runSuite(ctx, h, o, rep, &spans); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if err := writeOutputs(h.root, rep, spans); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		code = 1
	}
	return code
}

// runSingle is the driver's mode: one workload, one result line.  With
// -trace 1 the window is halved, the workload it is compared with runs for
// a quarter, and the rest of the time goes to the traced run, so a traced
// run costs about what an untraced one does.
func runSingle(ctx context.Context, h *harness, wl *workload, o options, rep *report, spans *[]span) (*result, error) {
	window, warm := time.Duration(o.seconds)*time.Second, warmup
	results := map[string]*result{}
	if o.trace == 1 {
		window /= 2
		warm /= 2
		if cmp, ok := comparedWith[wl.Name]; ok {
			base, err := h.runWorkload(ctx, findWorkload(cmp.base), o.seed, warm, window/2)
			if err != nil {
				return nil, err
			}
			results[cmp.base] = base
		}
	}
	res, err := h.runWorkload(ctx, wl, o.seed, warm, window)
	if err != nil {
		return nil, err
	}
	results[wl.Name] = res
	derive(results)
	if o.trace == 1 {
		tr, err := runTrace(ctx, h, singleTraceIters, spans)
		if err != nil {
			return nil, err
		}
		rep.Trace = tr
		for name, v := range tr.metrics() {
			res.set(name, v)
		}
		printLayerTable(tr.Rows)
	}
	printResult(res)
	rep.Runs = [][]*result{{res}}
	return res, nil
}

// runSuite runs every workload, -repeat times, and with -trace 1 the traced
// run once at the end.
func runSuite(ctx context.Context, h *harness, o options, rep *report, spans *[]span) (int, error) {
	window := time.Duration(o.seconds) * time.Second
	for i := 0; i < o.repeat; i++ {
		results := map[string]*result{}
		var list []*result
		for w := range workloads {
			res, err := h.runWorkload(ctx, &workloads[w], o.seed+int64(i), warmup, window)
			if err != nil {
				return 1, err
			}
			results[res.Workload] = res
			list = append(list, res)
		}
		derive(results)
		for _, res := range list {
			printResult(res)
		}
		rep.Runs = append(rep.Runs, list)
	}
	if o.trace == 1 {
		tr, err := runTrace(ctx, h, suiteTraceIters, spans)
		if err != nil {
			return 1, err
		}
		rep.Trace = tr
		printLayerTable(tr.Rows)
		metrics := tr.metrics()
		for _, m := range perLayer {
			if v, ok := metrics[m.Name]; ok {
				fmt.Printf("trace/%s %s %s\n", m.Name, formatValue(v), m.Unit)
			}
		}
	}
	code := 0
	for _, list := range rep.Runs {
		for _, res := range list {
			if !res.correct() {
				code = 1
			}
		}
	}
	if o.repeat > 1 {
		rep.Summary = summarize(rep.Runs)
		if !printSummary(rep.Summary) && o.check {
			code = 1
		}
	}
	return code, nil
}

// runTrace runs the in-process traced run and hands back its spans, which
// are written out only when the benchmark ends.
func runTrace(ctx context.Context, h *harness, iters int, spans *[]span) (*traceReport, error) {
	t, err := newTracer(filepath.Join(h.runDir, "trace"))
	if err != nil {
		return nil, err
	}
	defer t.close()
	tr, err := t.run(ctx, iters)
	if err != nil {
		return nil, err
	}
	*spans = t.rec.spans
	return tr, nil
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func unitOf(name string) string {
	for _, list := range [][]metricSpec{endToEnd, perLayer, extraMetrics} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return "?"
}

// printResult writes one workload's counts and metrics as "name value unit"
// lines, the name qualified by the workload.
func printResult(r *result) {
	fmt.Printf("# workload %s: %s\n", r.Workload, r.Why)
	fmt.Printf("# %s seed=%d clients=%d warmup_s=%g window_s=%.3f attempted=%d succeeded=%d failed=%d jobs=%d client.cycle_p90_ms_reported_at=p%g\n",
		r.Workload, r.Seed, r.Clients, r.WarmupS, r.WindowS, r.Attempted, r.Succeeded, r.Failed, r.Jobs, r.TailPercentile)
	for _, p := range r.Problems {
		fmt.Printf("# %s PROBLEM: %s\n", r.Workload, p)
	}
	for _, name := range r.sortedMetricNames() {
		m := r.Metrics[name]
		fmt.Printf("%s/%s %s %s\n", r.Workload, name, formatValue(m.Value), m.Unit)
	}
}

// printContractLine prints the one JSON object a driver reads: the
// end-to-end metrics with -trace 0, the per-layer metrics with -trace 1.
func printContractLine(r *result, trace int) {
	specs := endToEnd
	if trace == 1 {
		specs = perLayer
	}
	metrics := make(map[string]metricValue, len(specs))
	for _, m := range specs {
		metrics[m.Name] = metricValue{Value: r.value(m.Name), Unit: m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": r.correct(), "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Println(string(line))
}

// summaryRow is one metric of one workload over the repetitions.
type summaryRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Min      float64 `json:"min"`
	Median   float64 `json:"median"`
	Max      float64 `json:"max"`
	// Spread is the interquartile distance over the median, as the driver
	// computes it; Bound is the metric's regression bound (0: not gated).
	Spread float64 `json:"spread"`
	Bound  float64 `json:"bound,omitempty"`
}

func summarize(runs [][]*result) []summaryRow {
	var rows []summaryRow
	for w := range runs[0] {
		first := runs[0][w]
		for _, name := range first.sortedMetricNames() {
			var vals []float64
			for _, list := range runs {
				vals = append(vals, list[w].value(name))
			}
			sorted := sortedCopy(vals)
			row := summaryRow{Workload: first.Workload, Metric: name, Unit: first.Metrics[name].Unit,
				Min: sorted[0], Median: median(vals), Max: sorted[len(sorted)-1], Spread: quartileSpread(vals)}
			for _, m := range endToEnd {
				if m.Name == name {
					row.Bound = m.Bound
				}
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// printSummary prints min/median/max per metric and reports whether every
// gated metric but setup_s (which the driver gates on medians only) stayed
// within its bound.
func printSummary(rows []summaryRow) bool {
	ok := true
	fmt.Printf("# %-14s %-30s %12s %12s %12s %8s %6s\n", "workload", "metric", "min", "median", "max", "spread", "bound")
	for _, r := range rows {
		mark := ""
		if r.Bound > 0 && r.Metric != "setup_s" && r.Spread > r.Bound {
			mark = "  EXCEEDS BOUND"
			ok = false
		}
		bound := ""
		if r.Bound > 0 {
			bound = formatValue(r.Bound)
		}
		fmt.Printf("# %-14s %-30s %12.5g %12.5g %12.5g %8.4f %6s%s\n", r.Workload, r.Metric, r.Min, r.Median, r.Max, r.Spread, bound, mark)
	}
	return ok
}

// writeOutputs writes out/result.json and, after a traced run,
// out/trace.json, next to the benchmark's sources.
func writeOutputs(root string, rep *report, spans []span) error {
	dir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(dir, "result.json"), rep); err != nil {
		return err
	}
	if spans == nil {
		return nil
	}
	return writeJSON(filepath.Join(dir, "trace.json"), spans)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func gitSHA(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown" // a driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

func kernelRelease() string {
	data, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}
