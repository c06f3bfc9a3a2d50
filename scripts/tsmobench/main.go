// Command tsmobench is the repository's benchmark. Four workloads stress
// the search kernel (seq-r1-400), the asynchronous runtime (async-r2-400),
// daemon submissions (svc-submit-400) and live instance mutations
// (svc-mutate-400). An untraced run prints the end-to-end metrics; a traced
// run (-trace 1) records spans and telemetry and prints the per-layer
// metrics. Every run checks the program's outputs and ends its standard
// output with one JSON result line.
//
//	bash scripts/tsmobench/run.sh --workload seq-r1-400 --seed 1 --seconds 15 --trace 0
//
// README.md describes the workloads, the metrics and how to read them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"

	"repro/internal/trace"
)

// options are one invocation's settings.
type options struct {
	seed   uint64
	sc     scale
	traced bool
	out    string
}

// result is the final line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "all", "workload to run: "+fmt.Sprint(workloadNames)+" or all")
	seed := flag.Uint64("seed", 1, "seed every input of the workload is generated from")
	seconds := flag.Float64("seconds", 15, "measurement window of each workload's load, in seconds")
	traced := flag.Int("trace", 0, "1 records spans and telemetry and reports the per-layer metrics")
	flag.Parse()
	names := workloadNames
	if *workload != "all" {
		names = []string{*workload}
	}
	if !known(names) || (*traced != 0 && *traced != 1) || *seconds <= 0 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	fmt.Printf("tsmobench nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())

	o := options{seed: *seed, sc: fullScale(*seconds), traced: *traced == 1, out: ".bench_build"}
	code := 0
	for _, name := range names {
		b, err := runWorkload(context.Background(), name, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tsmobench: %s: %v\n", name, err)
			os.Exit(1)
		}
		res := b.result()
		b.print()
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tsmobench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		if b.failed > 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func known(names []string) bool {
	for _, n := range names {
		if !slices.Contains(workloadNames, n) {
			return false
		}
	}
	return true
}

// commit is the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+modified"
			}
		}
	}
	return rev + dirty
}

// runWorkload runs one workload: set-up and load, and in a traced run the
// per-layer measurements and the export of the spans it recorded.
func runWorkload(ctx context.Context, name string, o options) (*bench, error) {
	b := &bench{name: name, seed: o.seed, sc: o.sc, traced: o.traced, out: o.out}
	if b.traced {
		b.tr = trace.New(1 << 16)
		b.root = b.tr.Start(nil, "tsmobench").SetAttr("workload", name).SetInt("seed", int64(o.seed))
	}
	runtime.GC() // every workload's set-up starts from a collected heap
	var err error
	switch name {
	case wSeq:
		err = b.runSeq(ctx)
	case wAsync:
		err = b.runAsyncWorkload(ctx)
	case wSubmit:
		err = b.runSubmitWorkload(ctx)
	case wMutate:
		err = b.runMutateWorkload(ctx)
	default:
		err = fmt.Errorf("unknown workload %q", name)
	}
	if err == nil && b.traced {
		err = b.traceLayers(ctx)
	}
	if b.traced {
		b.root.End()
		if xerr := os.MkdirAll(filepath.Dir(b.tracePath()), 0o755); xerr != nil && err == nil {
			err = xerr
		} else if xerr = trace.ExportFile(b.tracePath(), "tsmobench", b.tr); xerr != nil && err == nil {
			err = xerr
		}
	}
	os.RemoveAll(b.scratch())
	return b, err
}

// tracePath is where a traced run exports its spans as OTLP/JSON.
func (b *bench) tracePath() string {
	return filepath.Join(b.out, "traces", fmt.Sprintf("%s-seed%d.otlp.json", b.name, b.seed))
}

// result builds the run's result line: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one. A metric that could
// not be measured fails the run instead of being reported.
func (b *bench) result() result {
	r := b.e2e
	if b.traced {
		r = b.layers
	}
	out := result{Metrics: make(map[string]metric, len(r.m))}
	for name, m := range r.m {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			b.fail("metric %s was not measured", name)
			continue
		}
		out.Metrics[name] = m
	}
	out.Attempted, out.Failed, out.Correct = b.attempted, b.failed, b.failed == 0
	return out
}

// print writes the run's metrics as readable lines: the end-to-end ones,
// the workload-specific extras, the per-layer ones of a traced run (whose
// end-to-end numbers are informational: the instruments are on), and any
// failed checks.
func (b *bench) print() {
	mode := "untraced"
	if b.traced {
		mode = "traced"
	}
	fmt.Printf("workload %s seed=%d box=%v %s\n", b.name, b.seed, b.sc.Box, mode)
	for _, r := range []*report{&b.e2e, &b.info, &b.layers} {
		for _, n := range r.names {
			fmt.Printf("  %-34s %16.6g %s\n", n, r.m[n].Value, r.m[n].Unit)
		}
	}
	if b.digest != "" {
		fmt.Printf("  front_digest %s\n", b.digest)
	}
	if b.traced {
		fmt.Printf("  spans exported to %s\n", b.tracePath())
	}
	notes := append([]string(nil), b.notes...)
	sort.Strings(notes)
	for _, n := range notes {
		fmt.Printf("  FAILED %s\n", n)
	}
	fmt.Printf("  attempted=%d failed=%d at %s\n", b.attempted, b.failed, time.Now().UTC().Format(time.RFC3339))
}
