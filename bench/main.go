// Command bench is the repository's benchmark: eight named workloads
// driven through the public entry points of the stack (engine.Engine,
// fleet.Fleet), end-to-end metrics with latency tails measured on the
// host that runs it, and — with -trace 1 — a per-layer ladder from the GF
// kernels up to the fleet. Every returned block is verified. README.md in
// this directory is the glossary; BENCHMARK.json at the repository root
// is the contract the numbers are gated by.
//
//	go run ./bench -seed 1                        every workload, end to end
//	go run ./bench -seed 1 -trace 1               every workload, per layer
//	go run ./bench -workload read_clean -seed 7   one workload; last line is JSON
//	go run ./bench -seed 1 -out a.json            also write the full report
//	go run ./bench -compare a.json b.json         gate b against a
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// maxClients caps the closed loop: C = min(NumCPU, maxClients), so a
// bigger host does not silently change the workload.
const maxClients = 4

// defaultSeconds is one run's measurement time, BENCHMARK.json's
// run_seconds.
const defaultSeconds = 10

// options are the command-line settings of a measuring invocation.
type options struct {
	seed     uint64
	seconds  int
	trace    bool
	quick    bool
	traceDir string // where -trace 1 writes its span files
}

func clientCount() int {
	if n := runtime.NumCPU(); n < maxClients {
		return n
	}
	return maxClients
}

// plan turns the options into the load model: a one-second warm-up and
// -seconds of measurement, or half a second with -quick (same code paths,
// for the package's own test).
func (o options) plan() plan {
	p := plan{
		seed: o.seed, clients: clientCount(),
		warmup: time.Second, measure: time.Duration(o.seconds) * time.Second, setups: 12,
	}
	if o.quick {
		p.warmup, p.measure, p.setups = 100*time.Millisecond, 500*time.Millisecond, 1
	}
	return p
}

// report is the file -out writes and -compare reads.
type report struct {
	Host      hostInfo         `json:"host"`
	Seed      uint64           `json:"seed"`
	Seconds   int              `json:"seconds"`
	Trace     bool             `json:"trace"`
	Workloads []workloadReport `json:"workloads"`
}

type hostInfo struct {
	GoVersion  string `json:"go_version"`
	GoArch     string `json:"go_arch"`
	HostNumCPU int    `json:"host_num_cpu"`
	Clients    int    `json:"clients"`
	EngineGeom string `json:"engine_geometry"`
	FleetGeom  string `json:"fleet_geometry"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type workloadReport struct {
	Name           string                 `json:"name"`
	StreamDigest   string                 `json:"stream_digest"`
	Attempted      int64                  `json:"attempted"`
	Failed         int64                  `json:"failed"`
	FailedOpsRatio float64                `json:"failed_ops_ratio"`
	Metrics        map[string]metricValue `json:"metrics"`
	Notes          []string               `json:"notes,omitempty"`
}

func host() hostInfo {
	return hostInfo{
		GoVersion: runtime.Version(), GoArch: runtime.GOARCH,
		HostNumCPU: runtime.NumCPU(), Clients: clientCount(),
		EngineGeom: fmt.Sprintf("%dx%dx%dB", engBanks, engRowsPerBank, engRowBytes),
		FleetGeom:  fmt.Sprintf("%dx(%dx%dx%dB)", fleetRanks, fleetBanks, fleetRowsPerBank, fleetRowBytes),
	}
}

func newWorkloadReport(w *workload, res *result) workloadReport {
	return workloadReport{
		Name: w.name, StreamDigest: res.digest,
		Attempted: res.tally.attempted, Failed: res.tally.failed,
		FailedOpsRatio: res.tally.failedOpsRatio(),
		Metrics:        map[string]metricValue{},
	}
}

// measure runs one workload, traced or not, under GOMAXPROCS = C.
func measure(w *workload, o options) (workloadReport, error) {
	p := o.plan()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p.clients))
	if o.trace {
		return traceWorkload(w, o, p)
	}
	res, err := w.run(p)
	if err != nil {
		return workloadReport{}, fmt.Errorf("%s: %w", w.name, err)
	}
	rep := newWorkloadReport(w, res)
	for _, m := range endToEnd {
		rep.Metrics[m.name] = metricValue{Value: res.metrics[m.name], Unit: m.unit}
	}
	for _, m := range tails {
		note := fmt.Sprintf("%s=%.1f (ungated; listed with the per-layer metrics)", m.name, res.metrics[m.name])
		if q, ok := res.tailUsed[m.name]; ok {
			note += fmt.Sprintf(", quantile %.4f: too few samples for 0.99", q)
		}
		rep.Notes = append(rep.Notes, note)
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("latency_samples=%d undisturbed_share=%.3f", res.samples, res.undisturbed))
	return rep, nil
}

func printWorkload(rep workloadReport, defs []metricDef) {
	fmt.Printf("== %s  stream_digest=%s  attempted=%d failed=%d failed_ops_ratio=%g\n",
		rep.Name, rep.StreamDigest, rep.Attempted, rep.Failed, rep.FailedOpsRatio)
	for _, m := range defs {
		fmt.Printf("   %-34s %16.4f %s\n", m.name, rep.Metrics[m.name].Value, m.unit)
	}
	for _, n := range rep.Notes {
		fmt.Printf("   note: %s\n", n)
	}
}

func run() int {
	var o options
	flag.Uint64Var(&o.seed, "seed", 1, "seed of every op stream, ownership map and injected fault")
	name := flag.String("workload", "", "run only this workload and print the result as one JSON object on the last line")
	flag.IntVar(&o.seconds, "seconds", defaultSeconds, "measurement seconds per workload")
	trace := flag.Int("trace", 0, "1: report the per-layer metrics (traced ladder) in place of the end-to-end ones")
	flag.BoolVar(&o.quick, "quick", false, "two 0.25 s intervals per workload; same code paths, numbers not comparable")
	flag.StringVar(&o.traceDir, "tracedir", "bench/out", "directory the traced run writes its span files to")
	out := flag.String("out", "", "also write the full report to this file")
	compare := flag.Bool("compare", false, "compare two report files: bench -compare a.json b.json")
	contractPath := flag.String("contract", "BENCHMARK.json", "the contract file -compare takes directions and bounds from")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two report files")
			return 2
		}
		return compareReports(*contractPath, flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	if flag.NArg() != 0 || o.seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments; see -h")
		return 2
	}
	o.trace = *trace == 1

	selected := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{*w}
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	full := report{Host: host(), Seed: o.seed, Seconds: o.seconds, Trace: o.trace}
	fmt.Printf("bench: %+v seed=%d seconds=%d trace=%v quick=%v\n", full.Host, o.seed, o.seconds, o.trace, o.quick)
	status := 0
	for i := range selected {
		rep, err := measure(&selected[i], o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		printWorkload(rep, defs)
		if (tally{rep.Attempted, rep.Failed}).exitStatus() != 0 {
			status = 1
		}
		full.Workloads = append(full.Workloads, rep)
	}
	if *out != "" {
		buf, err := json.MarshalIndent(full, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if *name != "" {
		// The driver's contract: the last line of standard output is one
		// JSON object with exactly these four keys.
		rep := full.Workloads[0]
		line, err := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int64                  `json:"attempted"`
			Failed    int64                  `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{status == 0, rep.Attempted, rep.Failed, rep.Metrics})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(line))
	}
	return status
}

func main() { os.Exit(run()) }
