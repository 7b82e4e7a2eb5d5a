// Command perfbench is the repository benchmark: it runs the real serving
// stack in one process (serve.Server behind its HTTP handler, and for
// serve_churn a shard.Router in front of one shard), drives it from outside
// through its public HTTP surface, checks every answer against a direct
// library solve, and prints one JSON result line.
//
//	go run . --workload solve_cold --seed 1 --seconds 12 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 the
// run replays sampled requests one layer deeper at a time and reports the
// per-layer metrics instead (see trace.go). README.md lists the workloads,
// the metrics and which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sizes    sizes
	outDir   string // where the full record and the span file are written
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 12, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	scale := fs.String("scale", "full", "input scale: full | tiny (tiny is for the benchmark's own tests)")
	out := fs.String("out", ".bench_build/perfbench", "directory for the full record and the span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *out}
	switch *scale {
	case "full":
		cfg.sizes = fullSizes
	case "tiny":
		cfg.sizes = tinySizes
	default:
		fmt.Fprintf(stderr, "perfbench: unknown -scale %q\n", *scale)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	res, err := runBench(cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := writeRecord(cfg, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	samples := make(map[string]int, len(res.Metrics))
	for k, m := range res.Metrics {
		samples[k] = m.Samples
	}
	fmt.Fprintf(stdout, "# env %s\n# samples %s\n", mustJSON(res.Env), mustJSON(samples))
	fmt.Fprintln(stdout, mustJSON(res.line()))
	return 0
}

// metric is one reported number: its value, unit and the sample count it
// was computed from.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// env stamps a result with what it was measured on.
type env struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	// LatenessP90Ms is the p90 of (actual − scheduled) send time of the
	// open-loop generator; LatenessLimitMs the bound beyond which the run
	// is invalid rather than reported.
	LatenessP90Ms   float64 `json:"lateness_p90_ms"`
	LatenessLimitMs float64 `json:"lateness_limit_ms"`
}

// result is a finished run.
type result struct {
	Env       env               `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// OpenLoopByType breaks the open loop's latencies down by the metric
	// each request feeds: its median and sample count.
	OpenLoopByType map[string]metric `json:"open_loop_by_type,omitempty"`
}

// line is the result printed last: exactly correct, attempted, failed
// and metrics, each metric as {value, unit}. The sample counts are printed
// on the "# samples" line before it and kept in the full record.
func (r *result) line() any {
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]vu, len(r.Metrics))
	for k, m := range r.Metrics {
		ms[k] = vu{m.Value, m.Unit}
	}
	return struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]vu `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms}
}

func newEnv(cfg config) env {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return env{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
	}
}

func runBench(cfg config, stdout io.Writer) (*result, error) {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (valid: %s)", cfg.workload, workloadNames())
	}
	if cfg.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	if cfg.trace {
		return runTraced(cfg, wl, stdout)
	}
	return runTimed(cfg, wl)
}

func writeRecord(cfg config, res *result) error {
	if cfg.outDir == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return fmt.Errorf("creating output directory: %w", err)
	}
	mode := "timed"
	if cfg.trace {
		mode = "traced"
	}
	name := fmt.Sprintf("%s-seed%d-%s.json", cfg.workload, cfg.seed, mode)
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, name), append(data, '\n'), 0o644)
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps of numbers are encoded
	}
	return string(b)
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// quantile is the linearly interpolated q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// quantileOf sorts a copy of xs and returns its q-quantile.
func quantileOf(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, q)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
