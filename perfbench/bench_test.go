package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var endToEnd = map[string]string{
	"setup_s":          "s",
	"ops_per_s":        "1/s",
	"latency_p50_ms":   "ms",
	"latency_p90_ms":   "ms",
	"popular_p50_ms":   "ms",
	"maxcard_p50_ms":   "ms",
	"ties_p50_ms":      "ms",
	"upload_p50_ms":    "ms",
	"mutate_p50_ms":    "ms",
	"retained_heap_mb": "MiB",
}

// benchmarkJSON reads the metric names and units BENCHMARK.json declares.
func benchmarkJSON(t *testing.T) (e2e, layers map[string]string, names []string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		layers[m.Name] = m.Unit
	}
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	return e2e, layers, names
}

// runTiny runs one workload at tiny scale through the command's entry
// point and returns its last output line, decoded, and the whole output.
func runTiny(t *testing.T, workload string, seed int64, trace bool) (map[string]any, string) {
	t.Helper()
	args := []string{"--workload", workload, "--seed", itoa(seed), "--seconds", "1", "--scale", "tiny", "--out", t.TempDir()}
	if trace {
		args = append(args, "--trace", "1")
	}
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("%s: exit %d: %s", workload, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", workload, err)
	}
	return res, out.String()
}

func itoa(n int64) string {
	b, _ := json.Marshal(n)
	return string(b)
}

// checkResult requires exactly the result line's keys, a correct run with no
// failed operation, and every wanted metric with its unit.
func checkResult(t *testing.T, label string, res map[string]any, want map[string]string) {
	t.Helper()
	if len(res) != 4 {
		t.Errorf("%s: result has keys %v, want correct, attempted, failed, metrics", label, res)
	}
	if res["correct"] != true || res["failed"] != float64(0) {
		t.Errorf("%s: correct=%v failed=%v", label, res["correct"], res["failed"])
	}
	if a, _ := res["attempted"].(float64); a < 1 {
		t.Errorf("%s: attempted=%v", label, res["attempted"])
	}
	metrics, _ := res["metrics"].(map[string]any)
	if len(metrics) != len(want) {
		t.Errorf("%s: %d metrics, want %d", label, len(metrics), len(want))
	}
	for name, unit := range want {
		m, ok := metrics[name].(map[string]any)
		if !ok {
			t.Errorf("%s: metric %s missing", label, name)
			continue
		}
		if m["unit"] != unit {
			t.Errorf("%s: %s unit %v, want %s", label, name, m["unit"], unit)
		}
		if _, ok := m["value"].(float64); !ok {
			t.Errorf("%s: %s value %v", label, name, m["value"])
		}
	}
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	e2e, _, names := benchmarkJSON(t)
	if len(e2e) != len(endToEnd) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the program reports %d", len(e2e), len(endToEnd))
	}
	for name, unit := range endToEnd {
		if e2e[name] != unit {
			t.Errorf("end-to-end %s: BENCHMARK.json unit %q, program %q", name, e2e[name], unit)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the program has %s", names, workloadNames())
	}
	for _, n := range names {
		if workloads[n] == nil {
			t.Errorf("workload %s unknown to the program", n)
		}
	}
}

// TestTinyRuns runs every workload at tiny scale, at the committed seed and
// at a held-out one, and requires the same full metric set and zero failed
// operations both times.
func TestTinyRuns(t *testing.T) {
	for _, seed := range []int64{1, 977} {
		for name := range workloads {
			res, _ := runTiny(t, name, seed, false)
			checkResult(t, name+"/seed"+itoa(seed), res, endToEnd)
		}
	}
}

// TestTracedRun requires every per-layer metric, a span file, and a
// self-time table that prints its residual against client latency.
func TestTracedRun(t *testing.T) {
	_, layers, _ := benchmarkJSON(t)
	for name := range workloads {
		res, out := runTiny(t, name, 3, true)
		checkResult(t, name+"/traced", res, layers)
		if !strings.Contains(out, "# self time,") || !strings.Contains(out, "residual") {
			t.Errorf("%s: no self-time table with a residual in the output:\n%s", name, out)
		}
		var spans string
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, "# spans ") {
				spans = l[strings.LastIndex(l, " ")+1:]
			}
		}
		data, err := os.ReadFile(spans)
		if err != nil {
			t.Fatalf("%s: span file: %v", name, err)
		}
		first := strings.SplitN(string(data), "\n", 2)[0]
		var s span
		if err := json.Unmarshal([]byte(first), &s); err != nil || s.ID == 0 || s.Name == "" {
			t.Errorf("%s: first span %q does not decode (%v)", name, first, err)
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nope", "--scale", "tiny"}, &out, &errb); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
	if out.Len() != 0 {
		t.Fatalf("unknown workload printed a result: %s", out.String())
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := quantileOf(xs, 0.5); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantileOf(xs, 0.9); got < 3.6 || got > 3.8 {
		t.Errorf("p90 = %v, want 3.7", got)
	}
}
