package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// setupRepeats is how many times a timed run builds its stack; setup_s is
// the median, and the last stack is the one measured.
const setupRepeats = 5

// segments is how many closed-loop and open-loop segments a timed run
// alternates.
const segments = 4

// sample is one answered request's latency.
type sample struct {
	metric string // per-type p50 metric it feeds ("" for none)
	lat    time.Duration
}

// loopStats collects one load phase.
type loopStats struct {
	samples  []sample
	cycleDur []time.Duration // per cycle wall time (closed loop)
	cycleOps []int
	late     []time.Duration // per cycle actual − scheduled start (open loop)
}

// runCycle sends one cycle's steps. base is the scheduled send time of the
// first step (zero in a closed loop: timed from the actual send); later
// steps are timed from their own send, which is when the previous step's
// replies arrived. Failed requests are counted by the checker and left out
// of the latency samples.
func (w *world) runCycle(st *stack, steps [][]*op, base time.Time, ls *loopStats) int {
	ops := 0
	for i, step := range steps {
		from := time.Now()
		if i == 0 && !base.IsZero() {
			from = base
		}
		lats := make([]time.Duration, len(step))
		oks := make([]bool, len(step))
		if lanes() == 1 || len(step) == 1 {
			for j, o := range step {
				lats[j], oks[j] = w.exec(st, o, from)
			}
		} else {
			var wg sync.WaitGroup
			for j, o := range step[1:] {
				wg.Add(1)
				go func() {
					defer wg.Done()
					lats[j+1], oks[j+1] = w.exec(st, o, from)
				}()
			}
			lats[0], oks[0] = w.exec(st, step[0], from)
			wg.Wait()
		}
		for j, o := range step {
			ops++
			if oks[j] && ls != nil {
				ls.samples = append(ls.samples, sample{metric: o.metricName(), lat: lats[j]})
			}
		}
	}
	return ops
}

// exec sends one op and checks its reply; the latency ends when the reply
// body has been read, before the check.
func (w *world) exec(st *stack, o *op, from time.Time) (time.Duration, bool) {
	method, path, ctype, body := o.request()
	sent := time.Now()
	status, data, end, err := st.call(st.front, method, path, ctype, body)
	if w.tr != nil {
		w.tr.add("traffic", "client."+o.kind.String(), w.tr.newReq(), 0, sent, end)
	}
	return end.Sub(from), w.chk.check(o, status, data, err)
}

// warmup runs untimed cycles; the replies are still checked.
func (w *world) warmup(st *stack, cycles int) {
	for i := 0; i < cycles; i++ {
		w.runCycle(st, w.nextCycle(), time.Time{}, nil)
	}
}

// closedLoop sends cycle after cycle for d, adding to ls.
func (w *world) closedLoop(st *stack, d time.Duration, ls *loopStats) *loopStats {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		t0 := time.Now()
		n := w.runCycle(st, w.nextCycle(), time.Time{}, ls)
		ls.cycleDur = append(ls.cycleDur, time.Since(t0))
		ls.cycleOps = append(ls.cycleOps, n)
	}
	return ls
}

// openLoop starts a cycle every 1/rate seconds for d, whether or not the
// previous cycle has finished: a late cycle starts as soon as the lanes are
// free and its first requests are timed from when they were due. It adds
// to ls.
func (w *world) openLoop(st *stack, d time.Duration, rate float64, ls *loopStats) *loopStats {
	interval := time.Duration(float64(time.Second) / rate)
	t0 := time.Now()
	for k := 0; ; k++ {
		due := t0.Add(time.Duration(k) * interval)
		if due.Sub(t0) >= d {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		ls.late = append(ls.late, time.Since(due))
		w.runCycle(st, w.nextCycle(), due, ls)
	}
	return ls
}

// latenessLimit is the generator lateness beyond which an open-loop run is
// invalid: a tenth of the interval between cycles, at least 2ms.
func latenessLimit(rate float64) time.Duration {
	return max(2*time.Millisecond, time.Duration(float64(time.Second)/rate/10))
}

// buildStack starts a stack and runs the workload's set-up and one warm-up
// cycle on it.
func (w *world) buildStack() (*stack, error) {
	st, err := newStack(w.wl.router, lanes())
	if err != nil {
		return nil, err
	}
	if err := w.wl.setup(w, st); err != nil {
		st.close()
		return nil, fmt.Errorf("setup: %w", err)
	}
	w.warmup(st, 1)
	return st, nil
}

func runTimed(cfg config, wl *workload) (*result, error) {
	w, err := newWorld(cfg, wl)
	if err != nil {
		return nil, err
	}
	var setups []float64
	var st *stack
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			st.close()
		}
		runtime.GC()
		t0 := time.Now()
		if st, err = w.buildStack(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer st.close()

	// The timed phase alternates closed and open segments, so that a burst
	// of load from outside the benchmark lands on both loops' samples
	// instead of on one loop's entire phase.
	seg := time.Duration(cfg.seconds * float64(time.Second) / (2 * segments))
	rate := wl.rate(cfg.sizes)
	closed, open := &loopStats{}, &loopStats{}
	for i := 0; i < segments; i++ {
		runtime.GC()
		w.warmup(st, 1)
		w.closedLoop(st, seg, closed)
		runtime.GC()
		w.warmup(st, 1)
		w.openLoop(st, seg, rate, open)
	}
	// Two collections: the second frees what sync.Pool victim caches held
	// through the first, so HeapInuse is the retained heap, not pool slack.
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	res := &result{Env: newEnv(cfg), Metrics: map[string]metric{}}
	late := durationsMs(open.late)
	res.Env.LatenessP90Ms = quantileOf(late, 0.9)
	res.Env.LatenessLimitMs = ms(latenessLimit(rate))
	if res.Env.LatenessP90Ms > res.Env.LatenessLimitMs {
		return nil, fmt.Errorf("invalid run: open-loop generator ran late (p90 %.2fms > %.2fms at %.2f cycles/s)",
			res.Env.LatenessP90Ms, res.Env.LatenessLimitMs, rate)
	}
	w.chk.finish()

	put := func(name, unit string, v float64, n int) {
		res.Metrics[name] = metric{Value: v, Unit: unit, Samples: n}
	}
	put("setup_s", "s", quantileOf(setups, 0.5), len(setups))
	rates := windowRates(closed, wl.window)
	put("ops_per_s", "1/s", quantileOf(rates, 0.5), len(rates))
	all := make([]float64, 0, len(open.samples))
	for _, s := range open.samples {
		all = append(all, ms(s.lat))
	}
	sort.Float64s(all)
	put("latency_p50_ms", "ms", quantile(all, 0.5), len(all))
	put("latency_p90_ms", "ms", quantile(all, 0.9), len(all))
	res.OpenLoopByType = map[string]metric{}
	for name, xs := range latenciesByType(open) {
		res.OpenLoopByType[name] = metric{Value: quantileOf(xs, 0.5), Unit: "ms", Samples: len(xs)}
	}
	byType := map[string][]float64{}
	for _, ls := range []*loopStats{closed, open} {
		for _, s := range ls.samples {
			byType[s.metric] = append(byType[s.metric], ms(s.lat))
		}
	}
	for _, name := range p50Metrics {
		put(name, "ms", quantileOf(byType[name], 0.5), len(byType[name]))
	}
	put("retained_heap_mb", "MiB", float64(mem.HeapInuse)/(1<<20), 1)

	res.Attempted, res.Failed, res.Errors = w.chk.attempted, w.chk.failed, w.chk.errs
	for name, m := range res.Metrics {
		if m.Samples == 0 {
			res.Failed++
			res.Errors = append(res.Errors, "no samples for "+name)
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// windowRates splits the closed loop into windows of n cycles and returns
// each window's completed requests per second.
func windowRates(ls *loopStats, n int) []float64 {
	var rates []float64
	for i := 0; i+n <= len(ls.cycleDur); i += n {
		var d time.Duration
		ops := 0
		for j := i; j < i+n; j++ {
			d += ls.cycleDur[j]
			ops += ls.cycleOps[j]
		}
		rates = append(rates, float64(ops)/d.Seconds())
	}
	return rates
}

// latenciesByType groups a phase's latencies, in ms, by the metric each
// request feeds (deletes and side requests under "other").
func latenciesByType(ls *loopStats) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range ls.samples {
		name := s.metric
		if name == "" {
			name = "other"
		}
		out[name] = append(out[name], ms(s.lat))
	}
	return out
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
