package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/onesided"
	"repro/internal/seq"
	"repro/internal/serve"
	"repro/popmatch"
)

// The traced run. It drives the workload's traffic once untraced (for the
// serving counters, the runtime counters and a reference latency), once
// with a client span around every request (the difference in p50 is the
// tracing overhead), and then replays sampled requests of every type one
// layer deeper at a time on the same inputs:
//
//	shard.router   HTTP through the one-shard router
//	client.direct  HTTP straight to the shard
//	serve.http     the shard's handler, ServeHTTP into a recorder
//	serve.*        the Server method the handler calls
//	popmatch.*     the library solve the server dispatches, traced
//	core.*         the kernel phases of that solve (Request.Trace)
//
// Each depth of a replay is recorded as a span whose parent is the span one
// layer out, so a layer's self time (span minus children) is the cost that
// layer adds. Spans stay in memory and are written out as JSON lines when
// the run ends. No tracing is added inside the program.

// span is one timed call of the replay or of the traced traffic.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Req    int    `json:"req"`
	Type   string `json:"type"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run's trace origin
	End    int64  `json:"end_ns"`
}

type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	req   int
}

func (t *tracer) newReq() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.req++
	return t.req
}

func (t *tracer) add(typ, name string, req, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Type: typ, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// selfTimes returns each span's duration minus its children's.
func (t *tracer) selfTimes() map[int]time.Duration {
	self := make(map[int]time.Duration, len(t.spans))
	for _, s := range t.spans {
		self[s.ID] += time.Duration(s.End - s.Start)
		if s.Parent != 0 {
			self[s.Parent] -= time.Duration(s.End - s.Start)
		}
	}
	return self
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layer is one depth of a replay chain: prep restores the state the sampled
// request met, do is the timed call, the phases it returns become child
// spans laid end to end from the call's start, and check judges the call's
// reply. prep and check run off the clock.
type layer struct {
	name  string
	prep  func() error
	do    func() ([]popmatch.PhaseTrace, error)
	check func() error
	split []layer // sibling calls (do only) timed in order instead of do
}

// replayer owns the replay of one traced run.
type replayer struct {
	w      *world
	st     *stack
	tr     *tracer
	solver *popmatch.Solver
	ctx    context.Context
	// Per-sample counters of the direct popular solve, keyed by name.
	counts map[string][]float64
}

// chain runs the layers of one sample of type typ, outermost first.
func (rp *replayer) chain(typ string, layers []layer) error {
	req := rp.tr.newReq()
	parent := 0
	for _, l := range layers {
		if l.prep != nil {
			if err := l.prep(); err != nil {
				return fmt.Errorf("%s %s prep: %w", typ, l.name, err)
			}
		}
		start := time.Now()
		id := rp.tr.add(typ, l.name, req, parent, start, start) // end patched below
		var phases []popmatch.PhaseTrace
		var err error
		if l.split != nil {
			for _, s := range l.split {
				if err = rp.leaf(typ, s, req, id); err != nil {
					break
				}
			}
		} else {
			phases, err = l.do()
		}
		if err != nil {
			return fmt.Errorf("%s %s: %w", typ, l.name, err)
		}
		rp.patch(id, time.Now())
		rp.phases(typ, req, id, start, phases)
		if l.check != nil {
			if err := l.check(); err != nil {
				return fmt.Errorf("%s %s: %w", typ, l.name, err)
			}
		}
		parent = id
	}
	return nil
}

// leaf times one of a split layer's sibling calls as a child of parent.
func (rp *replayer) leaf(typ string, l layer, req, parent int) error {
	start := time.Now()
	if _, err := l.do(); err != nil {
		return err
	}
	rp.tr.add(typ, l.name, req, parent, start, time.Now())
	return nil
}

func (rp *replayer) patch(id int, end time.Time) {
	rp.tr.mu.Lock()
	rp.tr.spans[id-1].End = end.Sub(rp.tr.t0).Nanoseconds()
	rp.tr.mu.Unlock()
}

// phases lays a solve trace's phases end to end as child spans.
func (rp *replayer) phases(typ string, req, parent int, start time.Time, ps []popmatch.PhaseTrace) {
	at := start
	for _, p := range ps {
		end := at.Add(time.Duration(p.DurationNs))
		rp.tr.add(typ, "core."+strings.ReplaceAll(p.Name, "-", "_"), req, parent, at, end)
		at = end
	}
}

// httpLayers are the three transport depths of one request: through the
// router, straight to the shard, and into the handler without a socket.
// req renders the request; it is called after prep, so a request drawn in
// prep (the next mutation) is the one sent.
func (rp *replayer) httpLayers(req func() (method, path, ctype string, body []byte), check func(status int, data []byte) error, prep func() error) []layer {
	var status int
	var data []byte
	after := func() error { return check(status, data) }
	viaHTTP := func(base string) func() ([]popmatch.PhaseTrace, error) {
		return func() ([]popmatch.PhaseTrace, error) {
			method, path, ctype, body := req()
			var err error
			status, data, _, err = rp.st.call(base, method, path, ctype, body)
			return nil, err
		}
	}
	return []layer{
		{name: "shard.router", prep: prep, do: viaHTTP(rp.st.routerTS.URL), check: after},
		{name: "client.direct", prep: prep, do: viaHTTP(rp.st.direct), check: after},
		{name: "serve.http", prep: prep, do: func() ([]popmatch.PhaseTrace, error) {
			method, path, ctype, body := req()
			var rd io.Reader
			if body != nil {
				rd = bytes.NewReader(body)
			}
			r := httptest.NewRequest(method, path, rd)
			if ctype != "" {
				r.Header.Set("Content-Type", ctype)
			}
			rec := httptest.NewRecorder()
			rp.st.handler.ServeHTTP(rec, r)
			status, data = rec.Code, rec.Body.Bytes()
			return nil, nil
		}, check: after},
	}
}

func status2xx(status int, data []byte) error {
	if status/100 != 2 {
		return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(data[:min(len(data), 200)]))
	}
	return nil
}

// decodeInput decodes an input's upload body the way the server does.
func decodeInput(in *input) (*onesided.Instance, error) {
	if in.ctype == serve.ContentTypeBinary {
		return onesided.DecodeBinaryWithFingerprint(in.body)
	}
	return onesided.Read(bytes.NewReader(in.body))
}

// replayUpload: router → direct → handler → {decode, Server.Upload}.
func (rp *replayer) replayUpload(in *input) error {
	srv := rp.st.srv
	evict := func() error { srv.Evict(in.id); return nil }
	check := func(status int, data []byte) error { return status2xx(status, data) }
	layers := rp.httpLayers(uploadOp(in).request, check, evict)
	var ins *onesided.Instance
	layers = append(layers, layer{name: "serve.upload_path", prep: evict, split: []layer{
		{name: "onesided.decode", do: func() ([]popmatch.PhaseTrace, error) {
			var err error
			ins, err = decodeInput(in)
			return nil, err
		}},
		{name: "serve.upload", do: func() ([]popmatch.PhaseTrace, error) {
			_, _, err := srv.Upload(ins)
			return nil, err
		}},
	}})
	return rp.chain("upload", layers)
}

// replayMiss: a cold solve at every depth, down to the traced library
// solve and its kernel phases; popular samples also run seq.Popular.
func (rp *replayer) replayMiss(in *input, mode serve.Mode) error {
	srv := rp.st.srv
	typ := "solve_" + mode.String() + "_miss"
	var fresh *onesided.Instance
	prep := func() error { // re-register, so the server's cache is cold
		srv.Evict(in.id)
		ins, err := decodeInput(in)
		if err != nil {
			return err
		}
		_, _, err = srv.Upload(ins)
		return err
	}
	check := func(status int, data []byte) error {
		if err := status2xx(status, data); err != nil {
			return err
		}
		rp.w.chk.intern(variantKey{in, mode}, data)
		return nil
	}
	layers := rp.httpLayers(solveOp(in, mode).request, check, prep)
	var trace popmatch.SolveTrace
	var res popmatch.Result
	layers = append(layers,
		layer{name: "serve.solve", prep: prep, do: func() ([]popmatch.PhaseTrace, error) {
			_, _, err := srv.Solve(rp.ctx, in.id, mode)
			return nil, err
		}},
		layer{name: "popmatch.solve", prep: func() error {
			var err error
			fresh, err = decodeInput(in)
			return err
		}, do: func() ([]popmatch.PhaseTrace, error) {
			err := rp.solver.SolveRequestInto(rp.ctx, fresh, popmatch.Request{Mode: mode, Trace: &trace}, &res)
			return trace.Phases, err
		}},
	)
	if err := rp.chain(typ, layers); err != nil {
		return err
	}
	if mode != serve.ModePopular {
		return nil
	}
	rp.counts["core.peel_rounds"] = append(rp.counts["core.peel_rounds"], float64(res.PeelRounds))
	rp.counts["core.rounds"] = append(rp.counts["core.rounds"], float64(trace.Rounds))
	rp.counts["core.work"] = append(rp.counts["core.work"], float64(trace.Work))
	rp.counts["par.barrier_wait_ms"] = append(rp.counts["par.barrier_wait_ms"], float64(trace.BarrierWaitNs)/1e6)
	return rp.chain("seq_popular", []layer{{name: "seq.popular", prep: func() error {
		var err error
		fresh, err = decodeInput(in)
		return err
	}, do: func() ([]popmatch.PhaseTrace, error) {
		_, _, err := seq.Popular(fresh)
		return nil, err
	}}})
}

// replayHit: a cached solve at every depth down to Server.Solve.
func (rp *replayer) replayHit(in *input) error {
	srv := rp.st.srv
	if _, _, err := srv.Solve(rp.ctx, in.id, serve.ModePopular); err != nil {
		return err
	}
	check := func(status int, data []byte) error {
		if err := status2xx(status, data); err != nil {
			return err
		}
		rp.w.chk.intern(variantKey{in, serve.ModePopular}, data)
		return nil
	}
	layers := rp.httpLayers(solveOp(in, serve.ModePopular).request, check, nil)
	layers = append(layers, layer{name: "serve.solve", do: func() ([]popmatch.PhaseTrace, error) {
		_, hit, err := srv.Solve(rp.ctx, in.id, serve.ModePopular)
		if err == nil && !hit {
			err = fmt.Errorf("expected a cache hit")
		}
		return nil, err
	}})
	return rp.chain("solve_hit", layers)
}

// replayMutate: one single-row mutation per depth, down to
// Server.MutateSession.
func (rp *replayer) replayMutate(ln *lane) error {
	var cur *op
	next := func() error { cur = ln.mutateOp(); return nil }
	check := func(status int, data []byte) error {
		if !rp.w.chk.check(cur, status, data, nil) {
			return fmt.Errorf("mutation reply failed the check")
		}
		return nil
	}
	layers := rp.httpLayers(func() (string, string, string, []byte) { return cur.request() }, check, next)
	layers = append(layers, layer{name: "serve.mutate", prep: next, do: func() ([]popmatch.PhaseTrace, error) {
		return nil, rp.applyDirect(ln, cur)
	}})
	return rp.chain("mutate", layers)
}

// applyDirect applies a mutation op through Server.MutateSession and logs
// it for the session replay check.
func (rp *replayer) applyDirect(ln *lane, o *op) error {
	info, _, err := rp.st.srv.MutateSession(ln.sid, []serve.Mutation{ln.muts[o.mut]})
	if err != nil {
		return err
	}
	if info.Epoch != ln.epoch+1 {
		return fmt.Errorf("mutation moved epoch %d to %d", ln.epoch, info.Epoch)
	}
	ln.epoch = info.Epoch
	ln.log.events = append(ln.log.events, sessionEvent{mut: &ln.muts[o.mut], epoch: info.Epoch})
	return nil
}

// replaySessionSolve: after one mutation, a warm re-solve at every depth,
// down to a traced library delta solve on a client copy kept in step.
func (rp *replayer) replaySessionSolve(ln *lane, local *onesided.Instance, ds *popmatch.DeltaSession, res *popmatch.Result) error {
	srv := rp.st.srv
	var trace popmatch.SolveTrace
	localSolve := func(tr *popmatch.SolveTrace) error {
		return rp.solver.SolveDeltaInto(rp.ctx, local, popmatch.Request{Mode: popmatch.ModePopular, Trace: tr}, ds, res)
	}
	mutate := func() error { // one fresh edit, applied to the server and the local copy
		o := ln.mutateOp()
		if err := rp.applyDirect(ln, o); err != nil {
			return err
		}
		m := ln.muts[o.mut]
		if err := local.SetPreferences(m.Applicant, m.Posts, nil); err != nil {
			return err
		}
		return localSolve(nil)
	}
	solveOp := ln.solveOp()
	var out *serve.Outcome
	var meta serve.SessionSolveMeta
	check := func(status int, data []byte) error {
		if !rp.w.chk.check(solveOp, status, data, nil) {
			return fmt.Errorf("session solve reply failed the check")
		}
		return nil
	}
	layers := rp.httpLayers(solveOp.request, check, mutate)
	layers = append(layers,
		layer{name: "serve.session_solve", prep: mutate, do: func() ([]popmatch.PhaseTrace, error) {
			var err error
			out, meta, err = srv.SolveSession(rp.ctx, ln.sid, serve.ModePopular)
			return nil, err
		}, check: func() error {
			ln.log.events = append(ln.log.events, sessionEvent{epoch: meta.Epoch, exists: out.Exists, size: out.Size, digest: digest(out.PostOf)})
			return nil
		}},
		layer{name: "popmatch.solve_delta", prep: func() error {
			o := ln.mutateOp()
			if err := rp.applyDirect(ln, o); err != nil {
				return err
			}
			m := ln.muts[o.mut]
			return local.SetPreferences(m.Applicant, m.Posts, nil)
		}, do: func() ([]popmatch.PhaseTrace, error) {
			err := localSolve(&trace)
			return trace.Phases, err
		}},
	)
	return rp.chain("session_solve", layers)
}

// traceSamples is how many requests of each type the replay samples.
func traceSamples(s sizes) int {
	if s == tinySizes {
		return 2
	}
	return 9
}

// traceInputs picks the replay inputs from the workload's own: its strict
// instance, its ties instance and its upload body. A workload without one
// of them (serve_churn has no ties pool) gets one drawn from the seed.
func (w *world) traceInputs() (strict, ties, upload *input, err error) {
	strict = w.strict[0]
	upload = strict
	if len(w.uploads) > 0 {
		upload = w.uploads[0]
	}
	if len(w.ties) > 0 {
		return strict, w.ties[0], upload, nil
	}
	rng := newRand(w.cfg.seed + 11)
	ties, err = newInput(tiesInstance(rng, w.cfg.sizes.coldTiesN), true)
	return strict, ties, upload, err
}

func runTraced(cfg config, wl *workload, stdout io.Writer) (*result, error) {
	w, err := newWorld(cfg, wl)
	if err != nil {
		return nil, err
	}
	strict, ties, upload, err := w.traceInputs()
	if err != nil {
		return nil, err
	}
	traceMuts := genMutations(newRand(cfg.seed+13), strict.ins, 1024)
	st, err := w.buildStack()
	if err != nil {
		return nil, err
	}
	defer st.close()
	if st.router == nil {
		if err := st.addRouter(); err != nil {
			return nil, err
		}
	}
	srv := st.srv
	tr := &tracer{t0: time.Now()}
	quarter := time.Duration(cfg.seconds * float64(time.Second) / 4)

	// Traffic: untraced closed loop, untraced and traced open loops.
	runtime.GC()
	stats0 := srv.Stats()
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	closed := w.closedLoop(st, 2*quarter, &loopStats{})
	runtime.ReadMemStats(&mem1)
	stats1 := srv.Stats()
	runtime.GC()
	w.warmup(st, 1)
	rate := wl.rate(cfg.sizes)
	plain := w.openLoop(st, quarter, rate, &loopStats{})
	w.tr = tr
	traced := w.openLoop(st, quarter, rate, &loopStats{})
	w.tr = nil

	// Replay.
	if err := st.callJSON("POST", "/v1/instances", strict.ctype, strict.body, nil); err != nil {
		return nil, err
	}
	ln := &lane{source: strict, mutations: traceMuts, log: &sessionLog{source: strict}}
	if err := w.openSession(st, ln); err != nil {
		return nil, err
	}
	rp := &replayer{w: w, st: st, tr: tr, solver: popmatch.NewSolver(popmatch.Options{}), ctx: context.Background(), counts: map[string][]float64{}}
	defer rp.solver.Close()
	local := strict.ins.Clone()
	var ds popmatch.DeltaSession
	var dres popmatch.Result
	if err := rp.solver.SolveDeltaInto(rp.ctx, local, popmatch.Request{Mode: popmatch.ModePopular}, &ds, &dres); err != nil {
		return nil, err
	}
	for i := 0; i < traceSamples(cfg.sizes); i++ {
		steps := []func() error{
			func() error { return rp.replayUpload(upload) },
			func() error { return rp.replayMiss(strict, serve.ModePopular) },
			func() error { return rp.replayMiss(strict, serve.ModeMaxCard) },
			func() error { return rp.replayMiss(ties, serve.ModeTies) },
			func() error { return rp.replayHit(strict) },
			func() error { return rp.replayMutate(ln) },
			func() error { return rp.replaySessionSolve(ln, local, &ds, &dres) },
		}
		for _, step := range steps {
			if err := step(); err != nil {
				return nil, fmt.Errorf("replay: %w", err)
			}
		}
	}
	stats2 := srv.Stats()
	w.chk.finish()

	res := &result{Env: newEnv(cfg), Metrics: map[string]metric{}}
	res.Env.LatenessP90Ms = quantileOf(durationsMs(append(plain.late, traced.late...)), 0.9)
	res.Env.LatenessLimitMs = ms(latenessLimit(rate))
	put := func(name, unit string, v float64, n int) {
		res.Metrics[name] = metric{Value: v, Unit: unit, Samples: n}
	}

	self := tr.selfTimes()
	selfOf := func(typ, name string) []float64 {
		var out []float64
		for _, s := range tr.spans {
			if s.Type == typ && s.Name == name {
				out = append(out, ms(self[s.ID]))
			}
		}
		return out
	}
	durOf := func(typ, name string) []float64 {
		var out []float64
		for _, s := range tr.spans {
			if s.Type == typ && s.Name == name {
				out = append(out, float64(s.End-s.Start)/1e6)
			}
		}
		return out
	}
	med := func(name, unit string, xs []float64) { put(name, unit, quantileOf(xs, 0.5), len(xs)) }
	med("shard.hop_ms", "ms", append(selfOf("upload", "shard.router"), selfOf("mutate", "shard.router")...))
	med("serve.transport_ms", "ms", selfOf("solve_hit", "client.direct"))
	med("serve.http_self_ms", "ms", selfOf("solve_hit", "serve.http"))
	med("serve.queue_wait_ms", "ms", selfOf("solve_popular_miss", "serve.solve"))
	med("serve.upload_ms", "ms", durOf("upload", "serve.upload"))
	med("onesided.decode_ms", "ms", durOf("upload", "onesided.decode"))
	for _, m := range []serve.Mode{serve.ModePopular, serve.ModeMaxCard, serve.ModeTies} {
		med("popmatch."+m.String()+"_ms", "ms", durOf("solve_"+m.String()+"_miss", "popmatch.solve"))
	}
	for _, p := range []string{"validate", "build_reduced", "peel", "promote"} {
		med("core."+p+"_ms", "ms", durOf("solve_popular_miss", "core."+p))
	}
	med("par.barrier_wait_ms", "ms", rp.counts["par.barrier_wait_ms"])
	for _, c := range []string{"core.peel_rounds", "core.rounds", "core.work"} {
		med(c, "count", rp.counts[c])
	}
	seqMs := durOf("seq_popular", "seq.popular")
	med("seq.popular_ms", "ms", seqMs)
	put("core.vs_seq", "ratio", res.Metrics["popmatch.popular_ms"].Value/quantileOf(seqMs, 0.5), len(seqMs))
	med("serve.mutate_ms", "ms", durOf("mutate", "serve.mutate"))
	med("serve.session_solve_ms", "ms", durOf("session_solve", "serve.session_solve"))

	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	d := func(m0, m1 map[string]int64, k string) int64 { return m1[k] - m0[k] }
	reqs := d(stats0, stats1, "requests")
	put("serve.cache_hit_ratio", "ratio", ratio(d(stats0, stats1, "cache_hits"), reqs), int(reqs))
	put("serve.coalesced_share", "ratio", ratio(d(stats0, stats1, "coalesced"), reqs), int(reqs))
	put("serve.batch_size_mean", "count", ratio(d(stats0, stats1, "batched_requests"), d(stats0, stats1, "batches")), int(d(stats0, stats1, "batches")))
	put("serve.session_warm_share", "ratio", ratio(d(stats0, stats2, "session_warm"), d(stats0, stats2, "session_solves")), int(d(stats0, stats2, "session_solves")))

	ops := 0
	for _, n := range closed.cycleOps {
		ops += n
	}
	put("runtime.alloc_mb_per_op", "MiB", float64(mem1.TotalAlloc-mem0.TotalAlloc)/(1<<20)/float64(max(ops, 1)), ops)
	put("runtime.gc_cycles", "count", float64(mem1.NumGC-mem0.NumGC), ops)
	put("runtime.gc_pause_ms", "ms", float64(mem1.PauseTotalNs-mem0.PauseTotalNs)/1e6, ops)

	plainMs, tracedMs := samplesMs(plain), samplesMs(traced)
	put("trace.overhead_p50_ms", "ms", quantileOf(tracedMs, 0.5)-quantileOf(plainMs, 0.5), len(tracedMs))

	// The self-time table of every replayed type, with its residual against
	// the client-seen latency of that type in this run's traffic.
	client := map[string][]float64{}
	for _, ls := range []*loopStats{closed, plain} {
		for _, s := range ls.samples {
			client[s.metric] = append(client[s.metric], ms(s.lat))
		}
	}
	primary := map[string]string{"solve_cold": "solve_popular_miss", "serve_hits": "solve_hit", "serve_churn": "session_solve"}[wl.name]
	residual := printSelfTable(stdout, tr, self, wl.router, primary, quantileOf(client["popular_p50_ms"], 0.5))
	put("trace.residual_ms", "ms", residual, len(client["popular_p50_ms"]))

	spansPath := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d-spans.jsonl", cfg.workload, cfg.seed))
	if err := tr.write(spansPath); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(stdout, "# spans %d written to %s\n", len(tr.spans), spansPath)

	res.Attempted, res.Failed, res.Errors = w.chk.attempted, w.chk.failed, w.chk.errs
	res.Correct = res.Failed == 0
	return res, nil
}

func samplesMs(ls *loopStats) []float64 {
	out := make([]float64, len(ls.samples))
	for i, s := range ls.samples {
		out[i] = ms(s.lat)
	}
	return out
}

// printSelfTable prints, per replayed request type, the median self time of
// each layer and their sum. For the workload's primary type (the one its
// popular_p50_ms measures) it also prints the client latency from the
// traffic and the residual: client latency minus the layer sum, over the
// layers that traffic crosses (the router only where the workload uses
// one). It returns that residual.
func printSelfTable(out io.Writer, tr *tracer, self map[int]time.Duration, viaRouter bool, primary string, clientP50 float64) float64 {
	type row struct {
		name string
		vals []float64
	}
	order := map[string][]*row{}
	index := map[string]map[string]*row{}
	var types []string
	for _, s := range tr.spans {
		if strings.HasPrefix(s.Name, "client.") && s.Type == "traffic" {
			continue
		}
		if index[s.Type] == nil {
			index[s.Type] = map[string]*row{}
			types = append(types, s.Type)
		}
		r := index[s.Type][s.Name]
		if r == nil {
			r = &row{name: s.Name}
			index[s.Type][s.Name] = r
			order[s.Type] = append(order[s.Type], r)
		}
		r.vals = append(r.vals, ms(self[s.ID]))
	}
	sort.Strings(types)
	residual := 0.0
	for _, typ := range types {
		if typ == "traffic" {
			continue
		}
		fmt.Fprintf(out, "# self time, %s (median of %d samples)\n", typ, len(order[typ][0].vals))
		sum, crossed := 0.0, 0.0
		for _, r := range order[typ] {
			m := quantileOf(r.vals, 0.5)
			sum += m
			if viaRouter || r.name != "shard.router" {
				crossed += m
			}
			fmt.Fprintf(out, "#   %-24s %10.3f ms\n", r.name, m)
		}
		fmt.Fprintf(out, "#   %-24s %10.3f ms\n", "sum", sum)
		if typ == primary {
			residual = clientP50 - crossed
			fmt.Fprintf(out, "#   %-24s %10.3f ms\n", "client p50 (traffic)", clientP50)
			fmt.Fprintf(out, "#   %-24s %10.3f ms  (client p50 - layers the traffic crosses)\n", "residual", residual)
		}
	}
	return residual
}
