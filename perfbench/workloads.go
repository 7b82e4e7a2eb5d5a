package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"

	"repro/internal/onesided"
	"repro/internal/serve"
)

// sizes fixes the input scale of every workload.
type sizes struct {
	coldN, coldTiesN     int // solve_cold: strict and ties applicants
	hitsN, hitsTiesN     int // serve_hits: strict and ties applicants
	churnN, churnUploadN int // serve_churn: session instance, text uploads
	pool                 int // distinct instances cycled by solve_cold / serve_churn uploads
	tiesPool             int // distinct ties instances cycled by solve_cold
	hitsStrict, hitsTies int // serve_hits: instances registered
	mutations            int // mutations pre-generated per session lane
	// Open-loop offered rates, in cycles per second.
	coldRate, hitsRate, churnRate float64
}

// fullSizes is the committed benchmark scale; tinySizes keeps the
// benchmark's own tests to seconds.
var (
	fullSizes = sizes{
		coldN: 100000, coldTiesN: 800,
		hitsN: 20000, hitsTiesN: 1000,
		churnN: 100000, churnUploadN: 20000,
		pool: 4, tiesPool: 64, hitsStrict: 3, hitsTies: 2, mutations: 4096,
		coldRate: 1.25, hitsRate: 15, churnRate: 4.5,
	}
	tinySizes = sizes{
		coldN: 3000, coldTiesN: 60,
		hitsN: 2000, hitsTiesN: 60,
		churnN: 3000, churnUploadN: 1000,
		pool: 2, tiesPool: 3, hitsStrict: 2, hitsTies: 1, mutations: 256,
		coldRate: 2, hitsRate: 8, churnRate: 4,
	}
)

// lanes is the client's connection and request-goroutine count: the
// machine's CPU count, at most two (every step of a workload cycle holds at
// most two requests).
func lanes() int { return max(1, min(2, runtime.NumCPU())) }

// kind is a request type of the workloads.
type kind int

const (
	kUpload kind = iota
	kSolve
	kDelete
	kMutate
	kSessionSolve
)

var kindNames = [...]string{"upload", "solve", "delete", "mutate", "session_solve"}

func (k kind) String() string { return kindNames[k] }

// input is one generated instance with its wire encoding and content id.
type input struct {
	ins   *onesided.Instance // client copy: reference solves and replays
	id    string             // content fingerprint = the server's instance id
	body  []byte             // upload body
	ctype string
}

func newInput(ins *onesided.Instance, binary bool) (*input, error) {
	in := &input{ins: ins, id: ins.Fingerprint()}
	var buf bytes.Buffer
	if binary {
		if err := onesided.WriteBinary(&buf, ins); err != nil {
			return nil, err
		}
		in.ctype = serve.ContentTypeBinary
	} else {
		if err := onesided.Write(&buf, ins); err != nil {
			return nil, err
		}
		in.ctype = "text/plain"
	}
	in.body = buf.Bytes()
	return in, nil
}

// lane is a delta session driven by one client connection: only that
// connection mutates or solves it, so its events are totally ordered.
type lane struct {
	source *input
	sid    string
	*mutations
	next  int
	epoch uint64 // epoch the server reported last
	log   *sessionLog
}

// op is one request of a workload cycle.
type op struct {
	kind kind
	mode serve.Mode
	in   *input
	lane *lane
	mut  int // mutation index into lane.muts
	// side marks a request that only prepares another (a small upload for
	// a later solve): it counts in the all-request latencies and is
	// checked, but feeds no per-type metric.
	side bool
}

// workload is a traffic shape: its inputs, its set-up and its request
// cycle. Every cycle is a list of steps; the requests of one step go out
// together, one per connection, and the next step starts when all of them
// have been answered.
type workload struct {
	name   string
	router bool // drive the stack through a one-shard router
	window int  // closed-loop cycles per throughput window
	rate   func(sizes) float64
	gen    func(w *world, rng *rand.Rand) error
	setup  func(w *world, st *stack) error
	cycle  func(w *world, i int) [][]*op
}

var workloads = map[string]*workload{
	"solve_cold":  coldWorkload,
	"serve_hits":  hitsWorkload,
	"serve_churn": churnWorkload,
}

// world is a workload's generated inputs plus its live client state.
type world struct {
	cfg     config
	wl      *workload
	strict  []*input
	ties    []*input
	uploads []*input
	// presolved are solve requests for instances registered and solved
	// during set-up, so that their timed requests are cache hits.
	presolved []*op
	laneSrc   *input       // the instance the session lanes fork
	muts      []*mutations // one edit list per session lane
	lanes     []*lane
	chk       *checker
	tr        *tracer // when set, every traffic request is recorded as a span
	cycleNo   int
}

func newWorld(cfg config, wl *workload) (*world, error) {
	w := &world{cfg: cfg, wl: wl, chk: newChecker()}
	if err := wl.gen(w, newRand(cfg.seed)); err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	return w, nil
}

// nextCycle returns the steps of the next cycle.
func (w *world) nextCycle() [][]*op {
	steps := w.wl.cycle(w, w.cycleNo)
	w.cycleNo++
	return steps
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// strictInstance is the Solvable family: every applicant's first choice is
// its own post, so a popular matching always exists.
func strictInstance(rng *rand.Rand, n int) *onesided.Instance {
	return onesided.Solvable(rng, n, n/4, 4)
}

func tiesInstance(rng *rand.Rand, n int) *onesided.Instance {
	return onesided.RandomTies(rng, n, n, 4, 4, 0.3)
}

func genInputs(rng *rand.Rand, count int, mk func() *onesided.Instance, binary bool) ([]*input, error) {
	out := make([]*input, count)
	for i := range out {
		in, err := newInput(mk(), binary)
		if err != nil {
			return nil, err
		}
		out[i] = in
	}
	return out, nil
}

// mutations is a pre-generated list of single-row set_preferences edits,
// with each edit's request body.
type mutations struct {
	muts   []serve.Mutation
	bodies [][]byte
}

// genMutations draws edits that keep the applicant's own first choice and
// pick three fresh second choices, so the instance stays in the Solvable
// family and every re-solve has a popular matching.
func genMutations(rng *rand.Rand, ins *onesided.Instance, count int) *mutations {
	n := ins.NumApplicants
	extra := ins.NumPosts - n
	ms := &mutations{}
	for i := 0; i < count; i++ {
		a := rng.Intn(n)
		posts := []int32{int32(a)}
		for len(posts) < 4 {
			p := int32(n + rng.Intn(extra))
			dup := false
			for _, q := range posts {
				dup = dup || q == p
			}
			if !dup {
				posts = append(posts, p)
			}
		}
		m := serve.Mutation{Op: "set_preferences", Applicant: a, Posts: posts}
		body, _ := json.Marshal(map[string]any{"mutations": []serve.Mutation{m}}) // plain data: cannot fail
		ms.muts = append(ms.muts, m)
		ms.bodies = append(ms.bodies, body)
	}
	return ms
}

// startLanes registers the session source and opens one session lane per
// mutation list.
func (w *world) startLanes(st *stack) error {
	src := w.laneSrc
	if err := st.callJSON("POST", "/v1/instances", src.ctype, src.body, nil); err != nil {
		return err
	}
	w.lanes = w.lanes[:0]
	for _, ms := range w.muts {
		ln := &lane{source: src, mutations: ms, log: &sessionLog{source: src}}
		if err := w.openSession(st, ln); err != nil {
			return err
		}
		w.lanes = append(w.lanes, ln)
	}
	return nil
}

func (w *world) openSession(st *stack, ln *lane) error {
	body, _ := json.Marshal(map[string]string{"instance": ln.source.id}) // plain data: cannot fail
	var info serve.SessionInfo
	if err := st.callJSON("POST", "/v1/sessions", "application/json", body, &info); err != nil {
		return err
	}
	ln.sid, ln.epoch = info.ID, info.Epoch
	w.chk.addSession(ln.log)
	return nil
}

func (ln *lane) mutateOp() *op {
	o := &op{kind: kMutate, lane: ln, mut: ln.next % len(ln.muts)}
	ln.next++
	return o
}

func (ln *lane) solveOp() *op { return &op{kind: kSessionSolve, mode: serve.ModePopular, lane: ln} }

func solveOp(in *input, mode serve.Mode) *op { return &op{kind: kSolve, mode: mode, in: in} }
func uploadOp(in *input) *op                 { return &op{kind: kUpload, in: in} }
func deleteOp(in *input) *op                 { return &op{kind: kDelete, in: in} }
func sideUploadOp(in *input) *op             { return &op{kind: kUpload, in: in, side: true} }

// p50Metrics are the per-request-type latency metrics. Every workload
// sends every type, in its own proportion; README.md says what each one
// means on each workload.
var p50Metrics = []string{"popular_p50_ms", "maxcard_p50_ms", "ties_p50_ms", "upload_p50_ms", "mutate_p50_ms"}

// coldWorkload uploads fresh binary instances and solves each once: every
// solve misses the result cache, so the kernel and binary ingest dominate.
// Both connections send the same strict solve at once, which the batcher
// coalesces into one kernel dispatch; the two ties solves of a cycle are of
// different instances, so each cycle times two independent ties solves. A
// session over a small instance takes one mutation per cycle beside the
// solves.
var coldWorkload = &workload{
	name:   "solve_cold",
	window: 1,
	rate:   func(s sizes) float64 { return s.coldRate },
	gen: func(w *world, rng *rand.Rand) error {
		s := w.cfg.sizes
		var err error
		if w.strict, err = genInputs(rng, s.pool, func() *onesided.Instance { return strictInstance(rng, s.coldN) }, true); err != nil {
			return err
		}
		if w.ties, err = genInputs(rng, s.tiesPool, func() *onesided.Instance { return tiesInstance(rng, s.coldTiesN) }, true); err != nil {
			return err
		}
		return w.genLanes(rng, s.coldTiesN, 1)
	},
	setup: func(w *world, st *stack) error { return w.startLanes(st) },
	cycle: func(w *world, i int) [][]*op {
		s := w.strict[i%len(w.strict)]
		t1, t2 := w.ties[(2*i)%len(w.ties)], w.ties[(2*i+1)%len(w.ties)]
		return [][]*op{
			{uploadOp(s), sideUploadOp(t1)},
			{solveOp(s, serve.ModePopular), solveOp(s, serve.ModePopular)},
			{solveOp(s, serve.ModeMaxCard), solveOp(s, serve.ModeMaxCard)},
			{sideUploadOp(t2), deleteOp(s)},
			{solveOp(t1, serve.ModeTies), solveOp(t2, serve.ModeTies)},
			{deleteOp(t1), deleteOp(t2)},
			{w.lanes[0].mutateOp()},
		}
	},
}

// hitsWorkload requests a few pre-solved instances over and over: the
// kernel does nothing, and cache lookup, JSON encoding and transport are the
// whole cost. One small upload, delete and mutation per cycle keep every
// request type measured.
var hitsWorkload = &workload{
	name:   "serve_hits",
	window: 16,
	rate:   func(s sizes) float64 { return s.hitsRate },
	gen: func(w *world, rng *rand.Rand) error {
		s := w.cfg.sizes
		var err error
		if w.strict, err = genInputs(rng, s.hitsStrict, func() *onesided.Instance { return strictInstance(rng, s.hitsN) }, true); err != nil {
			return err
		}
		if w.ties, err = genInputs(rng, s.hitsTies, func() *onesided.Instance { return tiesInstance(rng, s.hitsTiesN) }, true); err != nil {
			return err
		}
		if w.uploads, err = genInputs(rng, s.pool, func() *onesided.Instance { return strictInstance(rng, s.hitsTiesN) }, true); err != nil {
			return err
		}
		// The pairing of requests into steps is fixed, so the seed changes
		// only the instances: popular of one strict instance beside maxcard
		// of the next.
		k := len(w.strict)
		for i, in := range w.strict {
			w.presolved = append(w.presolved, solveOp(in, serve.ModePopular), solveOp(w.strict[(i+1)%k], serve.ModeMaxCard))
		}
		for _, in := range w.ties {
			w.presolved = append(w.presolved, solveOp(in, serve.ModeTies))
		}
		return w.genLanes(rng, s.hitsTiesN, 1)
	},
	setup: func(w *world, st *stack) error {
		if err := w.presolve(st); err != nil {
			return err
		}
		return w.startLanes(st)
	},
	cycle: func(w *world, i int) [][]*op {
		// The strict hits twice per cycle, so that they are the larger
		// share and both latency quantiles fall inside them.
		hits := w.presolved[:2*len(w.strict)]
		t := w.presolved[2*len(w.strict):]
		u := w.uploads[i%len(w.uploads)]
		var steps [][]*op
		for _, last := range [][]*op{{t[0], uploadOp(u)}, {t[1%len(t)], deleteOp(u)}} {
			for j := 0; j < len(hits); j += 2 {
				steps = append(steps, hits[j:j+2])
			}
			steps = append(steps, last)
		}
		return append(steps, []*op{w.lanes[0].mutateOp()})
	},
}

// churnWorkload writes beside reads through a one-shard router: two delta
// sessions over a large instance take single-row mutations, each followed
// by a warm popular re-solve, between fresh text uploads. Full ties and
// maxcard re-solves are left out; those two types are cache hits on small
// pre-solved instances.
var churnWorkload = &workload{
	name:   "serve_churn",
	router: true,
	window: 4,
	rate:   func(s sizes) float64 { return s.churnRate },
	gen: func(w *world, rng *rand.Rand) error {
		s := w.cfg.sizes
		src, err := newInput(strictInstance(rng, s.churnN), false)
		if err != nil {
			return err
		}
		w.strict = []*input{src}
		if w.uploads, err = genInputs(rng, 2*((s.pool+1)/2), func() *onesided.Instance { return strictInstance(rng, s.churnUploadN) }, false); err != nil {
			return err
		}
		small, err := newInput(strictInstance(rng, s.hitsTiesN), false)
		if err != nil {
			return err
		}
		ties, err := newInput(tiesInstance(rng, s.coldTiesN), false)
		if err != nil {
			return err
		}
		w.presolved = []*op{solveOp(small, serve.ModeMaxCard), solveOp(ties, serve.ModeTies)}
		w.laneSrc = src
		w.muts = []*mutations{genMutations(rng, src.ins, s.mutations), genMutations(rng, src.ins, s.mutations)}
		return nil
	},
	setup: func(w *world, st *stack) error {
		if err := w.presolve(st); err != nil {
			return err
		}
		return w.startLanes(st)
	},
	cycle: func(w *world, i int) [][]*op {
		a, b := w.lanes[0], w.lanes[1]
		u1, u2 := w.uploads[(2*i)%len(w.uploads)], w.uploads[(2*i+1)%len(w.uploads)]
		// The two cache hits go out twice, once after the session solves
		// and once after the deletes, so that their median does not hinge
		// on what the server was doing just before.
		return [][]*op{
			{a.mutateOp(), b.mutateOp()},
			{a.solveOp(), b.solveOp()},
			w.presolved,
			{uploadOp(u1), uploadOp(u2)},
			{deleteOp(u1), deleteOp(u2)},
			w.presolved,
		}
	},
}

// genLanes draws a small strict session source of n applicants and count
// mutation lists for it.
func (w *world) genLanes(rng *rand.Rand, n, count int) error {
	src, err := newInput(strictInstance(rng, n), true)
	if err != nil {
		return err
	}
	w.laneSrc = src
	for i := 0; i < count; i++ {
		w.muts = append(w.muts, genMutations(rng, src.ins, w.cfg.sizes.mutations))
	}
	return nil
}

// presolve registers the instances of w.presolved and solves each once, so
// that every timed request for them is a cache hit.
func (w *world) presolve(st *stack) error {
	for _, o := range w.presolved {
		if err := st.callJSON("POST", "/v1/instances", o.in.ctype, o.in.body, nil); err != nil {
			return err
		}
	}
	for _, o := range w.presolved {
		if err := st.callJSON("POST", "/v1/solve", "application/json", solveBody(o.in.id, o.mode), nil); err != nil {
			return err
		}
	}
	return nil
}

func solveBody(id string, mode serve.Mode) []byte {
	return []byte(fmt.Sprintf(`{"instance":%q,"mode":%q}`, id, mode.String()))
}

// request renders an op as an HTTP request against the stack's front.
func (o *op) request() (method, path, ctype string, body []byte) {
	switch o.kind {
	case kUpload:
		return "POST", "/v1/instances", o.in.ctype, o.in.body
	case kSolve:
		return "POST", "/v1/solve", "application/json", solveBody(o.in.id, o.mode)
	case kDelete:
		return "DELETE", "/v1/instances/" + o.in.id, "", nil
	case kMutate:
		return "POST", "/v1/sessions/" + o.lane.sid + "/mutations", "application/json", o.lane.bodies[o.mut]
	default:
		return "POST", "/v1/sessions/" + o.lane.sid + "/solve", "application/json", []byte(`{"mode":"popular"}`)
	}
}

// metricName is the per-request-type p50 metric an op's latency feeds.
func (o *op) metricName() string {
	if o.side {
		return ""
	}
	switch o.kind {
	case kUpload:
		return "upload_p50_ms"
	case kMutate:
		return "mutate_p50_ms"
	case kSessionSolve:
		return "popular_p50_ms"
	case kSolve:
		return o.mode.String() + "_p50_ms"
	}
	return ""
}
